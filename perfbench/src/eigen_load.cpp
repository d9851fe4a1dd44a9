// Eigenbench workloads: the paper's Table II objects (paper_view1 hot,
// paper_view2 cold), one view per object, at the fixed quotas adaptive RAC
// settles on in the paper's adaptive tables.
//
//   eigen-tm   : NOrec, Q = (N, N) (Table X). Every op is instrumented TM
//                and the hot view really conflicts, so STM barriers,
//                NOrec's commit-time validation and the abort/retry path
//                do the work; the admission gate stays open.
//   eigen-lock : OrecEagerRedo, Q = (1, N) (Table V's best row, Table VI).
//                Hot-view ops run in lock mode (blocking admission, then
//                uninstrumented accesses); cold-view ops run orec TM, where
//                the orec engine, clock and contention manager do the work.
#include <algorithm>
#include <stdexcept>

#include "core/access.hpp"
#include "eigenbench/params.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using votm::SplitMix64;
using votm::Xoshiro256;
using votm::core::vread;
using votm::core::vwrite;
using votm::eigen::ObjectParams;
using votm::stm::Word;

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Ops of each type per shuffled schedule block: a worker picks its next
// object at random, and every block holds both objects equally often.
constexpr unsigned kBlockPerType = 32;

inline void consume(Word value) { asm volatile("" ::"r"(value)); }

inline void run_nops(unsigned n) {
  for (unsigned i = 0; i < n; ++i) asm volatile("nop");
}

enum Action : std::uint8_t { kHotRead, kHotWrite, kMildRead, kMildWrite };

// Room for one transaction's shuffled script of shared accesses.
constexpr unsigned kMaxActions = 512;

// One Eigenbench object: its view and the arrays allocated from it.
struct Object {
  ObjectParams params;
  std::unique_ptr<votm::core::View> view;
  Word* hot = nullptr;      // params.a1 words, fully shared
  Word* mild = nullptr;     // params.a2 words, one slice per worker
  std::vector<Word*> cold;  // one private params.a3-word array per worker
  std::size_t mild_slice = 0;
  std::uint64_t expected_reads = 0;   // vread calls per committed op
  std::uint64_t expected_writes = 0;  // vwrite calls per committed op
};

struct PlainAccess {
  Word read(const Word* addr) const { return vread(addr); }
  void write(Word* addr, Word value) const { vwrite(addr, value); }
};

// Times each barrier call into the op's stamps (traced phase).
struct TimedAccess {
  ExecuteStamps& stamps;
  Word read(const Word* addr) const {
    const std::int64_t t = now_ns();
    const Word value = vread(addr);
    stamps.add_read(now_ns() - t);
    return value;
  }
  void write(Word* addr, Word value) const {
    const std::int64_t t = now_ns();
    vwrite(addr, value);
    stamps.add_write(now_ns() - t);
  }
};

// One transaction body of paper Fig. 3, as src/eigenbench/eigenbench.cpp
// runs it: a shuffled script of hot and mild accesses with cold accesses
// and NOPs between consecutive shared accesses. `seed` differs per attempt,
// so a retry draws fresh indices.
template <typename Access>
void eigen_body(const Object& ob, unsigned tid, std::uint64_t seed,
                Access access) {
  Xoshiro256 rng(seed);
  const ObjectParams& p = ob.params;
  std::uint8_t actions[kMaxActions];
  const unsigned total = p.r1 + p.w1 + p.r2 + p.w2;
  unsigned n = 0;
  for (unsigned i = 0; i < p.r1; ++i) actions[n++] = kHotRead;
  for (unsigned i = 0; i < p.w1; ++i) actions[n++] = kHotWrite;
  for (unsigned i = 0; i < p.r2; ++i) actions[n++] = kMildRead;
  for (unsigned i = 0; i < p.w2; ++i) actions[n++] = kMildWrite;
  for (unsigned i = total; i > 1; --i) {
    std::swap(actions[i - 1], actions[rng.below(i)]);
  }

  Word* cold = ob.cold[tid];
  const std::size_t mild_base = tid * ob.mild_slice;
  Word acc = 0;
  for (unsigned a = 0; a < total; ++a) {
    switch (actions[a]) {
      case kHotRead:
        acc += access.read(&ob.hot[rng.below(p.a1)]);
        break;
      case kHotWrite:
        access.write(&ob.hot[rng.below(p.a1)], rng.next());
        break;
      case kMildRead:
        acc += access.read(&ob.mild[mild_base + rng.below(ob.mild_slice)]);
        break;
      case kMildWrite:
        access.write(&ob.mild[mild_base + rng.below(ob.mild_slice)],
                     rng.next());
        break;
    }
    if (a + 1 < total) {
      for (unsigned i = 0; i < p.r3i; ++i) {
        acc += access.read(&cold[rng.below(p.a3)]);
      }
      for (unsigned i = 0; i < p.w3i; ++i) {
        access.write(&cold[rng.below(p.a3)], acc + i);
      }
      run_nops(p.nopi);
    }
  }
  consume(acc);
}

class EigenLoad final : public Workload {
 public:
  EigenLoad(votm::stm::Algo algo, std::array<unsigned, kOpTypes> quotas,
            std::uint64_t seed)
      : seed_(seed) {
    const std::array<ObjectParams, kOpTypes> params = {
        votm::eigen::paper_view1(), votm::eigen::paper_view2()};
    for (std::size_t t = 0; t < kOpTypes; ++t) {
      objects_[t] = build(params[t], algo, quotas[t]);
    }
  }

  std::array<const char*, kOpTypes> op_types() const override {
    return {"hot", "cold"};
  }
  votm::core::View& view(std::size_t type) override {
    return *objects_[type].view;
  }

  void work(WorkerLog& log, bool traced,
            const std::atomic<bool>& stop) override {
    SplitMix64 seeder(worker_seed(seed_, log.phase, log.tid));
    Xoshiro256 rng(seeder.next());
    std::vector<std::uint8_t> schedule;
    std::size_t next = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (next == schedule.size()) {
        refill(schedule, rng);
        next = 0;
      }
      const std::uint8_t type = schedule[next++];
      const std::uint64_t op_seed = seeder.next();
      const std::int64_t start = now_ns();
      try {
        if (traced) {
          traced_op(log, type, op_seed);
        } else {
          plain_op(log.tid, type, op_seed);
        }
      } catch (const std::exception& e) {
        if (log.failed++ == 0) log.error = e.what();
        continue;
      }
      log.complete_op(now_ns() - start);
      ++log.view_tx[type];
    }
  }

  void layer_metrics(const std::vector<WorkerLog>& traced,
                     std::map<std::string, double>& out) override {
    for (std::size_t t = 0; t < kOpTypes; ++t) {
      LayerTotals sum;
      for (const WorkerLog& log : traced) sum.merge(log.layers[t]);
      const std::string suffix = std::string(".") + op_types()[t];
      out["stm.read_ns" + suffix] = ratio(sum.read_ns, sum.reads);
      out["stm.write_ns" + suffix] = ratio(sum.write_ns, sum.writes);
      out["stm.reads_per_op" + suffix] = ratio(sum.committed_reads, sum.ops);
      out["stm.writes_per_op" + suffix] = ratio(sum.committed_writes, sum.ops);
    }
  }

  void describe(JsonObject& meta) const override {
    JsonObject expected;
    for (std::size_t t = 0; t < kOpTypes; ++t) {
      const std::string suffix = std::string(".") + op_types()[t];
      expected.add("reads" + suffix, objects_[t].expected_reads);
      expected.add("writes" + suffix, objects_[t].expected_writes);
    }
    meta.add("barrier_calls_per_op", expected);
    meta.add("schedule_block_per_type", kBlockPerType);
  }

 private:
  static std::uint64_t worker_seed(std::uint64_t seed, unsigned phase,
                                   unsigned tid) {
    SplitMix64 mix(seed ^ (kGolden * (phase + 1)));
    return mix.next() + tid * kGolden;
  }

  Object build(const ObjectParams& p, votm::stm::Algo algo, unsigned quota) {
    Object ob;
    ob.params = p;
    const unsigned total = p.r1 + p.w1 + p.r2 + p.w2;
    if (total == 0 || total > kMaxActions) {
      throw std::invalid_argument("Eigenbench object needs 1 to 512 shared "
                                  "accesses per transaction");
    }
    ob.expected_reads = p.r1 + p.r2 + std::uint64_t{total - 1} * p.r3i;
    ob.expected_writes = p.w1 + p.w2 + std::uint64_t{total - 1} * p.w3i;

    votm::core::ViewConfig vc;
    vc.algo = algo;
    vc.max_threads = kWorkers;
    vc.rac = votm::core::RacMode::kFixed;
    vc.fixed_quota = quota;
    // Hot, mild and one cold array per worker, with allocator headroom.
    const std::size_t words = p.a1 + p.a2 + p.a3 * kWorkers;
    vc.initial_bytes = (words + words / 4 + 4096) * sizeof(Word);
    ob.view = std::make_unique<votm::core::View>(vc);

    auto array = [&](std::size_t n) {
      auto* a = static_cast<Word*>(ob.view->alloc(n * sizeof(Word)));
      for (std::size_t i = 0; i < n; ++i) vwrite<Word>(&a[i], 0);
      return a;
    };
    ob.hot = array(p.a1);
    ob.mild = array(p.a2);
    for (unsigned t = 0; t < kWorkers; ++t) ob.cold.push_back(array(p.a3));
    ob.mild_slice = std::max<std::size_t>(1, p.a2 / kWorkers);
    return ob;
  }

  static void refill(std::vector<std::uint8_t>& schedule, Xoshiro256& rng) {
    schedule.clear();
    for (std::uint8_t t = 0; t < kOpTypes; ++t) {
      schedule.insert(schedule.end(), kBlockPerType, t);
    }
    for (std::size_t i = schedule.size(); i > 1; --i) {
      std::swap(schedule[i - 1], schedule[rng.below(i)]);
    }
  }

  void plain_op(unsigned tid, std::size_t type, std::uint64_t op_seed) {
    const Object& ob = objects_[type];
    std::uint64_t attempt = 0;
    ob.view->execute([&] {
      eigen_body(ob, tid, op_seed + attempt++ * kGolden, PlainAccess{});
    });
  }

  void traced_op(WorkerLog& log, std::size_t type, std::uint64_t op_seed) {
    const Object& ob = objects_[type];
    log.begin_traced_op();
    ExecuteStamps stamps(log.layers[type], log.spans,
                         type == 0 ? "op.hot" : "op.cold", 0);
    std::uint64_t attempt = 0;
    ob.view->execute([&] {
      stamps.begin_attempt();
      AttemptGuard guard(stamps);
      eigen_body(ob, log.tid, op_seed + attempt++ * kGolden,
                 TimedAccess{stamps});
    });
    stamps.finish();
    log.spans.end_op();
    if (stamps.attempt_reads() != ob.expected_reads ||
        stamps.attempt_writes() != ob.expected_writes) {
      ++log.count_mismatches;
    }
  }

  std::uint64_t seed_;
  std::array<Object, kOpTypes> objects_;
};

}  // namespace

std::unique_ptr<Workload> make_eigen_tm(std::uint64_t seed) {
  return std::make_unique<EigenLoad>(
      votm::stm::Algo::kNOrec,
      std::array<unsigned, kOpTypes>{kWorkers, kWorkers}, seed);
}

std::unique_ptr<Workload> make_eigen_lock(std::uint64_t seed) {
  return std::make_unique<EigenLoad>(
      votm::stm::Algo::kOrecEagerRedo,
      std::array<unsigned, kOpTypes>{1, kWorkers}, seed);
}

}  // namespace perfbench
