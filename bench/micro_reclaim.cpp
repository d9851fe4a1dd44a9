// Grace-period reclamation A/B harness (stm/epoch.hpp, DESIGN.md §17):
// insert/erase churn over the transactional hash map, fixed pre-sized
// table vs dynamic grow-under-load.
//
// Workload (churn): every thread runs a put/erase mix over a bounded key
// space through TxHashMap's standalone entry points, so erases retire
// node blocks through the commit-time limbo list and (in the dynamic
// variant) growth transactions retire whole bucket tables. The "fixed"
// variant pre-sizes the table to the key space — the pre-PR shape, no
// growth ever triggers; the "dynamic" variant starts at the minimum
// bucket count and must grow under full concurrent traffic. The ratio
// therefore prices exactly what the epoch layer unlocked: table swaps
// and node frees racing live readers, reclaimed only past the
// quiescence horizon.
//
// Reported per cell besides throughput: the limbo-depth high-water mark
// (how much memory sat in the grace period at the worst moment), the
// retired/reclaimed conservation pair, reclaim pass counts, and the
// final bucket count (dynamic cells must end above the minimum, or the
// run measured nothing).
//
// Methodology: throughput is ops per worker CPU-second
// (CLOCK_THREAD_CPUTIME_ID, summed across workers), fixed/dynamic
// variants are interleaved inside each repeat so host drift lands on
// both equally, and the best repeat per variant is reported. Results go to stdout and BENCH_reclaim.json (checked in as
// the trajectory baseline, validated by scripts/check_bench_json.py).
#include <ctime>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "containers/tx_hash_map.hpp"
#include "core/view.hpp"
#include "util/barrier.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace votm;
using stm::Word;

struct CellResult {
  std::string engine;
  unsigned threads;
  std::string variant;  // "fixed" / "dynamic"
  std::uint64_t ops;
  std::uint64_t retired;
  std::uint64_t reclaimed;
  std::uint64_t passes;
  std::size_t limbo_hwm;
  std::size_t final_buckets;
  double worker_cpu_seconds;
  double ops_per_cpu_sec;
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Params {
  std::uint64_t ops_per_thread;
  Word key_space;
  std::size_t reclaim_threshold;
  unsigned repeats;
};

CellResult run_cell(stm::Algo algo, bool dynamic, unsigned threads,
                    const Params& p) {
  core::ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = threads;
  vc.initial_bytes = std::size_t{1} << 22;
  vc.reclaim_threshold = p.reclaim_threshold;
  core::View view(vc);
  // Fixed: pre-sized to the key space, the pre-PR shape (chains stay
  // short, growth never fires). Dynamic: the minimum, grown under load.
  containers::TxHashMap map(
      view, dynamic ? containers::TxHashMap::kMinBuckets
                    : static_cast<std::size_t>(p.key_space));

  CellResult r;
  r.engine = stm::to_string(algo);
  r.threads = threads;
  r.variant = dynamic ? "dynamic" : "fixed";
  r.ops = p.ops_per_thread * threads;

  std::atomic<std::uint64_t> cpu_ns{0};
  StartBarrier barrier(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(0xC0FFEEu * (t + 1) + 17);
      barrier.arrive_and_wait();
      const double cpu0 = thread_cpu_seconds();
      for (std::uint64_t i = 0; i < p.ops_per_thread; ++i) {
        const Word key = 1 + rng.below(p.key_space);
        if (rng.chance(3, 5)) {
          map.put(key, key * 2 + 1);
        } else {
          map.erase(key);  // commit-time retire through the limbo list
        }
      }
      const double used = thread_cpu_seconds() - cpu0;
      cpu_ns.fetch_add(static_cast<std::uint64_t>(used * 1e9),
                       std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();

  map.maybe_grow();        // apply any trailing growth hint
  view.reclaim_garbage();  // drain limbo so conservation is checkable

  const stm::ReclaimStats rs = view.reclaim_stats();
  r.retired = rs.retired;
  r.reclaimed = rs.reclaimed;
  r.passes = rs.passes;
  r.limbo_hwm = rs.depth_hwm;
  r.final_buckets = map.bucket_count();
  r.worker_cpu_seconds = static_cast<double>(cpu_ns.load()) * 1e-9;
  r.ops_per_cpu_sec = r.worker_cpu_seconds > 0
                          ? static_cast<double>(r.ops) / r.worker_cpu_seconds
                          : 0.0;
  return r;
}

const CellResult* find(const std::vector<CellResult>& rs,
                       const std::string& engine, unsigned threads,
                       const std::string& variant) {
  for (const CellResult& r : rs) {
    if (r.engine == engine && r.threads == threads && r.variant == variant) {
      return &r;
    }
  }
  return nullptr;
}

void print_row(const CellResult& r) {
  std::printf("%-14s %8u %8s %10llu %9llu %9llu %7llu %9zu %8zu %9.4f %14.0f\n",
              r.engine.c_str(), r.threads, r.variant.c_str(),
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.retired),
              static_cast<unsigned long long>(r.reclaimed),
              static_cast<unsigned long long>(r.passes), r.limbo_hwm,
              r.final_buckets, r.worker_cpu_seconds, r.ops_per_cpu_sec);
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const Params& p) {
  std::ofstream out(path);
  char buf[384];
  out << "{\n  \"bench\": \"micro_reclaim\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"hardware_concurrency\": %u,\n  \"ops_per_thread\": %llu,\n"
      "  \"key_space\": %llu,\n  \"reclaim_threshold\": %zu,\n"
      "  \"repeats\": %u,\n  \"results\": [\n",
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(p.ops_per_thread),
      static_cast<unsigned long long>(p.key_space), p.reclaim_threshold,
      p.repeats);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"workload\": \"churn\", \"engine\": \"%s\", \"threads\": %u, "
        "\"variant\": \"%s\", \"ops\": %llu, \"retired\": %llu, "
        "\"reclaimed\": %llu, \"passes\": %llu, \"limbo_depth_hwm\": %zu, "
        "\"final_buckets\": %zu, \"worker_cpu_seconds\": %.6g, "
        "\"ops_per_cpu_sec\": %.6g}%s\n",
        r.engine.c_str(), r.threads, r.variant.c_str(),
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.retired),
        static_cast<unsigned long long>(r.reclaimed),
        static_cast<unsigned long long>(r.passes), r.limbo_hwm,
        r.final_buckets, r.worker_cpu_seconds, r.ops_per_cpu_sec,
        i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"dynamic_vs_fixed\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (r.variant != "dynamic") continue;
    const CellResult* base = find(rs, r.engine, r.threads, "fixed");
    if (base == nullptr || base->ops_per_cpu_sec <= 0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %s{\"engine\": \"%s\", \"threads\": %u, "
                  "\"ratio\": %.4g, \"limbo_hwm_dynamic\": %zu, "
                  "\"limbo_hwm_fixed\": %zu}\n",
                  first ? "" : ",", r.engine.c_str(), r.threads,
                  r.ops_per_cpu_sec / base->ops_per_cpu_sec, r.limbo_hwm,
                  base->limbo_hwm);
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Grace-period reclamation A/B microbench: insert/erase churn over "
      "the transactional hash map, fixed pre-sized table vs dynamic "
      "grow-under-load through the epoch layer.");
  flags
      .flag("threads", "8", "max thread count (cells run at 2/4/..max)")
      .flag("ops", "20000", "put/erase operations per thread per cell")
      .flag("key-space", "256", "distinct keys (also the fixed table size)")
      .flag("reclaim-threshold", "64",
            "limbo depth that triggers an amortized reclaim pass "
            "(ViewConfig::reclaim_threshold)")
      .flag("repeats", "5", "runs per cell; best throughput reported")
      .flag("engines", "oer,norec",
            "comma list: oer (OrecEagerRedo), lazy, undo, norec")
      .flag("out", "BENCH_reclaim.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  Params p;
  const unsigned max_threads =
      static_cast<unsigned>(std::max<std::int64_t>(2, flags.i64("threads")));
  p.ops_per_thread = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, flags.i64("ops")));
  p.key_space = static_cast<Word>(
      std::max<std::int64_t>(2, flags.i64("key-space")));
  p.reclaim_threshold =
      static_cast<std::size_t>(std::max<std::int64_t>(0, flags.i64("reclaim-threshold")));
  p.repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  if (flags.boolean("smoke")) {
    p.ops_per_thread = std::min<std::uint64_t>(p.ops_per_thread, 500);
    p.repeats = 1;
  }

  std::vector<stm::Algo> algos;
  {
    const std::string list = flags.str("engines");
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string name =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!name.empty()) algos.push_back(stm::algo_from_string(name));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  std::vector<unsigned> thread_counts;
  for (unsigned t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.empty() || thread_counts.back() != max_threads) {
    thread_counts.push_back(max_threads);
  }

  std::vector<CellResult> results;
  std::printf("%-14s %8s %8s %10s %9s %9s %7s %9s %8s %9s %14s\n", "engine",
              "threads", "table", "ops", "retired", "reclaimed", "passes",
              "limbo_hwm", "buckets", "cpu_s", "ops/cpu_sec");
  for (stm::Algo algo : algos) {
    for (unsigned t : thread_counts) {
      CellResult best[2];
      for (unsigned rep = 0; rep < p.repeats; ++rep) {
        // Interleave fixed/dynamic inside each repeat (see header).
        for (int v = 0; v < 2; ++v) {
          CellResult r = run_cell(algo, v == 1, t, p);
          if (rep == 0 || r.ops_per_cpu_sec > best[v].ops_per_cpu_sec) {
            best[v] = r;
          }
        }
      }
      for (int v = 0; v < 2; ++v) {
        results.push_back(best[v]);
        print_row(best[v]);
      }
    }
  }

  std::printf("\nchurn throughput, dynamic vs fixed table:\n");
  for (const CellResult& r : results) {
    if (r.variant != "dynamic") continue;
    const CellResult* base = find(results, r.engine, r.threads, "fixed");
    if (base == nullptr || base->ops_per_cpu_sec <= 0) continue;
    std::printf("  %s threads=%u: %.2fx (limbo hwm %zu vs %zu, "
                "grew to %zu buckets)\n",
                r.engine.c_str(), r.threads,
                r.ops_per_cpu_sec / base->ops_per_cpu_sec, r.limbo_hwm,
                base->limbo_hwm, r.final_buckets);
  }

  write_json(flags.str("out"), results, p);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
