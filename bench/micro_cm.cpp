// Victim-choice contention-management A/B harness (stm/cm_policy.hpp,
// DESIGN.md §20) — the full {CM policy} x {RAC fixed-Q vs adaptive} x
// {1/2/4/../max threads} matrix on a skewed-hotspot workload.
//
// The workload is built so that WHO loses a conflict matters:
//
//   hotspot — every transaction does `private-ops` read-modify-writes over
//       thread-private padded lines with one RMW of a skewed hot word
//       dropped hot-point% of the way through (hot-pct% of transactions
//       hit slot 0 of a small shared array, the rest spread over its
//       tail). The mid-body hot access is the point: on the
//       encounter-locking engine (OrecEagerRedo) the hot orec is acquired
//       at the RMW and held through the rest of the body and the commit
//       tail, so on an oversubscribed host a timeslice preemption
//       anywhere in that window strands the lock while other threads run
//       into it — each discoverer has already paid hot-point% of its own
//       prefix. The baseline's answer — abort the discoverer — throws
//       that prefix away and immediately re-earns it into the same held
//       lock, an abort storm that lasts until the owner is rescheduled.
//       The victim-choice policies instead rank the parties: the
//       loser-by-priority defers (bounded wait under the winner-wait
//       rule, OS-yielding the core back toward the owner), karma
//       accumulates the discarded cycles into the next attempt's rank,
//       and the hot word serializes without burning the private work
//       over and over.
//
// Matrix dimensions:
//   * policy  — abort_self (baseline; bit-for-bit the pre-policy path),
//               abort_younger, karma, timestamp_greedy, window_greedy;
//   * rac     — fixed Q=N (admission never throttles: raw CM head-to-head)
//               vs adaptive (RAC halves Q under the abort storm; composes
//               with CM — the paper's two contention controllers stacked);
//   * threads — 1/2/4/../max. The 1-thread cells are the inertness bound:
//               a policy's only uncontended cost is the priority publish
//               at begin, and the baseline must price identically to the
//               pre-PR binary (EXPERIMENTS.md A/B).
//
// Methodology: throughput is commits
// per CPU-second (CLOCK_THREAD_CPUTIME_ID, summed over workers) so
// timeslice/steal noise on small hosts cancels — and so cycles burned
// spinning or retrying count against a variant honestly; policy variants
// of one (rac, threads) cell are interleaved in time within each repeat
// so host drift lands on all of them equally. Unlike micro_clock (fast
// path: best repeat), repeats here are POOLED (sum commits / sum cpu):
// the measured phenomenon is preemption-driven conflict storms, and
// best-of would crown whichever baseline repeat happened to dodge the
// storms. Results go to stdout and BENCH_cm.json (checked in as the
// trajectory baseline; scripts/check_bench_json.py requires it).
#include <ctime>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/access.hpp"
#include "core/view.hpp"
#include "stm/cm_policy.hpp"
#include "util/barrier.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"
#include "util/cycles.hpp"

namespace {

using namespace votm;
using stm::CmPolicy;
using stm::Word;

struct CellResult {
  std::string rac;      // "fixed" or "adaptive"
  unsigned threads;
  std::string variant;  // CM policy name
  std::uint64_t commits;
  double wall_seconds;
  double cpu_seconds;
  double tx_per_sec;  // commits / cpu_seconds
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct WorkloadParams {
  std::uint64_t txs_per_thread;
  unsigned private_lines;  // padded lines each thread's prefix rotates over
  unsigned private_ops;    // RMWs in the private prefix
  unsigned hot_slots;      // shared hot array size (each on its own line)
  unsigned hot_pct;        // % of transactions aimed at hot slot 0
  unsigned hot_point;      // % of the prefix paid before the hot RMW
  unsigned repeats;
};

struct PaddedLine {
  CacheLinePadded<Word> word;
};

// SplitMix64; per-thread streams make the hot-slot choice deterministic
// per (tid, tx) and identical across every variant of a cell.
std::uint64_t mix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

CellResult run_cell(core::RacMode rac, const char* rac_name, CmPolicy policy,
                    unsigned threads, const WorkloadParams& p) {
  core::ViewConfig vc;
  vc.algo = stm::Algo::kOrecEagerRedo;
  vc.max_threads = threads;
  vc.rac = rac;
  vc.fixed_quota = threads;  // fixed = Q pinned at N: admission inert
  vc.initial_bytes = std::size_t{1} << 22;
  vc.backoff = BackoffPolicy::kNone;  // paper default: CM, not pacing
  vc.engine.cm_policy = policy;
  core::View view(vc);

  auto* hot = static_cast<PaddedLine*>(
      view.alloc(p.hot_slots * sizeof(PaddedLine)));
  std::vector<PaddedLine*> priv(threads);
  for (unsigned t = 0; t < threads; ++t) {
    priv[t] = static_cast<PaddedLine*>(
        view.alloc(p.private_lines * sizeof(PaddedLine)));
  }
  view.execute([&] {
    for (unsigned i = 0; i < p.hot_slots; ++i) {
      core::vwrite<Word>(&hot[i].word.value, 0);
    }
    for (unsigned t = 0; t < threads; ++t) {
      for (unsigned i = 0; i < p.private_lines; ++i) {
        core::vwrite<Word>(&priv[t][i].word.value, 0);
      }
    }
  });

  StartBarrier barrier(threads + 1);
  std::vector<std::uint64_t> start_cycles(threads, 0);
  std::vector<std::uint64_t> end_cycles(threads, 0);
  std::vector<double> cpu_seconds(threads, 0.0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      barrier.arrive_and_wait();
      const double cpu0 = thread_cpu_seconds();
      start_cycles[t] = rdcycles();
      std::uint64_t rng = 0x5ca1ab1e0000ull + t;
      PaddedLine* mine = priv[t];
      for (std::uint64_t i = 0; i < p.txs_per_thread; ++i) {
        const std::uint64_t r = mix(rng);
        // Skewed hot-slot choice, drawn per LOGICAL transaction so every
        // retry fights for the same word (and every policy variant sees
        // the same access stream).
        const unsigned slot =
            (r % 100) < p.hot_pct
                ? 0
                : 1 + static_cast<unsigned>((r / 100) %
                                            (p.hot_slots - 1));
        // hot-point% of the prefix is sunk cost at the hot RMW; the rest
        // runs with the hot orec already held (eager locking), widening
        // the conflict window from a commit tail to most of the body.
        const unsigned before = p.private_ops * p.hot_point / 100;
        view.execute([&] {
          for (unsigned k = 0; k < before; ++k) {
            Word* w = &mine[(i + k) % p.private_lines].word.value;
            core::vwrite<Word>(w, core::vread<Word>(w) + 1);
          }
          Word* h = &hot[slot].word.value;
          core::vwrite<Word>(h, core::vread<Word>(h) + 1);
          for (unsigned k = before; k < p.private_ops; ++k) {
            Word* w = &mine[(i + k) % p.private_lines].word.value;
            core::vwrite<Word>(w, core::vread<Word>(w) + 1);
          }
        });
      }
      end_cycles[t] = rdcycles();
      cpu_seconds[t] = thread_cpu_seconds() - cpu0;
      barrier.arrive_and_wait();
    });
  }
  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& th : pool) th.join();

  std::uint64_t first_start = start_cycles[0];
  std::uint64_t last_end = end_cycles[0];
  double cpu_total = cpu_seconds[0];
  for (unsigned t = 1; t < threads; ++t) {
    first_start = std::min(first_start, start_cycles[t]);
    last_end = std::max(last_end, end_cycles[t]);
    cpu_total += cpu_seconds[t];
  }

  CellResult r;
  r.rac = rac_name;
  r.threads = threads;
  r.variant = stm::to_string(policy);
  r.commits = p.txs_per_thread * threads;
  r.wall_seconds = last_end > first_start
                       ? static_cast<double>(last_end - first_start) /
                             cycles_per_second()
                       : 0.0;
  r.cpu_seconds = cpu_total;
  r.tx_per_sec =
      r.cpu_seconds > 0 ? static_cast<double>(r.commits) / r.cpu_seconds : 0.0;
  return r;
}

const CellResult* find(const std::vector<CellResult>& rs,
                       const std::string& rac, unsigned threads,
                       const std::string& variant) {
  for (const CellResult& r : rs) {
    if (r.rac == rac && r.threads == threads && r.variant == variant) {
      return &r;
    }
  }
  return nullptr;
}

void print_row(const CellResult& r) {
  std::printf("%-9s %8u %17s %10llu %10.4f %10.4f %14.0f\n", r.rac.c_str(),
              r.threads, r.variant.c_str(),
              static_cast<unsigned long long>(r.commits), r.wall_seconds,
              r.cpu_seconds, r.tx_per_sec);
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const WorkloadParams& p) {
  std::ofstream out(path);
  char buf[320];
  out << "{\n  \"bench\": \"micro_cm\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"hardware_concurrency\": %u,\n  \"cycles_per_second\": %.6g,\n"
      "  \"txs_per_thread\": %llu,\n  \"private_ops\": %u,\n"
      "  \"hot_slots\": %u,\n  \"hot_pct\": %u,\n  \"hot_point\": %u,\n"
      "  \"repeats\": %u,\n"
      "  \"results\": [\n",
      std::thread::hardware_concurrency(), cycles_per_second(),
      static_cast<unsigned long long>(p.txs_per_thread), p.private_ops,
      p.hot_slots, p.hot_pct, p.hot_point, p.repeats);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"rac\": \"%s\", \"threads\": %u, "
                  "\"variant\": \"%s\", \"commits\": %llu, "
                  "\"wall_seconds\": %.6g, \"cpu_seconds\": %.6g, "
                  "\"tx_per_cpu_sec\": %.6g}%s\n",
                  r.rac.c_str(), r.threads, r.variant.c_str(),
                  static_cast<unsigned long long>(r.commits), r.wall_seconds,
                  r.cpu_seconds, r.tx_per_sec, i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedups_vs_abort_self\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (r.variant == "abort_self") continue;
    const CellResult* base = find(rs, r.rac, r.threads, "abort_self");
    if (base == nullptr || base->tx_per_sec <= 0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %s{\"rac\": \"%s\", \"threads\": %u, "
                  "\"policy\": \"%s\", \"speedup\": %.4g}\n",
                  first ? "" : ",", r.rac.c_str(), r.threads,
                  r.variant.c_str(), r.tx_per_sec / base->tx_per_sec);
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Victim-choice CM microbench: {policy} x {fixed-Q, adaptive RAC} x "
      "{1/2/4/..max threads} on a skewed-hotspot workload with a mid-body "
      "hot RMW inside a private prefix.");
  flags
      .flag("threads", "8", "max thread count (cells run at 1/2/4/..max)")
      .flag("txs", "20000", "transactions per thread per cell")
      .flag("private-ops", "256",
            "RMWs in the private prefix each transaction pays before the "
            "hot access (the work an abort throws away)")
      .flag("private-lines", "16", "padded lines the prefix rotates over")
      .flag("hot-slots", "8", "shared hot array size (one line per slot)")
      .flag("hot-pct", "85", "% of transactions aimed at hot slot 0")
      .flag("hot-point", "50",
            "% of the prefix paid before the hot RMW; the rest of the "
            "body runs with the hot orec held (the conflict window)")
      .flag("repeats", "3",
            "runs per cell; commits and cpu-seconds are pooled across "
            "repeats (contention is bursty; best-of would dodge it)")
      .flag("out", "BENCH_cm.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  WorkloadParams p;
  const unsigned max_threads =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("threads")));
  p.txs_per_thread = static_cast<std::uint64_t>(flags.i64("txs"));
  p.private_ops = static_cast<unsigned>(
      std::max<std::int64_t>(0, flags.i64("private-ops")));
  p.private_lines = static_cast<unsigned>(
      std::max<std::int64_t>(1, flags.i64("private-lines")));
  p.hot_slots = static_cast<unsigned>(
      std::max<std::int64_t>(2, flags.i64("hot-slots")));
  p.hot_pct = static_cast<unsigned>(std::min<std::int64_t>(
      100, std::max<std::int64_t>(0, flags.i64("hot-pct"))));
  p.hot_point = static_cast<unsigned>(std::min<std::int64_t>(
      100, std::max<std::int64_t>(0, flags.i64("hot-point"))));
  p.repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  if (flags.boolean("smoke")) {
    p.txs_per_thread = std::min<std::uint64_t>(p.txs_per_thread, 100);
    p.repeats = 1;
  }

  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) thread_counts.push_back(max_threads);

  constexpr CmPolicy kPolicies[] = {
      CmPolicy::kAbortSelf, CmPolicy::kAbortYounger, CmPolicy::kKarma,
      CmPolicy::kTimestampGreedy, CmPolicy::kWindowGreedy};
  constexpr int kNumPolicies =
      static_cast<int>(sizeof(kPolicies) / sizeof(kPolicies[0]));
  struct RacVariant {
    core::RacMode mode;
    const char* name;
  };
  const RacVariant racs[] = {{core::RacMode::kFixed, "fixed"},
                             {core::RacMode::kAdaptive, "adaptive"}};

  std::vector<CellResult> results;
  std::printf("%-9s %8s %17s %10s %10s %10s %14s\n", "rac", "threads",
              "policy", "commits", "wall_s", "cpu_s", "tx/cpu_sec");
  for (const RacVariant& rac : racs) {
    for (unsigned t : thread_counts) {
      CellResult pooled[kNumPolicies];
      for (unsigned rep = 0; rep < p.repeats; ++rep) {
        for (int pi = 0; pi < kNumPolicies; ++pi) {
          CellResult r = run_cell(rac.mode, rac.name, kPolicies[pi], t, p);
          if (rep == 0) {
            pooled[pi] = r;
          } else {
            pooled[pi].commits += r.commits;
            pooled[pi].wall_seconds += r.wall_seconds;
            pooled[pi].cpu_seconds += r.cpu_seconds;
          }
        }
      }
      for (int pi = 0; pi < kNumPolicies; ++pi) {
        pooled[pi].tx_per_sec =
            pooled[pi].cpu_seconds > 0
                ? static_cast<double>(pooled[pi].commits) /
                      pooled[pi].cpu_seconds
                : 0.0;
        results.push_back(pooled[pi]);
        print_row(pooled[pi]);
      }
    }
  }

  std::printf("\nspeedup vs abort_self:\n");
  for (const CellResult& r : results) {
    if (r.variant == "abort_self") continue;
    const CellResult* base = find(results, r.rac, r.threads, "abort_self");
    if (base == nullptr || base->tx_per_sec <= 0) continue;
    std::printf("  rac=%-8s threads=%u %s: %.2fx\n", r.rac.c_str(), r.threads,
                r.variant.c_str(), r.tx_per_sec / base->tx_per_sec);
  }

  write_json(flags.str("out"), results, p);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
