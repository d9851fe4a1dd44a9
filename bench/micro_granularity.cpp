// A/B harness for the orec-table metadata knobs (stm/orec_table.hpp):
// stripe granularity x clock policy, against the default (word stripes,
// GV1) on the default packed table.
//
// Cells:
//   seq_scan     — spatially local transactions: each reads a contiguous
//                  span of shared never-written words and commits one
//                  thread-private write. This is the shape coarse stripes
//                  exist for: at g6 (cache-line stripes) eight consecutive
//                  reads land on ONE orec, the read log's adjacent-
//                  duplicate check collapses them, and every validation
//                  scan — commit-time revalidation against the peers'
//                  clock ticks, and timestamp extensions — walks 1/8 the
//                  entries that word stripes (g3) force. The win is pure
//                  single-core computation (shorter scans, fewer log
//                  pushes), so it survives the 1-CPU reference host.
//                  Run at 1 thread (knob overhead must be in the noise —
//                  with no concurrent commits there is nothing to
//                  revalidate) and the full thread count (where peer
//                  commits make every writer commit revalidate).
//   neighbor_rw  — the deliberate worst case, reported honestly: each
//                  thread read-modify-writes its OWN word, but the words
//                  are adjacent in one cache line. At g3 distinct words
//                  hash to distinct stripes and threads never conflict; at
//                  g6 all eight words share a stripe, every encounter-time
//                  lock collides, and throughput collapses into abort-
//                  retry. Coarse granularity is a bet on spatial locality
//                  ALIGNING with the sharing pattern — this cell prices
//                  the bet going wrong.
//
// Variants name the knob pair "g<shift>+<policy>"; the default is g3+gv1.
//
// Methodology follows bench/micro_validation.cpp: throughput is commits
// per CPU-second (CLOCK_THREAD_CPUTIME_ID summed over workers) so
// timeslice noise on small hosts cancels; each repeat runs ALL variants of
// a cell back-to-back so host drift lands on every variant equally; the
// best repeat per variant is reported. Results go to stdout and
// BENCH_granularity.json (checked in as the trajectory baseline).
#include <ctime>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "stm/clock.hpp"
#include "stm/orec_eager_redo.hpp"
#include "stm/orec_table.hpp"
#include "util/barrier.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"
#include "util/cycles.hpp"

namespace {

using namespace votm;
using stm::ClockPolicy;
using stm::Word;

// One knob tuple under test.
struct Variant {
  const char* name;  // "g3+gv1" etc.; kVariants[0] is the default
  unsigned granularity_shift;
  ClockPolicy policy;
};

constexpr Variant kVariants[] = {
    // The default: every ratio is vs this row.
    {"g3+gv1", 3, ClockPolicy::kGv1},
    {"g6+gv1", 6, ClockPolicy::kGv1},
    {"g7+gv1", 7, ClockPolicy::kGv1},
    {"g6+gv6", 6, ClockPolicy::kGv6},
    {"g3+gv6", 3, ClockPolicy::kGv6},
};
constexpr unsigned kNumVariants = sizeof(kVariants) / sizeof(kVariants[0]);

struct CellResult {
  std::string workload;
  unsigned threads;
  std::string variant;
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
  std::uint64_t scan_txs;      // seq_scan transactions per thread
  unsigned span_words;         // consecutive shared words per scan
  std::uint64_t neighbor_txs;  // neighbor_rw transactions per thread
  unsigned neighbor_rmws;      // RMWs per neighbor_rw transaction
  unsigned yield_every;        // in-tx yield cadence (0 = never)
  unsigned repeats;
};

template <typename WorkerBody>
CellResult run_span(const std::string& workload, unsigned threads,
                    const std::string& variant, std::uint64_t txs_per_thread,
                    WorkerBody&& body) {
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
      body(t);
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
  r.workload = workload;
  r.threads = threads;
  r.variant = variant;
  r.commits = txs_per_thread * threads;
  r.wall_seconds = last_end > first_start
                       ? static_cast<double>(last_end - first_start) /
                             cycles_per_second()
                       : 0.0;
  r.cpu_seconds = cpu_total;
  r.tx_per_sec =
      r.cpu_seconds > 0 ? static_cast<double>(r.commits) / r.cpu_seconds : 0.0;
  return r;
}

stm::OrecTableConfig table_config(const Variant& v) {
  stm::OrecTableConfig cfg;
  cfg.granularity_shift = v.granularity_shift;
  return cfg;
}

// Spatially local read span + one private write per transaction. The span
// is contiguous, so the number of DISTINCT orecs a transaction touches is
// span_words / 2^(shift-3): that factor is exactly what the read-log push
// path (adjacent-duplicate collapse), the commit-time revalidation scan
// and every timestamp-extension scan are multiplied by.
CellResult run_seq_scan(const Variant& v, unsigned threads,
                        const WorkloadParams& p) {
  stm::OrecEagerRedoEngine engine(table_config(v), v.policy);
  std::vector<Word> shared(p.span_words, 1);
  std::vector<Word> privates(threads * 8, 0);
  return run_span(
      "seq_scan", threads, v.name, p.scan_txs, [&](unsigned tid) {
        stm::TxThread tx;
        tx.collect_cycles = false;
        Word sink = 0;
        for (std::uint64_t i = 0; i < p.scan_txs; ++i) {
          stm::atomically(engine, tx, [&](stm::TxThread& t) {
            Word sum = 0;
            for (unsigned r = 0; r < p.span_words; ++r) {
              sum += engine.read(t, &shared[r]);
              if (p.yield_every != 0 && threads > 1 &&
                  (r + 1) % p.yield_every == 0) {
                std::this_thread::yield();
              }
            }
            engine.write(t, &privates[tid * 8], sum + i);
          });
          sink += privates[tid * 8];
        }
        if (sink == 0xDEAD) std::printf("!");
      });
}

// Adjacent-word RMWs, one word per thread inside ONE cache line: disjoint
// at word stripes, a single contended stripe at cache-line stripes. The
// knob's honest downside — run only at the contended thread count (at one
// thread there is nobody to falsely conflict with).
CellResult run_neighbor_rw(const Variant& v, unsigned threads,
                           const WorkloadParams& p) {
  stm::OrecEagerRedoEngine engine(table_config(v), v.policy);
  // One 64-byte line of adjacent Words; thread t owns block[t % 8].
  struct alignas(64) Line {
    Word words[8];
  };
  auto line = std::make_unique<Line>();
  for (Word& w : line->words) w = 0;
  return run_span(
      "neighbor_rw", threads, v.name, p.neighbor_txs, [&](unsigned tid) {
        stm::TxThread tx;
        tx.collect_cycles = false;
        Word* mine = &line->words[tid % 8];
        Word sink = 0;
        for (std::uint64_t i = 0; i < p.neighbor_txs; ++i) {
          stm::atomically(engine, tx, [&](stm::TxThread& t) {
            for (unsigned r = 0; r < p.neighbor_rmws; ++r) {
              engine.write(t, mine, engine.read(t, mine) + 1);
            }
          });
          if (p.yield_every != 0 && threads > 1 &&
              i % p.yield_every == 0) {
            std::this_thread::yield();
          }
          sink += i;
        }
        if (sink == 0xDEAD) std::printf("!");
      });
}

// Best-of-repeats with the variants interleaved in time: repeat r runs
// every variant once, back to back, so frequency/steal drift lands on all
// variants rather than biasing whichever ran last.
template <typename Runner>
void best_of_variants(unsigned repeats, const std::vector<unsigned>& picks,
                      std::vector<CellResult>& out, Runner&& runner) {
  std::vector<CellResult> best;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    for (std::size_t i = 0; i < picks.size(); ++i) {
      CellResult r = runner(kVariants[picks[i]]);
      if (rep == 0) {
        best.push_back(r);
      } else if (r.tx_per_sec > best[i].tx_per_sec) {
        best[i] = r;
      }
    }
  }
  for (CellResult& r : best) out.push_back(std::move(r));
}

const CellResult* find(const std::vector<CellResult>& rs,
                       const std::string& workload, unsigned threads,
                       const std::string& variant) {
  for (const CellResult& r : rs) {
    if (r.workload == workload && r.threads == threads &&
        r.variant == variant) {
      return &r;
    }
  }
  return nullptr;
}

void print_row(const CellResult& r) {
  std::printf("%-12s %8u %-16s %10llu %10.4f %10.4f %14.0f\n",
              r.workload.c_str(), r.threads, r.variant.c_str(),
              static_cast<unsigned long long>(r.commits), r.wall_seconds,
              r.cpu_seconds, r.tx_per_sec);
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const WorkloadParams& p) {
  std::ofstream out(path);
  char buf[320];
  out << "{\n  \"bench\": \"micro_granularity\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"hardware_concurrency\": %u,\n"
      "  \"cycles_per_second\": %.6g,\n  \"scan_txs\": %llu,\n"
      "  \"span_words\": %u,\n  \"neighbor_txs\": %llu,\n"
      "  \"neighbor_rmws\": %u,\n  \"yield_every\": %u,\n"
      "  \"repeats\": %u,\n  \"results\": [\n",
      std::thread::hardware_concurrency(),
      cycles_per_second(), static_cast<unsigned long long>(p.scan_txs),
      p.span_words, static_cast<unsigned long long>(p.neighbor_txs),
      p.neighbor_rmws, p.yield_every, p.repeats);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\": \"%s\", \"threads\": %u, "
                  "\"variant\": \"%s\", \"commits\": %llu, "
                  "\"wall_seconds\": %.6g, \"cpu_seconds\": %.6g, "
                  "\"tx_per_cpu_sec\": %.6g}%s\n",
                  r.workload.c_str(), r.threads, r.variant.c_str(),
                  static_cast<unsigned long long>(r.commits), r.wall_seconds,
                  r.cpu_seconds, r.tx_per_sec, i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedups_vs_default\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (r.variant == kVariants[0].name) continue;
    const CellResult* base =
        find(rs, r.workload, r.threads, kVariants[0].name);
    if (base == nullptr || base->tx_per_sec <= 0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %s{\"workload\": \"%s\", \"threads\": %u, "
                  "\"variant\": \"%s\", \"speedup\": %.4g}\n",
                  first ? "" : ",", r.workload.c_str(), r.threads,
                  r.variant.c_str(), r.tx_per_sec / base->tx_per_sec);
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Orec-table metadata A/B microbench: stripe granularity x clock "
      "policy vs the g3+gv1 default.");
  flags
      .flag("threads", "8", "contended thread count (seq_scan also runs at 1)")
      .flag("scan-txs", "400", "seq_scan transactions per thread")
      .flag("span", "2048",
            "consecutive shared words per seq_scan transaction (16 KiB; the "
            "read-log and validation-scan length at g3, 1/8 of it at g6)")
      .flag("neighbor-txs", "4000", "neighbor_rw transactions per thread")
      .flag("neighbor-rmws", "4", "RMWs per neighbor_rw transaction")
      .flag("yield-every", "256",
            "in-tx yield cadence; keeps transactions overlapping on small "
            "hosts so peer commits actually force revalidation (0 disables)")
      .flag("repeats", "5", "runs per cell; the fastest is reported")
      .flag("out", "BENCH_granularity.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  WorkloadParams p;
  const unsigned threads =
      static_cast<unsigned>(std::max<std::int64_t>(2, flags.i64("threads")));
  p.scan_txs = static_cast<std::uint64_t>(flags.i64("scan-txs"));
  p.span_words =
      static_cast<unsigned>(std::max<std::int64_t>(8, flags.i64("span")));
  p.neighbor_txs = static_cast<std::uint64_t>(flags.i64("neighbor-txs"));
  p.neighbor_rmws =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("neighbor-rmws")));
  p.yield_every = static_cast<unsigned>(flags.i64("yield-every"));
  p.repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  if (flags.boolean("smoke")) {
    p.scan_txs = std::min<std::uint64_t>(p.scan_txs, 8);
    p.span_words = std::min(p.span_words, 256u);
    p.neighbor_txs = std::min<std::uint64_t>(p.neighbor_txs, 50);
    p.repeats = 1;
  }

  std::vector<unsigned> all_variants;
  for (unsigned i = 0; i < kNumVariants; ++i) all_variants.push_back(i);
  // neighbor_rw only needs the default vs stripe sharing: the clock-policy
  // variants add nothing to the false-conflict story.
  std::vector<unsigned> neighbor_variants;
  for (unsigned i = 0; i < kNumVariants; ++i) {
    const std::string name = kVariants[i].name;
    if (name == "g3+gv1" || name == "g6+gv1") neighbor_variants.push_back(i);
  }

  std::vector<CellResult> results;
  std::printf("%-12s %8s %-16s %10s %10s %10s %14s\n", "workload", "threads",
              "variant", "commits", "wall_s", "cpu_s", "tx/cpu_sec");
  for (unsigned t : {1u, threads}) {
    std::vector<CellResult> cell;
    best_of_variants(p.repeats, all_variants, cell,
                     [&](const Variant& v) { return run_seq_scan(v, t, p); });
    for (CellResult& r : cell) {
      print_row(r);
      results.push_back(std::move(r));
    }
  }
  {
    std::vector<CellResult> cell;
    best_of_variants(
        p.repeats, neighbor_variants, cell,
        [&](const Variant& v) { return run_neighbor_rw(v, threads, p); });
    for (CellResult& r : cell) {
      print_row(r);
      results.push_back(std::move(r));
    }
  }

  std::printf("\nspeedup (variant / %s):\n", kVariants[0].name);
  for (const CellResult& r : results) {
    if (r.variant == kVariants[0].name) continue;
    const CellResult* base =
        find(results, r.workload, r.threads, kVariants[0].name);
    if (base == nullptr || base->tx_per_sec <= 0) continue;
    std::printf("  %-12s threads=%u %-16s: %.2fx\n", r.workload.c_str(),
                r.threads, r.variant.c_str(), r.tx_per_sec / base->tx_per_sec);
  }

  write_json(flags.str("out"), results, p);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
