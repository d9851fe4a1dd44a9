// What the benchmark's main program needs from a workload: a closed-loop
// worker body, output checks and the library's own counters, read back
// through View's public getters once the timed phases are over.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/view.hpp"
#include "json.hpp"
#include "latency.hpp"
#include "trace.hpp"

namespace perfbench {

// N: worker threads in the timed phase and ViewConfig::max_threads.
constexpr unsigned kWorkers = 4;

// Every workload runs two op types, each on its own view.
constexpr std::size_t kOpTypes = 2;

// total / count, or 0 when nothing was counted.
inline double ratio(double total, double count) {
  return count == 0.0 ? 0.0 : total / count;
}

// What one worker leaves behind after a timed phase.
struct WorkerLog {
  unsigned tid = 0;
  unsigned phase = 0;        // timed phase index; seeds the worker's RNGs
  std::uint64_t ops = 0;     // ops completed
  std::uint64_t failed = 0;  // ops that did not complete
  std::string error;         // first failure, if any
  // Per-op latency in ns, one histogram per measurement window of the
  // phase plus one for ops that end after the last window.
  std::vector<LatencyHistogram> latency;
  // Set by the phase runner: the current window, and where this worker
  // publishes its completed-op count for the window samples.
  const std::atomic<unsigned>* window = nullptr;
  std::atomic<std::uint64_t>* progress = nullptr;
  // Transactions that returned from View::execute, per view.
  std::array<std::uint64_t, kOpTypes> view_tx{};
  // Traced phase only.
  std::array<LayerTotals, kOpTypes> layers{};
  std::uint64_t outside_calls = 0, outside_ns = 0;  // Intruder scan
  // Traced committed ops whose barrier calls differ from what the
  // workload's parameters imply (Eigenbench's exact-count check).
  std::uint64_t count_mismatches = 0;
  SpanLog spans;

  // Starts span sampling for the op about to run (traced phase).
  void begin_traced_op() {
    spans.begin_op((std::uint64_t{tid} << 40) | (ops + failed));
  }

  void complete_op(std::int64_t latency_ns) {
    const unsigned w = window->load(std::memory_order_relaxed);
    latency[std::min<std::size_t>(w, latency.size() - 1)].record(
        static_cast<std::uint64_t>(latency_ns));
    progress->store(++ops, std::memory_order_relaxed);
  }
};

// Output-check verdicts. Any failure counts every op of the run as failed.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Names of the two op types, used as per-layer metric suffixes.
  virtual std::array<const char*, kOpTypes> op_types() const = 0;
  virtual votm::core::View& view(std::size_t type) = 0;

  // One worker's closed loop: issue the next op when the previous one
  // returns until `stop` is seen (between ops, or at an Intruder pass
  // boundary).
  virtual void work(WorkerLog& log, bool traced,
                    const std::atomic<bool>& stop) = 0;

  // Workload-specific output checks once every phase is over. The main
  // program checks what all workloads share: failed ops, commits against
  // transactions issued, fixed quotas and exact barrier counts.
  virtual void check(Checks&) {}

  // Workload-specific per-layer metrics of the traced phase.
  virtual void layer_metrics(const std::vector<WorkerLog>& traced,
                             std::map<std::string, double>& out) = 0;

  // Run metadata (stream sizes, parameters).
  virtual void describe(JsonObject& meta) const = 0;
};

// Workload builders: views, arenas, arrays and streams, which is what
// setup_s times.
std::unique_ptr<Workload> make_eigen_tm(std::uint64_t seed);
std::unique_ptr<Workload> make_eigen_lock(std::uint64_t seed);
std::unique_ptr<Workload> make_intruder(std::uint64_t seed);

// Host diagnostics, recorded beside every run (not metrics).
JsonObject probe_host();

}  // namespace perfbench
