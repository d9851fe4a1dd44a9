// perfbench: closed-loop end-to-end benchmark of the VOTM library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//   perfbench --probe
//
// N = kWorkers worker threads run the workload's ops back to back; every op
// is timed from its call into core::View::execute to the return (for
// Intruder, over the whole packet). With --trace 0 one timed phase of S
// seconds gives the end-to-end metrics. With --trace 1 an untraced and a
// traced phase of S/2 seconds each give the per-layer metrics and the
// tracing overhead; --spans writes the traced phase's sampled spans as
// JSON lines. Output is JSON lines: {"meta": ...}, {"views": [...]} and,
// last, {"correct", "attempted", "failed", "metrics"}. --probe prints the
// host diagnostics instead.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "util/cacheline.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

// Setup is repeated at least kSetupMinRuns times and until kSetupMinSeconds
// have been spent building; setup_s is the median build time, and the last
// build is the one measured.
constexpr std::size_t kSetupMinRuns = 5;
constexpr std::size_t kSetupMaxRuns = 51;
constexpr double kSetupMinSeconds = 1.0;

// The timed phase is measured in windows of this length: throughput is
// the best window's, the other timings are medians over the windows. A
// window spans several of Intruder's stall cycles (about 0.3 s on a 4-vCPU
// Xeon VM), so every window pays for them.
constexpr double kWindowSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
  bool probe = false;
};

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"eigen-tm", make_eigen_tm},
    {"eigen-lock", make_eigen_lock},
    {"intruder", make_intruder},
};

const WorkloadEntry& find_workload(const std::string& name) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--probe") {
      a.probe = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.probe) return a;
  find_workload(a.workload);
  if (!have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument("--seed, --seconds and --trace are required");
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Peak resident set of this process image. getrusage's ru_maxrss would
// also count the parent's resident set at fork time, which survives exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Builds the workload in a forked child and returns the child's build
// time. Each repetition so starts from the state the measured build starts
// from, a fresh process with nothing built yet: rebuilding in one process
// would instead reuse the memory an earlier build freed, at a cost that
// depends on how the allocator happened to keep it.
double build_in_child(const WorkloadEntry& entry, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    double seconds = -1.0;
    try {
      const std::int64_t start = now_ns();
      const std::unique_ptr<Workload> w = entry.make(seed);
      seconds = static_cast<double>(now_ns() - start) * 1e-9;
    } catch (...) {
    }
    const bool sent = write(fds[1], &seconds, sizeof seconds) ==
                      static_cast<ssize_t>(sizeof seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const ssize_t got = read(fds[0], &seconds, sizeof seconds);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof seconds) || seconds < 0.0) {
    throw std::runtime_error("setup failed in a child process");
  }
  return seconds;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// One measurement window of a timed phase.
struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;
  double p99_us = 0.0;
};

struct Phase {
  std::int64_t start_ns = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;
  std::vector<Window> windows;
  std::vector<WorkerLog> logs;
};

// One timed phase: kWorkers threads start together and run closed loops
// until `seconds` have passed. The main thread samples completed ops and
// process CPU time at every window boundary, then stops and joins the
// workers before reading the phase totals.
Phase run_phase(Workload& w, unsigned index, double seconds, bool traced) {
  const auto n_windows = static_cast<unsigned>(
      std::max(1.0, std::round(seconds / kWindowSeconds)));
  Phase phase;
  phase.logs.resize(kWorkers);
  std::array<votm::CacheLinePadded<std::atomic<std::uint64_t>>, kWorkers>
      progress{};
  std::atomic<unsigned> window{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::jthread> threads;
  try {
    for (unsigned t = 0; t < kWorkers; ++t) {
      WorkerLog& log = phase.logs[t];
      log.tid = t;
      log.phase = index;
      log.latency.resize(n_windows + 1);
      log.window = &window;
      log.progress = &progress[t].value;
      if (traced) log.spans.enable();
      threads.emplace_back([&w, &log, &go, &stop, traced] {
        go.wait(false);
        if (stop.load()) return;
        try {
          w.work(log, traced, stop);
        } catch (const std::exception& e) {
          ++log.failed;
          if (log.error.empty()) log.error = e.what();
        }
      });
    }
  } catch (...) {
    // Release the threads already started without running any op; the
    // jthreads join as they unwind.
    stop.store(true);
    go.store(true);
    go.notify_all();
    throw;
  }
  auto completed = [&] {
    std::uint64_t ops = 0;
    for (const auto& p : progress) {
      ops += p.value.load(std::memory_order_relaxed);
    }
    return ops;
  };
  const double cpu0 = cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  phase.start_ns = now_ns();
  go.store(true);
  go.notify_all();
  const double window_s = seconds / n_windows;
  double cpu = cpu0;
  std::int64_t t = phase.start_ns;
  std::uint64_t ops = 0;
  for (unsigned i = 0; i < n_windows; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(window_s * (i + 1)));
    const std::uint64_t ops_now = completed();
    const double cpu_now = cpu_seconds();
    const std::int64_t t_now = now_ns();
    window.store(i + 1, std::memory_order_relaxed);
    phase.windows.push_back(
        Window{static_cast<double>(t_now - t) * 1e-9, cpu_now - cpu,
               ops_now - ops, 0.0});
    ops = ops_now;
    cpu = cpu_now;
    t = t_now;
  }
  stop.store(true);
  for (std::jthread& th : threads) th.join();
  phase.wall_s = static_cast<double>(now_ns() - phase.start_ns) * 1e-9;
  phase.cpu_s = cpu_seconds() - cpu0;
  for (WorkerLog& log : phase.logs) {
    phase.ops += log.ops;
    log.window = nullptr;
    log.progress = nullptr;
  }
  for (unsigned i = 0; i < n_windows; ++i) {
    LatencyHistogram h;
    for (const WorkerLog& log : phase.logs) h.merge(log.latency[i]);
    phase.windows[i].p99_us = h.quantile(0.99) / 1e3;
  }
  return phase;
}

double median_of(const std::vector<Window>& windows,
                 double (*value)(const Window&)) {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back(value(w));
  return median(v);
}

// Per-layer metrics of the traced phase that every workload shares; the
// workload adds its own. `before` holds the views' stats as the traced
// phase started.
void core_layer_metrics(
    Workload& w, const std::vector<WorkerLog>& traced,
    const std::array<votm::stm::StatsSnapshot, kOpTypes>& before,
    std::map<std::string, double>& out) {
  for (std::size_t t = 0; t < kOpTypes; ++t) {
    LayerTotals sum;
    for (const WorkerLog& log : traced) sum.merge(log.layers[t]);
    const std::string s = std::string(".") + w.op_types()[t];
    out["core.enter_ns" + s] = ratio(sum.enter_ns, sum.ops);
    out["core.body_ns" + s] = ratio(sum.body_ns, sum.attempts);
    out["core.retry_ns" + s] = ratio(sum.retry_ns, sum.attempts - sum.ops);
    out["core.exit_ns" + s] = ratio(sum.exit_ns, sum.ops);
    out["core.attempts_per_op" + s] = ratio(sum.attempts, sum.ops);

    votm::core::View& v = w.view(t);
    const votm::stm::StatsSnapshot now = v.stats();
    const std::uint64_t useful =
        now.committed_cycles - before[t].committed_cycles;
    const std::uint64_t wasted = now.aborted_cycles - before[t].aborted_cycles;
    out["stm.aborts_per_commit" + s] = ratio(now.aborts - before[t].aborts,
                                             now.commits - before[t].commits);
    out["stm.useful_cycle_share" + s] = ratio(useful, useful + wasted);
    out["rac.quota" + s] = v.quota();
    // Eq. 5 is undefined at Q = 1 (lock mode, which never aborts).
    const double delta = v.whole_run_delta();
    out["rac.delta" + s] = std::isfinite(delta) ? delta : 0.0;
  }
}

JsonObject view_counters(Workload& w, std::size_t t) {
  votm::core::View& v = w.view(t);
  const votm::stm::StatsSnapshot s = v.stats();
  const votm::stm::ReclaimStats r = v.reclaim_stats();
  JsonObject o;
  o.add("type", w.op_types()[t])
      .add("algo", votm::stm::to_string(v.config().algo))
      .add("fixed_quota", v.config().fixed_quota)
      .add("quota", v.quota())
      .add("commits", s.commits)
      .add("aborts", s.aborts)
      .add("committed_cycles", s.committed_cycles)
      .add("aborted_cycles", s.aborted_cycles)
      .add("whole_run_delta", v.whole_run_delta())
      .add("consecutive_abort_hwm", v.consecutive_abort_hwm())
      .add("reclaim_passes", r.passes)
      .add("reclaim_forced_passes", r.forced_passes)
      .add("retired", r.retired)
      .add("reclaimed", r.reclaimed)
      .add("limbo_depth", r.depth)
      .add("limbo_depth_hwm", r.depth_hwm);
  return o;
}

void write_spans(const std::string& path, const Phase& phase) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const WorkerLog& log : phase.logs) {
    for (const Span& s : log.spans.spans()) {
      out << JsonObject()
                 .add("worker", log.tid)
                 .add("op", s.op)
                 .add("id", s.id)
                 .add("parent", s.parent)
                 .add("name", s.name)
                 .add("start_ns", s.start_ns - phase.start_ns)
                 .add("end_ns", s.end_ns - phase.start_ns)
                 .str()
          << '\n';
    }
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

// Output checks shared by every workload, then the workload's own.
Checks check_run(Workload& w, const std::vector<Phase>& phases) {
  std::uint64_t failed_ops = 0, completed = 0, mismatches = 0;
  std::array<std::uint64_t, kOpTypes> issued{};
  std::string first_error;
  for (const Phase& p : phases) {
    for (const WorkerLog& log : p.logs) {
      completed += log.ops;
      failed_ops += log.failed;
      mismatches += log.count_mismatches;
      for (std::size_t t = 0; t < kOpTypes; ++t) issued[t] += log.view_tx[t];
      if (first_error.empty()) first_error = log.error;
    }
  }
  Checks checks;
  checks.expect(failed_ops == 0, std::to_string(failed_ops) +
                                     " ops did not complete: " + first_error);
  checks.expect(completed > 0, "no op completed");
  checks.expect(mismatches == 0,
                std::to_string(mismatches) +
                    " committed ops made other barrier calls than the "
                    "workload's parameters imply");
  for (std::size_t t = 0; t < kOpTypes; ++t) {
    votm::core::View& v = w.view(t);
    const std::string name = w.op_types()[t];
    const std::uint64_t commits = v.stats().commits;
    checks.expect(commits == issued[t],
                  name + " view: " + std::to_string(commits) +
                      " commits for " + std::to_string(issued[t]) +
                      " transactions issued");
    checks.expect(v.quota() == v.config().fixed_quota,
                  name + " view: quota " + std::to_string(v.quota()) +
                      " is not the fixed quota");
  }
  w.check(checks);
  return checks;
}

// End-to-end metrics of the untraced timed phase, as plain numbers;
// run.py attaches the units BENCHMARK.json gives. Throughput is the best
// window's: how many CPUs the host lends a VM changes from minute to
// minute, and where ops block (Intruder's stalls in the dictionary view's
// exit and insert) a starved run loses throughput out of all proportion.
// Over ten Intruder runs, median-window throughput spread by 25% where the
// best window's spread by 7% (and CPU per op by 2%).
JsonObject end_to_end_metrics(const Phase& timed,
                              const std::vector<double>& setup_s) {
  double best = 0.0;
  for (const Window& w : timed.windows) {
    best = std::max(best, ratio(w.ops, w.wall_s));
  }
  JsonObject metrics;
  metrics.add("throughput_ops_s", best)
      .add("cpu_per_op_us",
           median_of(timed.windows,
                     [](const Window& w) {
                       return ratio(w.cpu_s * 1e6, w.ops);
                     }))
      .add("op_latency_p99_us",
           median_of(timed.windows, [](const Window& w) { return w.p99_us; }))
      .add("peak_rss_mb", peak_rss_mb())
      .add("setup_s", median(setup_s));
  return metrics;
}

// Per-layer metrics of the traced phase; also adds the per-view latency
// percentiles to `meta` (diagnostics, not metrics: a p50 over both op types
// would fall in the gap between their populations).
JsonObject per_layer_metrics(
    Workload& w, const Phase& untraced, const Phase& traced,
    const std::array<votm::stm::StatsSnapshot, kOpTypes>& before,
    JsonObject& meta) {
  std::map<std::string, double> layers;
  core_layer_metrics(w, traced.logs, before, layers);
  w.layer_metrics(traced.logs, layers);
  const double plain = ratio(untraced.ops, untraced.wall_s);
  const double with_trace = ratio(traced.ops, traced.wall_s);
  layers["trace.overhead_pct"] = ratio(plain - with_trace, plain) * 100.0;
  JsonObject metrics;
  for (const auto& [name, value] : layers) metrics.add(name, value);

  JsonObject percentiles;
  for (std::size_t t = 0; t < kOpTypes; ++t) {
    LayerTotals sum;
    for (const WorkerLog& log : traced.logs) sum.merge(log.layers[t]);
    const std::string suffix = std::string(".") + w.op_types()[t];
    percentiles
        .add("execute_p50_us" + suffix, sum.latency.quantile(0.50) / 1e3)
        .add("execute_p99_us" + suffix, sum.latency.quantile(0.99) / 1e3);
  }
  meta.add("traced_latency", percentiles);
  return metrics;
}

int run(const Args& a) {
  const WorkloadEntry& entry = find_workload(a.workload);
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() + 1 < kSetupMinRuns ||
         (setup_total < kSetupMinSeconds &&
          setup_s.size() + 1 < kSetupMaxRuns)) {
    setup_s.push_back(build_in_child(entry, a.seed));
    setup_total += setup_s.back();
  }
  const std::int64_t setup_start = now_ns();
  const std::unique_ptr<Workload> w = entry.make(a.seed);
  setup_s.push_back(static_cast<double>(now_ns() - setup_start) * 1e-9);

  std::vector<Phase> phases;
  std::array<votm::stm::StatsSnapshot, kOpTypes> before_traced{};
  if (!a.trace) {
    phases.push_back(run_phase(*w, 0, a.seconds, false));
  } else {
    phases.push_back(run_phase(*w, 0, a.seconds / 2, false));
    for (std::size_t t = 0; t < kOpTypes; ++t) {
      before_traced[t] = w->view(t).stats();
    }
    phases.push_back(run_phase(*w, 1, a.seconds / 2, true));
  }
  const Checks checks = check_run(*w, phases);

  const Phase& timed = phases.front();
  LatencyHistogram latency;
  for (const WorkerLog& log : timed.logs) {
    for (const LatencyHistogram& h : log.latency) latency.merge(h);
  }
  JsonObject meta;
  meta.add("workload", a.workload)
      .add("build", PERFBENCH_BUILD)
      .add("seed", a.seed)
      .add("workers", kWorkers)
      .add("seconds", a.seconds)
      .add("trace", a.trace)
      .add("window_s", kWindowSeconds)
      .add("throughput_whole_phase_ops_s", ratio(timed.ops, timed.wall_s))
      .add("latency_samples", latency.count())
      .add("latency_p99_us_whole_phase", latency.quantile(0.99) / 1e3)
      .add("latency_p50_us_whole_phase", latency.quantile(0.50) / 1e3)
      .add("setup_runs", setup_s.size())
      .add("setup_s_max", *std::max_element(setup_s.begin(), setup_s.end()));
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    std::vector<std::uint64_t> per_worker, window_ops;
    std::vector<double> window_p99;
    for (const WorkerLog& log : p.logs) per_worker.push_back(log.ops);
    for (const Window& win : p.windows) {
      window_ops.push_back(win.ops);
      window_p99.push_back(win.p99_us);
    }
    const std::string key = "phase" + std::to_string(i);
    meta.add_array(key + "_ops_per_worker", per_worker)
        .add(key + "_wall_s", p.wall_s)
        .add(key + "_cpu_s", p.cpu_s)
        .add_array(key + "_window_ops", window_ops)
        .add_array(key + "_window_p99_us", window_p99);
  }

  JsonObject metrics;
  if (!a.trace) {
    metrics = end_to_end_metrics(timed, setup_s);
  } else {
    metrics = per_layer_metrics(*w, timed, phases.back(), before_traced, meta);
    if (!a.spans.empty()) write_spans(a.spans, phases.back());
  }
  w->describe(meta);
  std::string failures;
  for (const std::string& f : checks.failures) failures += f + "; ";
  meta.add("check_failures", failures);

  std::string views = "[";
  for (std::size_t t = 0; t < kOpTypes; ++t) {
    views += (t == 0 ? "" : ",") + view_counters(*w, t).str();
  }
  views += "]";

  std::uint64_t attempted = 0, failed_ops = 0;
  for (const Phase& p : phases) {
    for (const WorkerLog& log : p.logs) {
      attempted += log.ops + log.failed;
      failed_ops += log.failed;
    }
  }
  const bool correct = checks.failures.empty();
  JsonObject result;
  result.add("correct", correct)
      .add("attempted", attempted)
      .add("failed", correct ? failed_ops : attempted)
      .add("metrics", metrics);
  std::cout << JsonObject().add("meta", meta).str() << '\n'
            << "{\"views\":" << views << "}\n"
            << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse(argc, argv);
    if (args.probe) {
      std::cout << perfbench::JsonObject()
                       .add("host", perfbench::probe_host())
                       .str()
                << std::endl;
      return 0;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
