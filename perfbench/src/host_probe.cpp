// Host diagnostics, recorded beside every run and never as metrics. When
// two sets of runs of the same code disagree, these tell host drift (a
// slower core, a busier memory system, fewer CPUs really running in
// parallel) apart from a change in the program.
//
//   alu_ns_per_iter : one thread, a fixed dependent multiply/shift chain
//   mem_ns_per_load : one thread, a dependent pointer chase over a random
//                     cycle of cache lines in a 64 MiB buffer
//   alu_wall_s_<T>  : wall time of the ALU chain run on T = 1, 2, 4
//                     threads at once
//   parallelism_<T> : T x (one-thread wall) / (T-thread wall)
//   clock_ns        : cost of one steady_clock read, which every op stamp
//                     and traced span pays
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kAluIters = std::uint64_t{1} << 25;
constexpr std::size_t kLines = std::size_t{1} << 20;  // 64 MiB of lines
constexpr std::size_t kWordsPerLine = 8;
constexpr std::size_t kChaseSteps = std::size_t{1} << 20;

std::uint64_t alu_chain(std::uint64_t x) {
  for (std::uint64_t i = 0; i < kAluIters; ++i) {
    x = x * 0x9e3779b97f4a7c15ULL + (x >> 29);
  }
  return x;
}

// Wall seconds for `threads` threads each running the ALU chain once,
// started together.
double alu_wall(unsigned threads) {
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> sink(threads);
  std::vector<std::jthread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      go.wait(false);
      sink[t] = alu_chain(t + 1);
    });
  }
  const std::int64_t start = now_ns();
  go.store(true);
  go.notify_all();
  for (auto& th : pool) th.join();
  const double wall = static_cast<double>(now_ns() - start) * 1e-9;
  std::uint64_t all = 0;
  for (const std::uint64_t v : sink) all ^= v;
  asm volatile("" ::"r"(all));
  return wall;
}

double mem_ns_per_load() {
  // Sattolo's shuffle makes one cycle through every line.
  std::vector<std::uint32_t> order(kLines);
  for (std::size_t i = 0; i < kLines; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  votm::Xoshiro256 rng(42);
  for (std::size_t i = kLines - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i)]);
  }
  std::vector<std::uint64_t> buf(kLines * kWordsPerLine);
  for (std::size_t i = 0; i < kLines; ++i) {
    buf[i * kWordsPerLine] = order[i];
  }
  std::uint64_t line = 0;
  const std::int64_t start = now_ns();
  for (std::size_t s = 0; s < kChaseSteps; ++s) {
    line = buf[line * kWordsPerLine];
  }
  const double ns = static_cast<double>(now_ns() - start);
  asm volatile("" ::"r"(line));
  return ns / kChaseSteps;
}

double clock_ns() {
  constexpr int kReads = 1 << 20;
  std::uint64_t sink = 0;
  const std::int64_t start = now_ns();
  for (int i = 0; i < kReads; ++i) sink += static_cast<std::uint64_t>(now_ns());
  const double ns = static_cast<double>(now_ns() - start);
  asm volatile("" ::"r"(sink));
  return ns / kReads;
}

}  // namespace

JsonObject probe_host() {
  JsonObject host;
  const double one = alu_wall(1);
  host.add("alu_ns_per_iter", one * 1e9 / static_cast<double>(kAluIters));
  host.add("mem_ns_per_load", mem_ns_per_load());
  host.add("alu_wall_s_1", one);
  for (const unsigned t : {2u, 4u}) {
    const double wall = alu_wall(t);
    host.add("alu_wall_s_" + std::to_string(t), wall);
    host.add("parallelism_" + std::to_string(t), t * one / wall);
  }
  host.add("clock_ns", clock_ns());
  host.add("hardware_concurrency", std::thread::hardware_concurrency());
  return host;
}

}  // namespace perfbench
