// The traced run's instruments, all applied from outside the library:
// per-op-type totals (counts and summed nanoseconds at every layer
// boundary) and full spans for a sampled subset of ops, kept in each
// worker's memory and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "latency.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Traced-run totals for one op type; each op type runs on its own view.
struct LayerTotals {
  std::uint64_t ops = 0;       // View::execute calls that returned
  std::uint64_t attempts = 0;  // body entries (commits plus aborts)
  std::uint64_t enter_ns = 0;  // op start to first body entry
  std::uint64_t body_ns = 0;   // body entry to body exit, every attempt
  std::uint64_t retry_ns = 0;  // body exit to the next body entry
  std::uint64_t exit_ns = 0;   // last body exit to execute() return
  // vread/vwrite calls and their time, over every attempt.
  std::uint64_t reads = 0, writes = 0, read_ns = 0, write_ns = 0;
  // vread/vwrite calls of the committed (last) attempt of each op.
  std::uint64_t committed_reads = 0, committed_writes = 0;
  // The library call the body makes (TxQueue::pop, TxDictionary::insert).
  std::uint64_t calls = 0, call_ns = 0;
  // Latency of each execute() call, for the per-view percentiles.
  LatencyHistogram latency;

  void merge(const LayerTotals& o) {
    ops += o.ops;
    attempts += o.attempts;
    enter_ns += o.enter_ns;
    body_ns += o.body_ns;
    retry_ns += o.retry_ns;
    exit_ns += o.exit_ns;
    reads += o.reads;
    writes += o.writes;
    read_ns += o.read_ns;
    write_ns += o.write_ns;
    committed_reads += o.committed_reads;
    committed_writes += o.committed_writes;
    calls += o.calls;
    call_ns += o.call_ns;
    latency.merge(o.latency);
  }
};

struct Span {
  std::uint64_t op = 0;
  std::uint32_t id = 0;      // 1-based within the worker; 0 = no span
  std::uint32_t parent = 0;  // 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Spans of every kSampleEvery-th op of one worker, once enabled. Storage
// is reserved up front, so opening a span inside a transaction body never
// allocates.
class SpanLog {
 public:
  static constexpr std::uint64_t kSampleEvery = 1024;
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  // An op that would need more spans than this is left unsampled.
  static constexpr std::size_t kOpReserve = 256;

  void enable() { spans_.reserve(kCapacity); }

  void begin_op(std::uint64_t op) {
    op_ = op;
    sampling_ = op % kSampleEvery == 0 &&
                spans_.size() + kOpReserve <= spans_.capacity();
  }
  void end_op() { sampling_ = false; }

  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::int64_t start) {
    if (!sampling_ || spans_.size() >= spans_.capacity()) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{op_, id, parent, name, start, start});
    return id;
  }
  void close(std::uint32_t id, std::int64_t end) noexcept {
    if (id != 0) spans_[id - 1].end_ns = end;
  }
  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::int64_t start, std::int64_t end) {
    const std::uint32_t id = open(name, parent, start);
    close(id, end);
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t op_ = 0;
  bool sampling_ = false;
};

// Stamps of one traced View::execute call. The body calls begin_attempt()
// on entry and holds an AttemptGuard, whose destructor calls end_attempt()
// on commit and on abort unwind alike. That splits the call into enter
// (RAC admission plus STM begin), body attempts, retry gaps (abort unwind
// to the next entry) and exit (commit, admission leave, stats, adaptation
// and limbo bookkeeping) without reimplementing View::run.
class ExecuteStamps {
 public:
  ExecuteStamps(LayerTotals& totals, SpanLog& spans, const char* name,
                std::uint32_t parent)
      : totals_(totals), spans_(spans), start_(now_ns()) {
    span_ = spans_.open(name, parent, start_);
  }

  void begin_attempt() {
    const std::int64_t t = now_ns();
    if (attempts_ == 0) {
      totals_.enter_ns += static_cast<std::uint64_t>(t - start_);
      spans_.add("core.enter", span_, start_, t);
    } else {
      totals_.retry_ns += static_cast<std::uint64_t>(t - last_exit_);
      spans_.add("core.retry", span_, last_exit_, t);
    }
    ++attempts_;
    attempt_reads_ = attempt_writes_ = 0;
    entry_ = t;
    body_span_ = spans_.open("core.body", span_, t);
  }

  void end_attempt() noexcept {
    last_exit_ = now_ns();
    totals_.body_ns += static_cast<std::uint64_t>(last_exit_ - entry_);
    spans_.close(body_span_, last_exit_);
  }

  // After execute() returned: the last attempt committed.
  void finish() {
    const std::int64_t t = now_ns();
    totals_.exit_ns += static_cast<std::uint64_t>(t - last_exit_);
    spans_.add("core.exit", span_, last_exit_, t);
    spans_.close(span_, t);
    totals_.latency.record(static_cast<std::uint64_t>(t - start_));
    ++totals_.ops;
    totals_.attempts += attempts_;
    totals_.committed_reads += attempt_reads_;
    totals_.committed_writes += attempt_writes_;
  }

  void add_read(std::int64_t ns) {
    ++attempt_reads_;
    ++totals_.reads;
    totals_.read_ns += static_cast<std::uint64_t>(ns);
  }
  void add_write(std::int64_t ns) {
    ++attempt_writes_;
    ++totals_.writes;
    totals_.write_ns += static_cast<std::uint64_t>(ns);
  }
  void add_call(std::int64_t start, std::int64_t end, const char* name) {
    ++totals_.calls;
    totals_.call_ns += static_cast<std::uint64_t>(end - start);
    spans_.add(name, body_span_, start, end);
  }

  std::uint64_t attempt_reads() const noexcept { return attempt_reads_; }
  std::uint64_t attempt_writes() const noexcept { return attempt_writes_; }

 private:
  LayerTotals& totals_;
  SpanLog& spans_;
  std::int64_t start_;
  std::int64_t entry_ = 0;
  std::int64_t last_exit_ = 0;
  std::uint64_t attempts_ = 0;
  std::uint64_t attempt_reads_ = 0;
  std::uint64_t attempt_writes_ = 0;
  std::uint32_t span_ = 0;
  std::uint32_t body_span_ = 0;
};

class AttemptGuard {
 public:
  explicit AttemptGuard(ExecuteStamps& stamps) : stamps_(stamps) {}
  ~AttemptGuard() { stamps_.end_attempt(); }
  AttemptGuard(const AttemptGuard&) = delete;
  AttemptGuard& operator=(const AttemptGuard&) = delete;

 private:
  ExecuteStamps& stamps_;
};

}  // namespace perfbench
