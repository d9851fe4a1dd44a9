// Per-worker op-latency histogram with log-linear buckets: values below
// 64 ns get a bucket each, larger values 64 buckets per power of two
// (under 1.6% relative width). util/histogram.hpp's Log2Histogram has one
// bucket per power of two, too coarse for a p99 that should move with the
// samples. Workers record without sharing anything; the histograms are
// merged after the timed phase.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

class LatencyHistogram {
 public:
  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++total_;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  std::uint64_t count() const noexcept { return total_; }

  // The q-quantile in ns, interpolated linearly inside its bucket so that
  // the value moves continuously with the samples.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_);
    double below = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c == 0.0) continue;
      if (below + c >= rank) {
        const double frac = (rank - below) / c;
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      below += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t i) {
    if (i < kSub) return 1;
    const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    return std::uint64_t{1} << (e - kSubBits);
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_ = 0;
};

}  // namespace perfbench
