// Transaction-private logs: redo write set, value-based read log, and the
// orec read log.
//
// All structures are owned by TxThread and reused across transactions
// (clear() keeps capacity), so steady-state transactions allocate nothing —
// allocation inside the transactional fast path would both distort the
// cycle accounting that drives RAC and contend on the heap lock. One
// pathological transaction must not tax every later one either: each log
// shrinks back with hysteresis (see maybe_shrink_log below) once its
// capacity has sat far above actual use for many consecutive transactions.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace votm::stm {

using Word = std::uint64_t;

class Orec;  // orec_table.hpp

// The write set's index hash: finalizer-style mixing over the word-aligned
// pointer bits.
inline std::size_t addr_hash(const void* addr) noexcept {
  auto x = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  x ^= x >> 17;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}

// Shrink-with-hysteresis for the reusable per-transaction logs. A log only
// gives capacity back when (a) it is holding more than kLogShrinkCapacity
// entries' worth of memory AND (b) the last kLogShrinkClears transactions
// each used less than a quarter of it — a single outlier transaction resets
// the countdown, so capacity never thrashes around a workload that
// periodically needs the space.
inline constexpr std::size_t kLogShrinkCapacity = 1024;
inline constexpr unsigned kLogShrinkClears = 64;

// Returns true when the (already cleared) vector was reallocated down.
template <typename Vec>
bool maybe_shrink_log(Vec& v, std::size_t last_used,
                      unsigned& low_use_clears) noexcept {
  if (v.capacity() <= kLogShrinkCapacity ||
      last_used * 4 >= v.capacity()) {
    low_use_clears = 0;
    return false;
  }
  if (++low_use_clears < kLogShrinkClears) return false;
  low_use_clears = 0;
  Vec fresh;
  fresh.reserve(kLogShrinkCapacity);
  v.swap(fresh);
  return true;
}

// Redo-log write set: address -> speculative value, insertion-ordered for
// write-back, with an open-addressing index (at most half full) for O(1)
// read-after-write lookups.
class WriteSet {
 public:
  struct Entry {
    Word* addr;
    Word value;
  };

  WriteSet() { rebuild_index(kInitialIndex); }

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  void clear() noexcept {
    const std::size_t used = entries_.size();
    if (used == 0) return;
    entries_.clear();
    if (maybe_shrink_log(entries_, used, low_use_clears_)) {
      rebuild_index(kInitialIndex);
    } else {
      std::fill(index_.begin(), index_.end(), kEmpty);
    }
  }

  // Inserts or overwrites the speculative value for addr.
  void insert(Word* addr, Word value) {
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = addr_hash(addr) & mask;
    while (index_[slot] != kEmpty) {
      if (entries_[static_cast<std::size_t>(index_[slot])].addr == addr) {
        entries_[static_cast<std::size_t>(index_[slot])].value = value;
        return;
      }
      slot = (slot + 1) & mask;
    }
    index_[slot] = static_cast<std::int32_t>(entries_.size());
    entries_.push_back(Entry{addr, value});
    if (entries_.size() * 2 > index_.size()) grow();
  }

  // Looks up addr; returns pointer to the logged value or nullptr.
  const Word* lookup(const Word* addr) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = addr_hash(addr) & mask;
    while (index_[slot] != kEmpty) {
      const Entry& e = entries_[static_cast<std::size_t>(index_[slot])];
      if (e.addr == addr) return &e.value;
      slot = (slot + 1) & mask;
    }
    return nullptr;
  }

  // Insertion-ordered iteration for commit-time write-back.
  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::size_t kInitialIndex = 16;

  void rebuild_index(std::size_t n) {
    index_.assign(n, kEmpty);
    const std::size_t mask = n - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t slot = addr_hash(entries_[i].addr) & mask;
      while (index_[slot] != kEmpty) slot = (slot + 1) & mask;
      index_[slot] = static_cast<std::int32_t>(i);
    }
  }

  void grow() { rebuild_index(index_.size() * 2); }

  std::vector<Entry> entries_;
  std::vector<std::int32_t> index_;
  unsigned low_use_clears_ = 0;
};

// NOrec value-based read log: (address, observed value) pairs. Validation
// re-reads every address and compares values (Dalessandro et al., Sec. 3).
// Consecutive re-reads of the same address that observed the same value are
// logged once — a tight re-read loop must not grow the log (and with it
// every later validation scan) unboundedly. Only the adjacent-duplicate
// case is collapsed: if the re-read observed a DIFFERENT value both entries
// stay, so a torn pair is still presented to validation.
class ValueReadLog {
 public:
  struct Entry {
    const Word* addr;
    Word value;
  };

  void clear() noexcept {
    const std::size_t used = entries_.size();
    entries_.clear();
    maybe_shrink_log(entries_, used, low_use_clears_);
  }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  void push(const Word* addr, Word value) {
    if (!entries_.empty() && entries_.back().addr == addr &&
        entries_.back().value == value) {
      return;
    }
    entries_.push_back({addr, value});
  }

  // True if every logged location still holds its logged value.
  bool values_match() const noexcept {
    for (const Entry& e : entries_) {
      if (__atomic_load_n(e.addr, __ATOMIC_ACQUIRE) != e.value) {
        return false;
      }
    }
    return true;
  }

  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
  unsigned low_use_clears_ = 0;
};

// Orec read log for the orec-based engines: the orecs a transaction read
// through, scanned by read-log validation and timestamp extension. Like
// ValueReadLog it collapses only adjacent repeats — one compare, which
// bounds a tight re-read loop of one stripe — and otherwise appends, so
// a transaction that re-reads a stripe later logs it again (validation is
// per-orec idempotent).
class OrecReadLog {
 public:
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  void clear() noexcept {
    const std::size_t used = entries_.size();
    if (used == 0) return;
    entries_.clear();
    maybe_shrink_log(entries_, used, low_use_clears_);
  }

  void push(const Orec* orec) {
    if (!entries_.empty() && entries_.back() == orec) return;
    entries_.push_back(orec);
  }

  const std::vector<const Orec*>& entries() const noexcept { return entries_; }

 private:
  std::vector<const Orec*> entries_;
  unsigned low_use_clears_ = 0;
};

}  // namespace votm::stm
