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

#include "stm/signature.hpp"

namespace votm::stm {

using Word = std::uint64_t;

class Orec;  // orec_table.hpp

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
// write-back, with an open-addressing index for O(1) read-after-write
// lookups and a signature filter to skip lookups entirely when the address
// cannot be present. The filter doubles as the transaction's write-set
// signature for NOrec's commit broadcast (see signature.hpp).
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
    filter_.clear();
    if (maybe_shrink_log(entries_, used, low_use_clears_)) {
      rebuild_index(kInitialIndex);
    } else {
      std::fill(index_.begin(), index_.end(), kEmpty);
    }
  }

  // Returns true if addr may be present (cheap pre-check). lookup() runs
  // the identical signature check internally; callers that only need the
  // value should call lookup() directly and not pay the check twice.
  bool maybe_contains(const Word* addr) const noexcept {
    return filter_.maybe_contains_hash(addr_hash(addr));
  }

  // Inserts or overwrites the speculative value for addr.
  void insert(Word* addr, Word value) {
    const std::size_t h = addr_hash(addr);
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = h & mask;
    while (index_[slot] != kEmpty) {
      if (entries_[static_cast<std::size_t>(index_[slot])].addr == addr) {
        entries_[static_cast<std::size_t>(index_[slot])].value = value;
        return;
      }
      slot = (slot + 1) & mask;
    }
    index_[slot] = static_cast<std::int32_t>(entries_.size());
    entries_.push_back(Entry{addr, value});
    filter_.add_hash(h);
    if (entries_.size() * 2 > index_.size()) grow();
  }

  // Looks up addr; returns pointer to the logged value or nullptr. The
  // signature check and the probe share one hash computation.
  const Word* lookup(const Word* addr) const noexcept {
    const std::size_t h = addr_hash(addr);
    if (!filter_.maybe_contains_hash(h)) return nullptr;
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = h & mask;
    while (index_[slot] != kEmpty) {
      const Entry& e = entries_[static_cast<std::size_t>(index_[slot])];
      if (e.addr == addr) return &e.value;
      slot = (slot + 1) & mask;
    }
    return nullptr;
  }

  // Insertion-ordered iteration for commit-time write-back.
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  // Write-set signature for NOrec's commit broadcast.
  const SigFilter& filter() const noexcept { return filter_; }

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
  SigFilter filter_;
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
    filter_.clear();
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
    filter_.add(addr);
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

  // Read-set signature, intersected against committer write signatures in
  // NOrec's filtered validation.
  const SigFilter& filter() const noexcept { return filter_; }

  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
  SigFilter filter_;
  unsigned low_use_clears_ = 0;
};

// Orec read log for the orec-based engines. With dedup enabled (the
// default; mirrors WriteSet's open-addressing index) repeated reads of the
// same stripe log once, so read_log_valid()/extend() scan O(unique orecs)
// instead of O(reads) — under stripe aliasing (small orec tables, hot
// arrays) the difference is the whole validation cost. A 64-bit pointer
// signature skips the duplicate probe for first-seen orecs. With dedup
// disabled the log degenerates to the old append-only vector; the knob
// exists for bench/micro_validation's A/B and must only be flipped while
// the log is empty.
class OrecReadLog {
 public:
  OrecReadLog() { index_.assign(kInitialIndex, kEmpty); }

  // Orecs are elements of one contiguous table (orec_table.hpp), packed at
  // an 8 B stride. Dropping only the always-zero word bits and xor-folding
  // the next-higher bits down keeps line-mates distinct (a `>> 6` hash gave
  // all eight orecs of a line one value: eight-way probe pile-ups and a
  // degenerate 64-bit signature). The fold is a bijection, so distinct
  // orecs still never collide before the index mask is applied.
  static std::size_t orec_hash(const Orec* orec) noexcept {
    auto x = reinterpret_cast<std::uintptr_t>(orec) >> 3;
    x ^= x >> 3;
    return static_cast<std::size_t>(x);
  }

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  bool dedup() const noexcept { return dedup_; }
  void set_dedup(bool on) noexcept { dedup_ = on; }

  void clear() noexcept {
    const std::size_t used = entries_.size();
    if (used == 0) return;
    entries_.clear();
    filter_ = 0;
    if (maybe_shrink_log(entries_, used, low_use_clears_)) {
      index_.assign(kInitialIndex, kEmpty);
    } else {
      std::fill(index_.begin(), index_.end(), kEmpty);
    }
  }

  void push(const Orec* orec) {
    if (!dedup_) {
      entries_.push_back(orec);
      return;
    }
    // Tight re-read loops hit the same stripe back to back; one compare
    // catches those before any hashing or probing.
    if (!entries_.empty() && entries_.back() == orec) return;
    const std::size_t h = orec_hash(orec);
    const std::uint64_t sig = std::uint64_t{1} << (h & 63);
    // On a filter miss the orec is provably new: probe only for the free
    // slot, skipping the equality checks.
    const bool check_dups = (filter_ & sig) != 0;
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = h & mask;
    while (index_[slot] != kEmpty) {
      if (check_dups &&
          entries_[static_cast<std::size_t>(index_[slot])] == orec) {
        return;  // already logged; validation is per-orec idempotent
      }
      slot = (slot + 1) & mask;
    }
    index_[slot] = static_cast<std::int32_t>(entries_.size());
    entries_.push_back(orec);
    filter_ |= sig;
    if (entries_.size() * 2 > index_.size()) grow();
  }

  const std::vector<const Orec*>& entries() const noexcept { return entries_; }

 private:
  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::size_t kInitialIndex = 16;

  void grow() {
    const std::size_t n = index_.size() * 2;
    index_.assign(n, kEmpty);
    const std::size_t mask = n - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t slot = orec_hash(entries_[i]) & mask;
      while (index_[slot] != kEmpty) slot = (slot + 1) & mask;
      index_[slot] = static_cast<std::int32_t>(i);
    }
  }

  std::vector<const Orec*> entries_;
  std::vector<std::int32_t> index_;
  std::uint64_t filter_ = 0;
  bool dedup_ = kValidationFiltersDefault;
  unsigned low_use_clears_ = 0;
};

}  // namespace votm::stm
