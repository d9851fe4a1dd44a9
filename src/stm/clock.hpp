// VersionClock: the per-engine global version clock, factored out of the
// orec engines, with runtime-selectable timestamp-allocation policies.
//
// Every writer commit in the orec family used to end with a fetch_add on a
// single CacheLinePadded<atomic<uint64_t>> — one shared-line RMW per commit
// that serializes otherwise disjoint-access-parallel transactions. Following
// the RSTM "GV" family (and Huang et al., *The Impact of Timestamp
// Granularity in Optimistic Concurrency Control*), this component offers
// three policies over the same clock word:
//
//   GV1  fetch_add(1).            One RMW per writer commit; commit
//        timestamps are unique and dense. The default, and bit-identical
//        to the pre-refactor engines.
//   GV4  CAS with pass-on-failure. A committer CASes clock -> clock+1
//        exactly once; a loser ADOPTS the value the winner published
//        instead of retrying, so contended commits share a timestamp.
//        One failed CAS is the worst case per commit, versus GV1's
//        always-serializing RMW.
//   GV5  thread-cached, no global RMW on the commit path. The commit
//        timestamp is max(global, own last commit, start_time) + 1 —
//        a "future" timestamp that may run ahead of the global clock.
//        Readers that meet a future version tolerate it through the
//        engines' existing TinySTM-style extension, and extension_bound()
//        lazily pushes the global clock forward (see below), so one
//        global CAS amortizes over many commits.
//   GV6  sharded. kGv6Shards padded clock words, keyed by thread
//        ordinal. A writer commit scans all shards (after its locks) and
//        CAS-maxes only its OWN shard to end = max + 1 — commit-path RMW
//        contention drops from one global line to K independent lanes.
//        A reader begins on a per-thread CACHED max-over-shards bound:
//        zero shared-memory traffic at begin. The cache refreshes on the
//        extension path (i.e. on validation pressure), which is also
//        where a reader that met a version above its bound re-legalizes.
//        Tickets always validate, like GV5.
//
// Timestamp-sharing/future-timestamp safety. The engines' opacity argument
// needs one clock invariant: for any snapshot s a transaction obtains from
// this clock (begin() or extension_bound()), every writer that will unlock
// its orecs to a version <= s already held ALL of its write locks when s
// was obtained. Then "version <= s and unlocked" proves "committed before
// my snapshot", and incremental validation is sound. Each tick() policy
// preserves it the same way: the committer derives end_time strictly
// greater than a clock value it loaded AFTER acquiring every write lock.
// Since the clock word is monotone, any snapshot s >= end_time must have
// been read from a clock state that the committer's post-lock load also
// saw coherence-before it — i.e. after the locks were all held. Sharing a
// timestamp (GV4) or running ahead of the global (GV5) never breaks this;
// only deriving end_time from a pre-lock load would.
//
// GV6 proves the same invariant across MULTIPLE monotone words. Shards
// only ever grow (every mutation is a CAS-max), so a committer's post-lock
// scan max m and a reader's scan max s are comparable per shard: end <= s
// forces the committer's load of the shard that carried s to be coherence-
// before the store the reader's scan observed (else m >= s and
// end = m + 1 > s). Coherence alone is not an ordering the C++ abstract
// machine lets distant loads inherit, so GV6 makes the obligation
// explicit: shard loads/CAS-maxes are seq_cst, a committer fences
// (seq_cst) between its last lock CAS and the scan, and a reader fences
// after the scan that computes (or the slot load that reuses) its bound.
// The fence totally orders the committer's scan before the reader's
// bound acquisition in S whenever end <= s, which upgrades the per-shard
// coherence fact into "the reader's later orec loads observe the
// committer's lock CASes" — the invariant, shards or not. The reader-side
// fence is core-local (it orders nothing remote and touches no shared
// line), which is the point: begin() costs a fence instead of a shared
// clock-line load.
//
// Memory-order contract (the one place it is documented — call sites
// should not re-derive it):
//   * read() is an ACQUIRE load. It synchronizes with the release side of
//     the ticket RMW (GV1/GV4) or of extension_bound()'s propagation CAS
//     (GV5), so a transaction that starts at snapshot s happens-after the
//     lock acquisitions of every writer with end_time <= s (invariant
//     above). The pre-refactor headers' relaxed clock() getters were a
//     (benign on x86, wrong in the abstract machine) divergence from the
//     acquire in begin(); both now funnel here.
//   * tick() RMWs are ACQ_REL: release to order the preceding write-lock
//     CASes before the published value, acquire so the committer's
//     validation bound covers every commit it might race.
//   * note_commit() publishes to the thread's own padded slot with a
//     RELEASE store (no RMW — the slot has a single writer). Its only
//     reader is GV5's tick/extension path, which loads it relaxed: the
//     slot can only raise a timestamp, and the invariant above rests on
//     the post-lock global load (tick) or the propagation CAS (extension),
//     never on the slot.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "util/cacheline.hpp"
#include "util/thread_ordinal.hpp"

namespace votm::stm {

enum class ClockPolicy : std::uint8_t {
  kGv1,  // fetch_add per commit (default; pre-refactor behavior)
  kGv4,  // single CAS, losers adopt the winner's tick
  kGv5,  // thread-cached future timestamps, no global RMW per commit
  kGv6,  // sharded clock words, per-thread cached reader bound
};

inline const char* to_string(ClockPolicy p) noexcept {
  switch (p) {
    case ClockPolicy::kGv1: return "gv1";
    case ClockPolicy::kGv4: return "gv4";
    case ClockPolicy::kGv5: return "gv5";
    case ClockPolicy::kGv6: return "gv6";
  }
  return "?";
}

// Accepts "gv1"/"GV4"/... ; returns false on unknown names.
inline bool clock_policy_from_string(const char* s, ClockPolicy* out) noexcept {
  auto eq = [](const char* a, const char* b) noexcept {
    for (; *a && *b; ++a, ++b) {
      const char ca = (*a >= 'A' && *a <= 'Z') ? char(*a - 'A' + 'a') : *a;
      if (ca != *b) return false;
    }
    return *a == '\0' && *b == '\0';
  };
  if (eq(s, "gv1")) { *out = ClockPolicy::kGv1; return true; }
  if (eq(s, "gv4")) { *out = ClockPolicy::kGv4; return true; }
  if (eq(s, "gv5")) { *out = ClockPolicy::kGv5; return true; }
  if (eq(s, "gv6")) { *out = ClockPolicy::kGv6; return true; }
  return false;
}

class VersionClock {
 public:
  // A commit timestamp plus whether the committer still has to validate
  // its read set. GV1/GV4 can prove "nothing committed since I began"
  // straight from the ticket (end_time adjacent to start_time); GV5 never
  // can, because commits do not advance the global clock.
  struct Ticket {
    std::uint64_t end_time;
    bool need_validation;
  };

  // Per-thread last-commit slots (GV5's thread cache). Power of two;
  // threads map by thread_ordinal() & (kSlots - 1). Ordinals are
  // process-wide and never reused, so a long-lived process with more than
  // kSlots concurrently live threads can alias two threads onto one slot:
  // note_commit()'s monotonic max keeps every published value a real
  // committed timestamp, so GV5's max() stays sound.
  static constexpr std::size_t kSlots = 64;

  // GV6 clock shards. Power of two; writers map by thread_ordinal() &
  // (kGv6Shards - 1). Aliasing is harmless (CAS-max is order-free); the
  // count trades commit-lane independence against the reader scan length.
  static constexpr std::size_t kGv6Shards = 8;

  explicit VersionClock(ClockPolicy policy = ClockPolicy::kGv1) noexcept
      : policy_(policy) {}

  VersionClock(const VersionClock&) = delete;
  VersionClock& operator=(const VersionClock&) = delete;

  ClockPolicy policy() const noexcept { return policy_; }

  // Current clock value; the introspection accessor (and, for every policy
  // but GV6, the begin() snapshot). Acquire — see the memory-order
  // contract in the header comment. GV6 has no single clock word; its
  // current value is the fresh max over shards (monotone, and >= the
  // calling thread's own completed commits).
  std::uint64_t read() const noexcept {
    if (policy_ == ClockPolicy::kGv6) return shard_max();
    return clock_.value.load(std::memory_order_acquire);
  }

  // The engines' begin()-snapshot. Every policy but GV6 funnels to read();
  // GV6 serves the per-thread cached bound — no shared-memory access at
  // all on this path, just the slot load and the core-local fence that
  // makes reuse sound (header comment). A stale bound is SAFE: shards are
  // monotone, so any writer committing after the bound was computed scans
  // values >= the cached max and derives end > bound; staleness only costs
  // extensions, which is where the cache refreshes. The kGv6ShardLag
  // fault models a maximally lagging cache (bound 0, no refresh), forcing
  // every conflicting read through the extension/refresh path so
  // votm-check can drive it deterministically.
  std::uint64_t begin_snapshot() noexcept {
    if (policy_ != ClockPolicy::kGv6) return read();
    if (VOTM_FAULT(kGv6ShardLag)) return 0;
    const std::uint64_t cached =
        bounds_[slot_index()].value.load(std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (cached != 0) return cached;
    return refresh_gv6_bound(0);
  }

  // Allocates the commit timestamp for a writer. PRECONDITION: the caller
  // holds every write lock of the committing transaction — each policy's
  // safety rests on loading the clock after the locks (header comment).
  // The sched point sits BEFORE any clock access so votm-check can race
  // committers around the RMW while the no-point-after-publication rule
  // (oracle serialization witness) still holds for the engines' tails.
  Ticket tick(std::uint64_t start_time) noexcept {
    VOTM_SCHED_POINT(kStmClockTick);
    switch (policy_) {
      case ClockPolicy::kGv4:
        return tick_gv4(start_time);
      case ClockPolicy::kGv5:
        return tick_gv5(start_time);
      case ClockPolicy::kGv6:
        return tick_gv6(start_time);
      case ClockPolicy::kGv1:
        break;
    }
    // GV1: bit-identical to the pre-refactor commit tails, including the
    // skip-validation condition: end_time == start_time + 1 proves no
    // other writer ticked since we began.
    const std::uint64_t end =
        clock_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
    return Ticket{end, end != start_time + 1};
  }

  // Snapshot bound for TinySTM-style extension. `observed` is the orec
  // version that forced the extension (0 when extending for other
  // reasons). Returns a clock value >= observed, so the engines' read/
  // write retry loops terminate even under GV5, where a committed orec
  // may carry a version the global clock has not reached yet. To keep the
  // clock invariant, a future `observed` is first CAS-propagated into the
  // global clock — publishing a committed transaction's timestamp is
  // always legal, and the release CAS gives later begin()/extension
  // snapshots the happens-after edge the invariant needs. GV5 also
  // propagates the thread's own last commit timestamp: that one CAS pays
  // for the whole backlog of commits the thread made since the global
  // clock last moved, which is what makes the no-RMW commit path amortize
  // instead of merely deferring the contention to readers.
  std::uint64_t extension_bound(std::uint64_t observed) noexcept {
    if (policy_ == ClockPolicy::kGv6) {
      // Refresh-on-validation-pressure: the fresh scan both legalizes the
      // version that forced the extension (a committed orec version is
      // always <= some shard by the pre-unlock CAS-max in tick_gv6, so
      // the scan dominates `observed`; the max is defensive) and renews
      // the thread's cached begin bound. The global clock word stays
      // untouched under GV6.
      return refresh_gv6_bound(observed);
    }
    if (policy_ == ClockPolicy::kGv5) {
      observed = std::max(
          observed, slots_[slot_index()].value.load(std::memory_order_relaxed));
    }
    std::uint64_t now = clock_.value.load(std::memory_order_acquire);
    while (now < observed &&
           !clock_.value.compare_exchange_weak(now, observed,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      // `now` reloaded by the failed CAS; only futures need propagating.
    }
    return std::max(now, observed);
  }

  // Publishes `end_time` to the calling thread's padded slot: "this
  // thread's last commit is fully visible through timestamp end_time".
  // Called by the engines after the unlock sweep. Monotonic load + store,
  // no RMW — the GV1 path stays free of extra atomic RMWs. GV5 reads the
  // slot back as its thread cache (tick_gv5, extension_bound).
  void note_commit(std::uint64_t end_time) noexcept {
    std::atomic<std::uint64_t>& slot = slots_[slot_index()].value;
    if (slot.load(std::memory_order_relaxed) < end_time) {
      slot.store(end_time, std::memory_order_release);
    }
  }

 private:
  static std::size_t slot_index() noexcept {
    return thread_ordinal() & (kSlots - 1);
  }

  Ticket tick_gv4(std::uint64_t start_time) noexcept {
    // One CAS attempt. `seen` is loaded after all write locks (tick()
    // precondition), so seen >= start_time and either outcome yields
    // end_time > a post-lock clock value:
    //   win:  end = seen + 1; skip validation iff seen == start_time
    //         (the exact GV1 condition).
    //   lose: the CAS wrote the winner's value (> seen) into `seen`;
    //         adopt it and share the timestamp. The winner validates/
    //         unlocks independently; we must validate, since its commit
    //         (and any we raced) postdates our snapshot.
    std::uint64_t seen = clock_.value.load(std::memory_order_acquire);
    // Availability fault: the CAS loses to a phantom winner. Modeled as
    // advancing the clock on the phantom's behalf and taking the adopt
    // path. This is the only way votm-check reaches the loser branch:
    // under the cooperative scheduler load+CAS run in one atomic turn, so
    // the CAS never loses naturally.
    if (VOTM_FAULT(kGv4ClockCasLost)) {
      const std::uint64_t adopted =
          clock_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
      return Ticket{adopted, true};
    }
    if (clock_.value.compare_exchange_strong(seen, seen + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return Ticket{seen + 1, seen != start_time};
    }
    return Ticket{seen, true};
  }

  Ticket tick_gv6(std::uint64_t start_time) noexcept {
    // The fence pairs with the reader-side fences (header comment): it
    // orders this committer's lock CASes into S before the scan, so a
    // reader whose bound turns out to be >= our end_time is guaranteed to
    // observe those CASes. The scan itself must run after all write locks
    // (tick() precondition), exactly like the single-word policies' load.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint64_t seen = shard_max();
    const std::uint64_t end = std::max(seen, start_time) + 1;
    // Publish into our own shard BEFORE the ticket returns — an orec can
    // only ever carry a version some shard has already reached, which is
    // what makes extension_bound() >= observed (retry termination).
    raise_own_shard(end);
    return Ticket{end, true};
  }

  Ticket tick_gv5(std::uint64_t start_time) noexcept {
    // No global RMW. The global load must still happen here, after the
    // write locks — deriving end_time from the cached slot alone would
    // let a writer with a stale view commit "behind" a fresh reader's
    // snapshot. Maxing in the own-slot cache keeps a thread's timestamps
    // strictly increasing even when the global clock lags.
    const std::uint64_t cached =
        slots_[slot_index()].value.load(std::memory_order_relaxed);
    const std::uint64_t seen = clock_.value.load(std::memory_order_acquire);
    const std::uint64_t end = std::max({seen, cached, start_time}) + 1;
    return Ticket{end, true};
  }

  // Fresh max over the GV6 shards. Seq_cst loads — the S-ordering of these
  // loads against the CAS-maxes is what the safety argument runs on; on
  // x86-64 a seq_cst load is a plain MOV, so this costs the same as the
  // acquire scan it replaces.
  std::uint64_t shard_max() const noexcept {
    std::uint64_t m = 0;
    for (const auto& s : shards_) {
      m = std::max(m, s.value.load(std::memory_order_seq_cst));
    }
    return m;
  }

  // CAS-max the calling thread's shard to `value`. Losing the CAS to a
  // larger value is success (the shard already dominates); shards only
  // ever grow.
  void raise_own_shard(std::uint64_t value) noexcept {
    std::atomic<std::uint64_t>& shard =
        shards_[thread_ordinal() & (kGv6Shards - 1)].value;
    std::uint64_t cur = shard.load(std::memory_order_relaxed);
    while (cur < value &&
           !shard.compare_exchange_weak(cur, value, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
      // cur reloaded by the failed CAS.
    }
  }

  // Scan the shards, fold in `observed`, publish the result as this
  // thread's cached begin bound. The trailing fence makes the bound —
  // and every later reuse of it from the slot — carry the "observes the
  // lock CASes of writers with end <= bound" guarantee (header comment).
  // The sched point lets votm-check interleave writer ticks into the
  // middle of the reader's scan; it sits before any shard access so the
  // no-point-after-publication rule is untouched (this path never runs
  // inside a commit tail).
  std::uint64_t refresh_gv6_bound(std::uint64_t observed) noexcept {
    VOTM_SCHED_POINT(kStmClockShardScan);
    const std::uint64_t bound = std::max(shard_max(), observed);
    bounds_[slot_index()].value.store(bound, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return bound;
  }

  CacheLinePadded<std::atomic<std::uint64_t>> clock_{};
  CacheLinePadded<std::atomic<std::uint64_t>> slots_[kSlots]{};
  // GV6 state, idle (a few KiB of zeroed padding) under other policies:
  // the commit shards and the per-thread cached begin bounds. bounds_
  // aliases like slots_ (ordinal & (kSlots - 1)); a bound written by an
  // aliased peer is still sound to reuse because begin_snapshot()'s own
  // slot load + fence re-establishes the ordering for THIS thread.
  CacheLinePadded<std::atomic<std::uint64_t>> shards_[kGv6Shards]{};
  CacheLinePadded<std::atomic<std::uint64_t>> bounds_[kSlots]{};
  ClockPolicy policy_;
};

}  // namespace votm::stm
