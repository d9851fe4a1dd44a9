// Epoch-based grace-period tracking and limbo-list memory reclamation.
//
// The hazard this layer removes: a writer commits a transaction that
// unlinked a node from a shared structure and called View::free on it.
// Before this layer, the block went back to the arena free list the
// instant the commit published — while concurrently executing *doomed*
// transactions (ones that began before the commit and will fail
// validation) may still speculatively read it. Freed-and-reused memory
// plus a doomed reader is a use-after-free.
//
// The fix is classic epoch-based reclamation (EBR), shaped like the
// EPOCH/ALLOCATOR policy slots of the zardoshti OrecEager exemplar
// (SNIPPETS.md Snippet 2), specialised to the view architecture:
//
//   * EpochTracker — a global era counter plus kSlots per-thread pin
//     slots (same dense thread_ordinal() mapping as the commit clock's
//     per-thread slots). A transaction *pins* the current era for
//     its whole lifetime (View::enter -> exit/abort, covering doomed
//     execution and rollback); the *active horizon* is the minimum era
//     pinned by any in-flight transaction.
//   * LimboList — tx_free at commit does not free: it *retires* the
//     block into a limbo list, stamped with the current era. A reclaim
//     pass advances the era and hands back to the arena only blocks
//     whose era stamp is strictly below the active horizon — i.e.
//     blocks retired before every in-flight transaction began.
//
// Why eras, not commit timestamps, gate the arena (the horizon
// contract). A horizon built from per-thread last-commit timestamps
// fails twice as a *safety* gate:
//
//   1. Liveness: a thread that commits once during setup and then goes
//      idle (every benchmark's main thread) would pin such a horizon
//      below all later stamps forever — limbo would never drain.
//      Era pins are held only for the duration of a transaction, so the
//      horizon advances as soon as in-flight transactions finish.
//   2. Coverage: read-only commits do zero clock traffic by design, and
//      *doomed* transactions never commit at all — precisely the
//      transactions the grace period must wait out.
//
// So "every thread has advanced past that stamp" is implemented with
// per-thread pin slots in *era* units, advanced on transaction exit.
//
// Memory-order contract (all era_/slot operations are seq_cst; the
// retire/advance pair is additionally serialised by the limbo mutex):
//
//   * Pin (enter): publish {era e, count 1} into the slot with a CAS,
//     then RE-READ era_ and retry while it moved. The revalidation
//     closes the missed-pin race: if a concurrent reclaim pass's slot
//     scan missed this pin, the scan's era advance is seq_cst-ordered
//     before the pin's publication, so the revalidation load must
//     observe the advanced era and the pin re-publishes under the new
//     era (conservative: the retry can only raise the pinned era).
//     While count > 0 further pins on the same slot *join* (count+1)
//     without touching the era bits, so a slot's era is constant over a
//     continuous active streak and joining is conservative (the joiner
//     inherits an era <= current). A PENDING bit marks the publish ->
//     revalidate window so joiners cannot ride an unvalidated era; they
//     spin behind a kEpochPinWait yield point.
//   * Unpin (exit): one fetch_sub. It is sequenced after every memory
//     access the transaction made; a later scan load of the slot reads
//     that RMW (or a later one in the slot's modification order) and so
//     synchronizes-with it — every access the departing transaction
//     made happens-before any free the scan authorises. This is the
//     edge that makes reclamation TSan-clean, not just ASan-clean.
//   * Retire: takes the limbo mutex, reads the era stamp under it,
//     pushes the node. Advance: a reclaim pass takes the same mutex,
//     detaches the list, THEN advances era_, THEN scans the slots.
//     Because era_ is only ever advanced under the mutex, a node
//     stamped era s proves every advance writing > s is mutex-ordered
//     after the retire — so a transaction that pins an era > s read it
//     from such an advance and therefore happens-after the retire (and
//     the unlink publication sequenced before it): it can no longer
//     reach the block through memory. A transaction pinned at an era
//     <= s keeps the node in limbo.
//
// Cost shape: pin/unpin are two uncontended same-line RMWs per
// *transaction* (not per access), on a per-thread padded slot; retire
// is a short mutex push per freed block on the post-commit path; the
// reclaim pass is amortised (triggered by limbo depth) and runs
// entirely off the commit hot path, per the timestamp-granularity
// caution in PAPERS.md ("The Impact of Timestamp Granularity in OCC").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "util/cacheline.hpp"
#include "util/thread_ordinal.hpp"

namespace votm::stm {

// Grace-period era tracker. See the file header for the full protocol
// and memory-order contract.
class EpochTracker {
 public:
  static constexpr std::size_t kSlots = 64;

  // Pin the current era for this thread. Reentrant-free by contract: a
  // thread pins once per transaction (View enforces one active
  // transaction per thread). Distinct threads mapping to the same slot
  // join the slot's pinned streak, which is conservative.
  void enter() noexcept {
    std::atomic<std::uint64_t>& slot = slot_for_this_thread();
    std::uint64_t w = slot.load();
    for (;;) {
      if ((w & kPendingBit) != 0) {
        // A peer is mid publish->revalidate on this slot; its era bits
        // are not yet trustworthy. Store-free window, so under the
        // cooperative harness the owner finishes within its turn.
        VOTM_SCHED_YIELD_POINT(kEpochPinWait);
        w = slot.load();
        continue;
      }
      if ((w & kCountMask) != 0) {
        // Join the active streak; era bits unchanged (conservative).
        if (slot.compare_exchange_weak(w, w + 1)) return;
        continue;  // w reloaded by the failed CAS
      }
      // First pin on an idle slot: publish, then revalidate the era.
      std::uint64_t e = era_.load();
      if (!slot.compare_exchange_weak(w, pack(e) | kPendingBit | 1)) {
        continue;
      }
      while (era_.load() != e) {
        e = era_.load();
        slot.store(pack(e) | kPendingBit | 1);
      }
      slot.fetch_and(~kPendingBit);
      return;
    }
  }

  // Unpin. Must be sequenced after the transaction's last access to any
  // memory it could only reach through a now-retired block (i.e. after
  // commit write-back or rollback completes).
  void exit() noexcept { slot_for_this_thread().fetch_sub(1); }

  std::uint64_t era() const noexcept { return era_.load(); }

  // Advance the global era. Callers that use the result to authorise
  // frees must order this after observing the nodes they will free
  // (LimboList does, under its mutex).
  std::uint64_t advance() noexcept { return era_.fetch_add(1) + 1; }

  // Minimum era pinned by any in-flight transaction; the current era
  // when none is in flight. A slot mid publish->revalidate (PENDING)
  // counts as pinned at its provisional era, which is conservative.
  std::uint64_t active_horizon() const noexcept {
    std::uint64_t h = ~std::uint64_t{0};
    bool any = false;
    for (const auto& s : slots_) {
      const std::uint64_t w = s->load();
      if ((w & (kCountMask | kPendingBit)) != 0) {
        any = true;
        const std::uint64_t e = w >> kEraShift;
        if (e < h) h = e;
      }
    }
    return any ? h : era_.load();
  }

  // Introspection for tests.
  std::size_t active_slots() const noexcept {
    std::size_t n = 0;
    for (const auto& s : slots_) {
      n += (s->load() & kCountMask) != 0 ? 1 : 0;
    }
    return n;
  }

 private:
  // Slot word layout: [63:16] pinned era, [15] PENDING, [14:0] count.
  // 2^48 eras at one advance per reclaim pass outlives any run; count
  // overflows at 32767 concurrent pins on one slot (64 slots map dense
  // thread ordinals, so that needs >2M live threads).
  static constexpr std::uint64_t kCountMask = 0x7fff;
  static constexpr std::uint64_t kPendingBit = 0x8000;
  static constexpr unsigned kEraShift = 16;

  static constexpr std::uint64_t pack(std::uint64_t era) noexcept {
    return era << kEraShift;
  }

  std::atomic<std::uint64_t>& slot_for_this_thread() noexcept {
    return *slots_[thread_ordinal() & (kSlots - 1)];
  }

  // Era starts at 1 so stamp 0 can never equal a live era (and a
  // horizon forced to 0 by kEpochStaleHorizon defers everything).
  std::atomic<std::uint64_t> era_{1};
  CacheLinePadded<std::atomic<std::uint64_t>> slots_[kSlots]{};
};

// Aggregate reclamation counters (monotone except depth).
struct ReclaimStats {
  std::uint64_t retired = 0;        // blocks ever pushed into limbo
  std::uint64_t reclaimed = 0;      // blocks handed back to the arena
  std::uint64_t passes = 0;         // reclaim passes that ran
  std::uint64_t forced_passes = 0;  // passes with force=true
  std::size_t depth = 0;            // blocks currently in limbo
  std::size_t depth_hwm = 0;        // high-water mark of depth
};

// Limbo list: retired-but-not-yet-reclaimed blocks. Push is a short
// mutex critical section (no sched points held inside, so the
// cooperative harness never parks a holder); the reclaim pass detaches,
// advances the era, scans, and frees eligible blocks outside the lock.
class LimboList {
 public:
  LimboList() = default;
  LimboList(const LimboList&) = delete;
  LimboList& operator=(const LimboList&) = delete;

  // Frees the node bookkeeping only: the blocks belong to the arena,
  // which the owning View destroys wholesale right after.
  ~LimboList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }

  // Retire a block freed by a committed transaction. The era stamp is
  // read under the mutex — see the memory-order contract in the file
  // header.
  void retire(EpochTracker& epoch, void* block) noexcept {
    Node* node = new Node;
    node->block = block;
    {
      std::lock_guard<std::mutex> lk(mu_);
      node->era = epoch.era();
      node->next = head_;
      head_ = node;
    }
    const std::size_t d = depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t hwm = depth_hwm_.load(std::memory_order_relaxed);
    while (d > hwm &&
           !depth_hwm_.compare_exchange_weak(hwm, d,
                                             std::memory_order_relaxed)) {
    }
    retired_.fetch_add(1, std::memory_order_relaxed);
  }

  // Run a reclaim pass: advance the era, compute the active horizon,
  // free every limbo block whose era stamp is strictly below it.
  // free_block(void*) hands a block back to the arena.
  // force=false uses try_lock (amortised callers skip when a pass is
  // already running); force=true blocks. Returns blocks reclaimed.
  // The kEpochAdvance schedule point lives in the caller (View::
  // reclaim_pass), BEFORE any lock is taken: parking a thread here while
  // it holds a blockable mutex would deadlock the cooperative harness.
  template <typename FreeBlockFn>
  std::size_t reclaim(EpochTracker& epoch, bool force,
                      FreeBlockFn&& free_block) {
    if (force) {
      mu_.lock();
    } else if (!mu_.try_lock()) {
      return 0;
    }
    passes_.fetch_add(1, std::memory_order_relaxed);
    if (force) forced_passes_.fetch_add(1, std::memory_order_relaxed);
    if (head_ == nullptr) {
      mu_.unlock();
      return 0;
    }
    Node* all = head_;
    head_ = nullptr;
    // Advance AFTER detaching (observing) the nodes: any transaction
    // that later pins the advanced era happens-after every retire in
    // the detached list (see the file-header contract).
    epoch.advance();
    std::uint64_t horizon = epoch.active_horizon();
    if (VOTM_FAULT(kEpochStaleHorizon)) {
      // Maximally stale bound: nothing is eligible; everything is
      // deferred (availability fault — reclamation stalls but stays
      // safe, and drains once the fault lifts).
      horizon = 0;
    }
    Node* eligible = nullptr;
    Node* kept = nullptr;
    std::size_t n = 0;
    while (all != nullptr) {
      Node* next = all->next;
      if (all->era < horizon) {
        all->next = eligible;
        eligible = all;
        ++n;
      } else {
        all->next = kept;
        kept = all;
      }
      all = next;
    }
    head_ = kept;
    mu_.unlock();
    if (n == 0) return 0;
    while (eligible != nullptr) {
      Node* next = eligible->next;
      free_block(eligible->block);
      delete eligible;
      eligible = next;
    }
    depth_.fetch_sub(n, std::memory_order_relaxed);
    reclaimed_.fetch_add(n, std::memory_order_relaxed);
    return n;
  }

  std::size_t depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }

  ReclaimStats stats() const noexcept {
    ReclaimStats s;
    s.retired = retired_.load(std::memory_order_relaxed);
    s.reclaimed = reclaimed_.load(std::memory_order_relaxed);
    s.passes = passes_.load(std::memory_order_relaxed);
    s.forced_passes = forced_passes_.load(std::memory_order_relaxed);
    s.depth = depth_.load(std::memory_order_relaxed);
    s.depth_hwm = depth_hwm_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Node {
    Node* next = nullptr;
    void* block = nullptr;
    std::uint64_t era = 0;
  };

  std::mutex mu_;            // guards head_ and era stamping/advance order
  Node* head_ = nullptr;     // guarded by mu_
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::size_t> depth_hwm_{0};
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> forced_passes_{0};
};

}  // namespace votm::stm
