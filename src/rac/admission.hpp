// The admission controller: RAC's P/Q gate (paper Sec. II).
//
// Before a view is accessed, acquire_view compares the number of admitted
// threads P with the quota Q: if P < Q the thread enters (P + 1) and starts
// a transaction; otherwise it blocks until P < Q. release_view (and every
// abort-and-reacquire cycle) decrements P.
//
// Fast path (AdmissionImpl::kAtomic, the default): P, Q, the waiter count W
// and the pause/drain bits live in ONE 64-bit atomic word, so admit/leave at
// P < Q are a single CAS / fetch_sub and never touch a mutex. This matters
// because at Q = N — the uncontended regime where the paper says TM should
// win — a per-admission mutex is itself the contention hot spot and distorts
// the very delta(Q) cycle accounting that drives RAC's Eq. 5 adaptation.
//
//   bits  0..15  P  admitted count
//   bits 16..31  Q  quota (so the quota snapshot admit() returns is taken
//                   atomically with the admission, for free)
//   bits 32..47  W  waiters (threads parked, or committed to parking)
//   bit  48         PAUSED (pause()/resume() quiesce protocol)
//   bit  49         DRAIN  (set_quota transition; blocks new admissions so
//                          the drain is bounded)
//   bit  50         OPEN   (gate-open mode, see below)
//   bit  51         RESIDUE (slot residents from a closed gate-open epoch
//                           still count against the quota until they leave)
//   bit  52         SERIAL (escalation ladder: a starving transaction holds
//                          the serial token; admissions blocked, effective
//                          Q = 1 while it runs irrevocably — DESIGN.md §14)
//   bit  53         DRAINED (a hard close drained every slot, and OPEN has
//                           not been set since: no slot resident exists)
//
// Gate-open mode: when Q == max_threads and the gate is neither paused nor
// draining, admission can NEVER block — each of the <= max_threads threads
// holds at most one admission, so P < Q whenever anyone calls admit(). In
// that regime (the paper's uncontended Q = N case) even the CAS gate is
// pure overhead: two lock-prefixed RMWs per transaction on one shared
// cacheline. With the OPEN bit set, admit/leave instead bump an
// owner-exclusive per-thread slot counter pair (in/out) with plain release
// stores — no RMW at all. Closing the gate (pause, set_quota away from N)
// clears OPEN and issues an asymmetric heavy fence (membarrier): after it,
// every fence-free admission is either visible in the slot sums or will
// observe the cleared OPEN bit and undo itself, so a fence-free admission
// that sneaks past a closed gate is impossible
// (util/asymmetric_fence.hpp documents the argument). pause() then polls
// the slot sums until every in == out; set_quota instead lowers the quota
// immediately (lowering must not wait — callers may hold admissions) and
// sets RESIDUE, which folds the remaining slot residents into the gated
// admission check until they have all left.
// If membarrier is unavailable the OPEN bit is simply never set and every
// admission takes the CAS gate.
//
// Quota correctness in gate-open mode relies on the usage contract that
// the total number of concurrently held admissions never exceeds
// max_threads (automatic when each of <= max_threads threads holds at
// most one admission — the acquire/release discipline every view client
// follows), and that leave() runs on the admitting thread: an open-mode
// admission is ledgered in the admitting thread's slot, like a mutex
// release. The gated CAS path keeps the seed behaviour of tolerating a
// cross-thread leave (the drain tests use it at Q < max_threads).
//
// When the view is full or paused, admit() spins briefly (bounded budget,
// exponential cpu_relax windows) and then parks on a condvar: the paper runs
// N = 16 threads and the quota may be 1, so up to 15 threads can be blocked
// at once — unbounded spinning would destroy the lock-mode (Q = 1) results
// on an oversubscribed host. leave() wakes parked threads only when W > 0;
// the common no-waiter exit is mutex- and syscall-free.
//
// The legacy mutex+condvar implementation is kept behind
// AdmissionImpl::kMutex as the A/B baseline for bench/micro_admission.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "util/asymmetric_fence.hpp"
#include "util/cacheline.hpp"
#include "util/thread_ordinal.hpp"

namespace votm::rac {

enum class AdmissionImpl : std::uint8_t {
  kAtomic,  // packed-word CAS fast path (default)
  kMutex,   // legacy mutex gate, kept for A/B benchmarking
};

class AdmissionController {
 public:
  // Spin budget: cpu_relax iterations spent waiting for a slot before
  // parking. Small by default — on an oversubscribed host the holder is
  // likely descheduled and spinning only delays it further.
  static constexpr unsigned kDefaultSpinBudget = 128;

  // initial_quota is clamped to [1, max_threads].
  AdmissionController(unsigned max_threads, unsigned initial_quota,
                      AdmissionImpl impl = AdmissionImpl::kAtomic,
                      unsigned spin_budget = kDefaultSpinBudget);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Blocks until P < Q, then enters (P += 1). Returns the quota observed
  // atomically with the admission — the caller uses it to pick lock mode
  // (Q == 1) vs transactional mode for this execution. The mode-switch
  // safety argument needs the snapshot to be atomic with the admission;
  // the packed word gives this without a lock (see DESIGN.md §11).
  //
  // The CAS fast path is inlined: this runs once per transaction attempt
  // and an out-of-line call would cost as much as the gate itself.
  unsigned admit() {
    if (impl_ == AdmissionImpl::kAtomic) {
      std::uint64_t w = state_.load(std::memory_order_acquire);
      if (w & kOpenBit) {
        if (Slot* s = my_slot()) {
          VOTM_SCHED_POINT(kAdmSlotEnter);
          if (slot_enter(*s)) return max_threads_;
        }
        w = state_.load(std::memory_order_acquire);
      }
      while (!gate_closed(w) && p_of(w) < q_of(w)) {
        VOTM_SCHED_POINT(kAdmCas);
        // Availability fault: the CAS loses as if a peer raced us; the loop
        // re-examines the word, so a bounded plan only costs extra laps.
        if (VOTM_FAULT(kAdmitCasFail)) {
          w = state_.load(std::memory_order_acquire);
          continue;
        }
        if (state_.compare_exchange_weak(w, w + kPOne,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          return q_of(w);
        }
      }
      return admit_contended();
    }
    return admit_mutex();
  }

  // Non-blocking variant; on success stores the observed quota.
  bool try_admit(unsigned* quota_out = nullptr) {
    if (impl_ == AdmissionImpl::kMutex) return try_admit_mutex(quota_out);
    std::uint64_t w = state_.load(std::memory_order_acquire);
    if (w & kOpenBit) {
      if (Slot* s = my_slot()) {
        VOTM_SCHED_POINT(kAdmSlotEnter);
        if (slot_enter(*s)) {
          if (quota_out != nullptr) *quota_out = max_threads_;
          return true;
        }
      }
      w = state_.load(std::memory_order_acquire);
    }
    for (;;) {
      if (gate_closed(w)) {
        if (hard_closed(w)) return false;
        return try_admit_residue(quota_out);
      }
      if (p_of(w) >= q_of(w)) return false;
      VOTM_SCHED_POINT(kAdmCas);
      if (VOTM_FAULT(kAdmitCasFail)) {
        w = state_.load(std::memory_order_acquire);
        continue;
      }
      if (state_.compare_exchange_weak(w, w + kPOne,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        if (quota_out != nullptr) *quota_out = q_of(w);
        return true;
      }
    }
  }

  // Leaves; wakes parked threads only when any exist — the common exit is
  // one plain store (open mode) or one fetch_sub (gated), never a syscall.
  void leave() {
    if (impl_ == AdmissionImpl::kAtomic) {
      // A slot with in != out records this thread's open-mode admission
      // (a thread holds at most one admission per controller, so the two
      // ledgers can't both be charged). The release store pairs with the
      // drain poll's acquire read: a pause() that observes the slot drained
      // also observes everything this thread did inside the view.
      if (Slot* s = my_slot()) {
        const std::uint64_t in = s->in.load(std::memory_order_relaxed);
        const std::uint64_t out = s->out.load(std::memory_order_relaxed);
        if (in != out) {
          VOTM_SCHED_POINT(kAdmSlotLeave);
          s->out.store(out + 1, std::memory_order_release);
          return;  // drain loops poll with a timeout; no notify needed
        }
      }
      // Gated leave. Release ordering: a later admit/pause that observes
      // this decrement also observes everything this thread did inside the
      // view (the engine-swap safety argument in View::switch_algorithm
      // needs it).
      VOTM_SCHED_POINT(kAdmLeave);
      const std::uint64_t old =
          state_.fetch_sub(kPOne, std::memory_order_acq_rel);
      if (w_of(old) == 0) return;
      leave_wake(old);
    } else {
      leave_mutex();
    }
  }

  unsigned quota() const {
    if (impl_ == AdmissionImpl::kMutex) return quota_mutex();
    return q_of(state_.load(std::memory_order_acquire));
  }

  // One internally consistent snapshot of (quota, admitted, serial holder).
  // Separate quota()/admitted() calls each load state_, so a concurrent
  // set_quota or serial drain can hand the caller a pair that never
  // coexisted (admitted > quota with no overload in sight); the sample
  // decodes ONE word — one lock acquisition in the mutex impl — so the
  // triple is a state that actually existed. View::health() reports this.
  struct Sample {
    unsigned quota = 0;
    unsigned admitted = 0;
    int serial_holder = -1;  // thread ordinal, -1 = token not held
  };
  Sample sample() const {
    if (impl_ == AdmissionImpl::kMutex) return sample_mutex();
    const std::uint64_t w = state_.load(std::memory_order_acquire);
    Sample s;
    s.quota = q_of(w);
    s.admitted = admitted_of(w);
    const std::uint64_t h = serial_holder_.load(std::memory_order_acquire);
    s.serial_holder = h == 0 ? -1 : static_cast<int>(h - 1);
    return s;
  }
  unsigned admitted() const {
    if (impl_ == AdmissionImpl::kMutex) return admitted_mutex();
    return admitted_of(state_.load(std::memory_order_acquire));
  }
  unsigned max_threads() const noexcept { return max_threads_; }
  AdmissionImpl impl() const noexcept { return impl_; }

  // Blocks new admissions and waits until the view drains (P == 0).
  // Used for operations that need the view quiescent while it stays alive:
  // swapping the TM algorithm instance (adaptive TM, paper Sec. IV-C).
  // Calls do not nest.
  void pause();

  // Re-allows admissions after pause().
  void resume();

  // Sets Q (clamped to [1, max_threads]); raising it wakes all waiters.
  //
  // Raising the quota *from 1* first waits for the view to drain
  // (admitted == 0): a thread admitted at Q == 1 runs in lock mode with
  // uninstrumented accesses, and no transactional thread may overlap it.
  // Lowering, or changes between transactional quotas, apply immediately.
  void set_quota(unsigned q);

  // ---- serial token (escalation ladder, DESIGN.md §14) --------------------
  // Blocks until this thread exclusively owns the serial token: new
  // admissions are fenced off (the SERIAL bit closes the gate exactly like
  // PAUSED) and every already-admitted transaction has drained, then the
  // caller self-admits as the sole resident — effective Q = 1 without
  // touching the configured quota. The caller runs one irrevocable
  // transaction and must call release_serial(). Must not be called while
  // holding an admission. Calls do not nest.
  void acquire_serial();

  // Releases the token and the self-admission, reopens the gate and wakes
  // every parked thread.
  void release_serial();

  // True while some thread holds (or is draining for) the serial token.
  bool serial_active() const {
    if (impl_ == AdmissionImpl::kMutex) {
      std::lock_guard<std::mutex> lk(mu_);
      return serial_mode_;
    }
    return (state_.load(std::memory_order_acquire) & kSerialBit) != 0;
  }

  // Thread ordinal of the current serial-token holder, or -1 when none.
  // Diagnostic (watchdog / oracles): sampled racily by design.
  int serial_holder() const noexcept {
    const std::uint64_t h = serial_holder_.load(std::memory_order_acquire);
    return h == 0 ? -1 : static_cast<int>(h - 1);
  }

 private:
  // ---- packed-word helpers -----------------------------------------------
  static constexpr std::uint64_t kFieldMask = 0xFFFFu;
  static constexpr unsigned kQShift = 16;
  static constexpr unsigned kWShift = 32;
  static constexpr std::uint64_t kPOne = 1;
  static constexpr std::uint64_t kWOne = std::uint64_t{1} << kWShift;
  static constexpr std::uint64_t kPausedBit = std::uint64_t{1} << 48;
  static constexpr std::uint64_t kDrainBit = std::uint64_t{1} << 49;
  static constexpr std::uint64_t kOpenBit = std::uint64_t{1} << 50;
  static constexpr std::uint64_t kResidueBit = std::uint64_t{1} << 51;
  static constexpr std::uint64_t kSerialBit = std::uint64_t{1} << 52;
  static constexpr std::uint64_t kDrainedBit = std::uint64_t{1} << 53;

  static unsigned p_of(std::uint64_t w) noexcept {
    return static_cast<unsigned>(w & kFieldMask);
  }
  static unsigned q_of(std::uint64_t w) noexcept {
    return static_cast<unsigned>((w >> kQShift) & kFieldMask);
  }
  static unsigned w_of(std::uint64_t w) noexcept {
    return static_cast<unsigned>((w >> kWShift) & kFieldMask);
  }
  // True when the CAS fast path must defer to the slow path (hard-closed
  // gate, or residue accounting that needs the slot sums).
  static bool gate_closed(std::uint64_t w) noexcept {
    return (w & (kPausedBit | kDrainBit | kResidueBit | kSerialBit)) != 0;
  }
  static bool hard_closed(std::uint64_t w) noexcept {
    return (w & (kPausedBit | kDrainBit | kSerialBit)) != 0;
  }
  static std::uint64_t with_quota(std::uint64_t w, unsigned q) noexcept {
    return (w & ~(kFieldMask << kQShift)) |
           (static_cast<std::uint64_t>(q) << kQShift);
  }

  // ---- open-mode slots ----------------------------------------------------
  // One per thread (claimed on first use), written only by its owner:
  // in/out are plain release stores, never RMWs. in - out is 1 while the
  // owner holds an open-mode admission, else 0.
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint64_t> owner{0};  // thread token; 0 = free
    std::atomic<std::uint64_t> in{0};
    std::atomic<std::uint64_t> out{0};
  };

  struct SlotCacheEntry {
    std::uint64_t serial;  // controller serial; 0 never matches
    unsigned idx;          // kNoSlot caches "this thread has none"
  };
  static constexpr unsigned kSlotCacheWays = 8;
  static constexpr unsigned kNoSlot = ~0u;

  // This thread's slot, or nullptr when more distinct threads than
  // max_threads have used the controller (they fall back to the CAS gate).
  // The thread-local cache makes the common lookup a couple of loads.
  Slot* my_slot() noexcept {
    static thread_local SlotCacheEntry cache[kSlotCacheWays] = {};
    SlotCacheEntry& e = cache[serial_ & (kSlotCacheWays - 1)];
    if (e.serial == serial_) {
      return e.idx == kNoSlot ? nullptr : &slots_[e.idx];
    }
    return claim_slot(e);
  }

  // Open-mode entry: publish in+1, then re-check the gate. The signal
  // fence keeps the compiled order store-then-load; the gate closer's
  // heavy fence (membarrier) guarantees it either observes our entry in
  // its drain poll or we observe the cleared OPEN bit here and undo.
  bool slot_enter(Slot& s) noexcept {
    s.in.store(s.in.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    // The fence-protocol crux: between the in-store above and the OPEN
    // re-check below a gate closer may run its heavy fence and drain poll.
    VOTM_SCHED_POINT(kAdmSlotPublished);
    if (state_.load(std::memory_order_acquire) & kOpenBit) return true;
    s.out.store(s.out.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
    return false;
  }

  Slot* claim_slot(SlotCacheEntry& e) noexcept;
  // Drain-poll reader: out before in per slot, so a concurrent entry can
  // only OVERestimate — by however many enter/leave cycles the owner
  // completes between the two loads, which under churn is unbounded. Fine
  // for polls that re-check until zero; never use it for a snapshot.
  std::uint64_t stripes_pending() const noexcept;
  // Diagnostic reader for sample()/admitted(): in before out per slot,
  // clamped to {0, 1} residency. Since out only grows, the per-slot value
  // is at most the residency at the in-load instant, so the sum is bounded
  // by max_threads — it may transiently MISS a resident entering mid-scan,
  // which a health sampler tolerates and a drain poll must not. It also
  // counts a straggler between its in-store and its undo as a resident,
  // which is why admitted_of() skips it once a drain has completed.
  unsigned stripes_resident() const noexcept;
  // Admissions held in word w: P, plus the slot residents unless DRAINED
  // says there are none. After a drain, a try_admit/admit straggler that
  // loaded OPEN before the close can still publish in + 1; the heavy fence
  // guarantees its re-check sees OPEN cleared and undoes it, so it never
  // becomes a resident, but stripes_resident() would count it in between.
  // pause() and acquire_serial() set DRAINED; set_quota's lock-mode drain
  // waits for P only (residue residents may still sit in their slots), so
  // it leaves the bit alone.
  unsigned admitted_of(std::uint64_t w) const noexcept {
    return p_of(w) + ((w & kDrainedBit) ? 0u : stripes_resident());
  }
  // Sets OPEN (retiring any residue — the residents just become ordinary
  // slot residents again) when the word qualifies: Q == max_threads, gate
  // not hard-closed, and the host supports the asymmetric fence. Opening
  // clears DRAINED in the same word: from here on slot entries can stick.
  std::uint64_t maybe_open(std::uint64_t w) const noexcept {
    if (open_ok_ && q_of(w) == max_threads_ && !hard_closed(w)) {
      return (w & ~(kResidueBit | kDrainedBit)) | kOpenBit;
    }
    return w;
  }

  // Acquires mu_ for a slow-path mutator (pause/resume/set_quota). Under
  // the votm-check cooperative harness these paths park at sched points
  // while holding mu_, so intercepted threads must never hard-block on it:
  // they spin through a yield point instead.
  std::unique_lock<std::mutex> lock_slow_path();

  // try_admit when the word carries RESIDUE: folds the slot residents into
  // the quota check, and retires the bit once they have all left.
  bool try_admit_residue(unsigned* quota_out);
  // Fast path missed: bounded spin-with-backoff, then condvar parking.
  unsigned admit_contended();
  // Parks on the condvar until admitted; returns the observed quota.
  unsigned admit_park();
  // A leave() that saw parked threads: notify under the waker protocol.
  void leave_wake(std::uint64_t old_word);

  // ---- legacy mutex implementation ---------------------------------------
  unsigned admit_mutex();
  bool try_admit_mutex(unsigned* quota_out);
  void leave_mutex();
  void pause_mutex();
  void resume_mutex();
  void set_quota_mutex(unsigned q);
  void acquire_serial_mutex();
  void release_serial_mutex();
  unsigned quota_mutex() const;
  unsigned admitted_mutex() const;
  Sample sample_mutex() const;

  const unsigned max_threads_;
  const AdmissionImpl impl_;
  const unsigned spin_budget_;
  const bool open_ok_;         // asymmetric fence available on this host
  const std::uint64_t serial_; // process-unique, keys the slot cache
  std::unique_ptr<Slot[]> slots_;  // max_threads_ entries

  // Atomic impl: all admission state lives here; mu_/cv_ are only touched
  // by parked threads and their wakers.
  std::atomic<std::uint64_t> state_{0};

  // Serial-token holder's thread ordinal + 1; 0 = none. Shared by both
  // impls (diagnostic only — the token itself is kSerialBit / serial_mode_).
  std::atomic<std::uint64_t> serial_holder_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;

  // Mutex impl state (unused in kAtomic mode).
  unsigned quota_ = 1;
  unsigned admitted_ = 0;
  bool paused_ = false;
  bool serial_mode_ = false;
};

}  // namespace votm::rac
