#include "rac/admission.hpp"

#include <algorithm>
#include <chrono>

#include "util/backoff.hpp"

namespace votm::rac {
namespace {

std::uint64_t next_serial() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Poll period for every condvar wait in this file. Drain loops need it
// because the open-mode fast path never notifies (the closer wakes
// itself); the parking loops use the same bound so a lost or dropped
// notify (see FaultSite::kAdmLostNotify) degrades to a 100us stall
// instead of a permanent hang. Gate transitions and parking are rare
// (adaptation epochs are millisecond-scale); 100us adds nothing visible.
constexpr auto kDrainPoll = std::chrono::microseconds(100);

}  // namespace

AdmissionController::AdmissionController(unsigned max_threads,
                                         unsigned initial_quota,
                                         AdmissionImpl impl,
                                         unsigned spin_budget)
    : max_threads_(std::clamp(max_threads, 1u,
                              static_cast<unsigned>(kFieldMask))),
      impl_(impl),
      spin_budget_(spin_budget),
      open_ok_(impl == AdmissionImpl::kAtomic &&
               asymmetric_fence_available()),
      serial_(next_serial()),
      slots_(impl == AdmissionImpl::kAtomic
                 ? std::make_unique<Slot[]>(max_threads_)
                 : nullptr),
      quota_(std::clamp(initial_quota, 1u, max_threads_)) {
  const std::uint64_t w = static_cast<std::uint64_t>(quota_) << kQShift;
  state_.store(maybe_open(w), std::memory_order_relaxed);
}

AdmissionController::Slot* AdmissionController::claim_slot(
    SlotCacheEntry& e) noexcept {
  const auto token = static_cast<std::uint64_t>(thread_ordinal()) + 1;
  // The cache way may have been evicted by another controller: re-find a
  // slot this thread already owns before claiming a fresh one (a slot must
  // stay with its owner — in/out are owner-exclusive plain stores).
  for (unsigned i = 0; i < max_threads_; ++i) {
    if (slots_[i].owner.load(std::memory_order_relaxed) == token) {
      e = {serial_, i};
      return &slots_[i];
    }
  }
  for (unsigned i = 0; i < max_threads_; ++i) {
    std::uint64_t expect = 0;
    if (slots_[i].owner.compare_exchange_strong(
            expect, token, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      e = {serial_, i};
      return &slots_[i];
    }
  }
  e = {serial_, kNoSlot};  // more distinct threads than slots: CAS gate
  return nullptr;
}

std::uint64_t AdmissionController::stripes_pending() const noexcept {
  if (slots_ == nullptr) return 0;
  std::uint64_t pending = 0;
  for (unsigned i = 0; i < max_threads_; ++i) {
    // out before in: a concurrent entry between the two reads can only
    // overestimate pending (the poll re-checks), never miss a resident.
    const std::uint64_t out = slots_[i].out.load(std::memory_order_acquire);
    const std::uint64_t in = slots_[i].in.load(std::memory_order_acquire);
    pending += in - out;
  }
  return pending;
}

unsigned AdmissionController::stripes_resident() const noexcept {
  if (slots_ == nullptr) return 0;
  unsigned resident = 0;
  for (unsigned i = 0; i < max_threads_; ++i) {
    // in before out: out is monotone, so in(t1) - out(t2) never exceeds
    // the slot's residency (0 or 1) at the in-load instant. Clamps the
    // churn artefact where a sampler descheduled between the two loads of
    // stripes_pending() counts every enter/leave cycle in the gap.
    const std::uint64_t in = slots_[i].in.load(std::memory_order_acquire);
    const std::uint64_t out = slots_[i].out.load(std::memory_order_acquire);
    if (in > out) ++resident;
  }
  return resident;
}

bool AdmissionController::try_admit_residue(unsigned* quota_out) {
  std::uint64_t w = state_.load(std::memory_order_acquire);
  while (w & kResidueBit) {
    VOTM_SCHED_POINT(kAdmResidue);
    if (hard_closed(w)) return false;
    const std::uint64_t pending = stripes_pending();
    if (pending == 0) {
      // All residents of the closed gate-open epoch have left: retire the
      // bit so admissions take the plain CAS path again. (Later transient
      // in/out blips come only from undone stragglers, never residents.)
      state_.compare_exchange_weak(w, w & ~kResidueBit,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire);
      continue;
    }
    if (p_of(w) + pending >= q_of(w)) return false;
    if (state_.compare_exchange_weak(w, w + kPOne, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      if (quota_out != nullptr) *quota_out = q_of(w);
      return true;
    }
  }
  // Residue retired (by us or someone else): take the ordinary path.
  return try_admit(quota_out);
}

// ---------------------------------------------------------------------------
// Packed-word implementation.
//
// Lost-wakeup protocol: a thread that must block first registers in the W
// field and re-checks the state word *while holding mu_*; every waker
// updates the state word first, then acquires-and-releases mu_ before
// notifying. Either the state update precedes the waiter's re-check (the
// waiter never sleeps), or the waker's lock acquisition is forced to wait
// until cv_.wait has released mu_ (the notify reaches the sleeping waiter).
// ---------------------------------------------------------------------------

std::unique_lock<std::mutex> AdmissionController::lock_slow_path() {
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  if (votm::check::thread_intercepted()) {
    while (!lk.try_lock()) {
      VOTM_SCHED_YIELD_POINT(kAdmWait);
    }
  } else {
    lk.lock();
  }
  return lk;
}

unsigned AdmissionController::admit_contended() {
  unsigned q = 0;
  if (votm::check::thread_intercepted()) {
    // Cooperative harness: the scheduler cannot wake a condvar parker, so
    // retry through a yield point until a slot frees up. (The scheduler
    // deprioritises the yielding thread, so this does not starve the
    // resident whose leave() we are waiting on.)
    while (!try_admit(&q)) {
      VOTM_SCHED_YIELD_POINT(kAdmWait);
    }
    return q;
  }
  // Bounded spin-with-backoff: a slot may free up within the budget
  // (another thread's leave() is one plain store or fetch_sub away).
  // Windows grow exponentially so a near-miss retries fast while a full
  // view backs off. try_admit carries the full admission logic (gate-open
  // slots, residue accounting, plain CAS gate).
  unsigned spent = 0;
  unsigned window = 1;
  while (spent < spin_budget_) {
    for (unsigned i = 0; i < window && spent < spin_budget_; ++i, ++spent) {
      Backoff::cpu_relax();
    }
    window = window < 64 ? window * 2 : 64;
    if (try_admit(&q)) return q;
  }
  return admit_park();
}

unsigned AdmissionController::admit_park() {
  std::unique_lock<std::mutex> lk(mu_);
  state_.fetch_add(kWOne, std::memory_order_relaxed);
  unsigned q = 0;
  while (!try_admit(&q)) {
    // Bounded wait, never a bare wait: residue residents leave through
    // their slots without ever notifying, and even on the lock-then-notify
    // paths a missed wakeup must cost one poll period, not a hang.
    cv_.wait_for(lk, kDrainPoll);
  }
  state_.fetch_sub(kWOne, std::memory_order_relaxed);
  return q;
}

void AdmissionController::leave_wake(std::uint64_t old_word) {
  // Under the cooperative harness nobody ever sleeps on cv_ (every wait
  // loop spins through yield points instead), and hard-blocking on mu_
  // here could deadlock against a slow-path mutator parked at a sched
  // point while holding it.
  if (votm::check::thread_intercepted()) return;
  // Availability fault: this leave's notify never happens. The wait_for
  // re-check bounds the damage to one poll period — the regression test
  // in tests/test_fault.cpp pins that down.
  if (VOTM_FAULT(kAdmLostNotify)) return;
  const bool drained = p_of(old_word) == 1;
  { std::lock_guard<std::mutex> lk(mu_); }  // pair with a parker's re-check
  // A drain waiter (pause / set_quota leaving lock mode) may be parked;
  // notify_one could wake an admission waiter instead of it, so broadcast
  // on the drained edge.
  if (drained) {
    cv_.notify_all();
  } else {
    cv_.notify_one();
  }
}

void AdmissionController::pause() {
  if (impl_ == AdmissionImpl::kMutex) return pause_mutex();
  std::unique_lock<std::mutex> lk = lock_slow_path();
  // Close the gate (PAUSED stops gated admissions; clearing OPEN stops
  // fence-free ones), then heavy-fence: from here on every fence-free
  // admission is either visible in the slot sums below or undoes itself.
  std::uint64_t w = state_.load(std::memory_order_acquire);
  while (!state_.compare_exchange_weak(w, (w | kPausedBit) & ~kOpenBit,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
  }
  asymmetric_fence_heavy();
  VOTM_SCHED_POINT(kAdmPauseClosed);
  state_.fetch_add(kWOne, std::memory_order_relaxed);
  // The acquire load that finally observes P == 0 synchronizes with the
  // last gated leave()'s release decrement, and the poll's acquire reads
  // of the out counters do the same for slot residents: the view is
  // quiescent and all its threads' effects are visible.
  while (p_of(state_.load(std::memory_order_acquire)) != 0 ||
         stripes_pending() != 0) {
    if (votm::check::thread_intercepted()) {
      VOTM_SCHED_YIELD_POINT(kAdmPauseDrain);
    } else {
      cv_.wait_for(lk, kDrainPoll);
    }
  }
  // Every slot is drained and OPEN stays clear until resume() (or a later
  // set_quota) reopens it, which clears this bit in the same CAS.
  state_.fetch_sub(kWOne, std::memory_order_relaxed);
  state_.fetch_or(kDrainedBit, std::memory_order_acq_rel);
}

void AdmissionController::resume() {
  if (impl_ == AdmissionImpl::kMutex) return resume_mutex();
  {
    std::unique_lock<std::mutex> lk = lock_slow_path();
    VOTM_SCHED_POINT(kAdmResume);
    // Release ordering: an admit that sees the cleared bit (or the OPEN
    // bit) also sees every write made while the view was paused (e.g. the
    // engine swap).
    std::uint64_t w = state_.load(std::memory_order_acquire);
    while (!state_.compare_exchange_weak(w, maybe_open(w & ~kPausedBit),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    }
  }
  // Availability fault: the resume's broadcast never happens. Parked
  // admitters re-check on the kDrainPoll bound, so the gate still reopens
  // within one poll period (regression test in tests/test_fault.cpp).
  if (VOTM_FAULT(kAdmLostNotify)) return;
  cv_.notify_all();
}

unsigned AdmissionController::quota_mutex() const {
  std::lock_guard<std::mutex> lk(mu_);
  return quota_;
}

unsigned AdmissionController::admitted_mutex() const {
  std::lock_guard<std::mutex> lk(mu_);
  return admitted_;
}

void AdmissionController::set_quota(unsigned q) {
  if (impl_ == AdmissionImpl::kMutex) return set_quota_mutex(q);
  const unsigned clamped = std::clamp(q, 1u, max_threads_);
  std::unique_lock<std::mutex> lk = lock_slow_path();  // serializes mutators
  VOTM_SCHED_POINT(kAdmSetQuota);
  std::uint64_t w = state_.load(std::memory_order_acquire);
  bool raised = false;
  bool gate_was_closed = false;
  for (;;) {
    if (q_of(w) == clamped) break;
    if (w & kOpenBit) {
      // Leaving gate-open mode. Lowering must not wait (callers may hold
      // admissions), so the residents stay accounted in their slots and
      // RESIDUE folds them into gated admission checks until they leave.
      // DRAIN covers just the heavy fence: no gated admission may be
      // granted until every in-flight fence-free admission is either
      // visible in the slot sums or has undone itself — otherwise a
      // transition to Q = 1 could admit a lock-mode thread while an
      // unaccounted open-mode resident is still inside.
      if (!state_.compare_exchange_weak(
              w, (w | kDrainBit | kResidueBit) & ~kOpenBit,
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        continue;
      }
      asymmetric_fence_heavy();
      gate_was_closed = true;
      w = state_.load(std::memory_order_acquire);
      continue;
    }
    if (q_of(w) == 1 && clamped > 1 && p_of(w) != 0) {
      // Leaving lock mode: close the gate (DRAIN) and wait until no
      // lock-mode thread is inside, so a newly admitted transactional
      // thread can never overlap one. The gate bound makes the drain
      // finite even under heavy admission churn.
      state_.fetch_or(kDrainBit, std::memory_order_acq_rel);
      state_.fetch_add(kWOne, std::memory_order_relaxed);
      while (p_of(state_.load(std::memory_order_acquire)) != 0) {
        if (votm::check::thread_intercepted()) {
          VOTM_SCHED_YIELD_POINT(kAdmSetQuotaDrain);
        } else {
          cv_.wait_for(lk, kDrainPoll);
        }
      }
      state_.fetch_sub(kWOne, std::memory_order_relaxed);
      w = state_.load(std::memory_order_acquire);
    }
    raised = clamped > q_of(w);
    const std::uint64_t next =
        maybe_open(with_quota(w, clamped) & ~kDrainBit);
    if (state_.compare_exchange_weak(w, next, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      break;
    }
  }
  lk.unlock();
  // Availability fault: the quota-change broadcast is dropped; the parked
  // threads' wait_for re-checks bound the stall to one poll period.
  if (VOTM_FAULT(kAdmLostNotify)) return;
  // Threads may have parked while the gate was closed for a drain; the
  // install reopened it, so wake them along with any quota-raise waiters.
  if (raised || gate_was_closed) cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Serial token (escalation ladder, DESIGN.md §14).
//
// acquire_serial() is pause() with a twist: the SERIAL bit closes the gate
// the same way PAUSED does (it is part of gate_closed/hard_closed, so both
// the CAS fast path and the fence-free slot path refuse new admissions),
// the same heavy-fence-then-drain sequence waits out the residents, but at
// the end the caller self-admits instead of leaving the view empty — the
// starving transaction runs as the sole resident, effective Q = 1, without
// touching the configured quota. Mutual exclusion among escalating threads
// comes from the token CAS itself (only one SERIAL bit).
// ---------------------------------------------------------------------------

void AdmissionController::acquire_serial() {
  if (impl_ == AdmissionImpl::kMutex) return acquire_serial_mutex();
  // Win the token. PAUSED/DRAIN transitions own the gate exclusively, so
  // wait them out rather than interleaving a third protocol with them.
  std::uint64_t w = state_.load(std::memory_order_acquire);
  for (;;) {
    if ((w & (kSerialBit | kPausedBit | kDrainBit)) == 0) {
      VOTM_SCHED_POINT(kAdmSerialAcquire);
      if (state_.compare_exchange_weak(w, (w | kSerialBit) & ~kOpenBit,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        break;
      }
      continue;
    }
    if (votm::check::thread_intercepted()) {
      VOTM_SCHED_YIELD_POINT(kAdmSerialWait);
      w = state_.load(std::memory_order_acquire);
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(mu_);
      state_.fetch_add(kWOne, std::memory_order_relaxed);
      while ((state_.load(std::memory_order_acquire) &
              (kSerialBit | kPausedBit | kDrainBit)) != 0) {
        cv_.wait_for(lk, kDrainPoll);
      }
      state_.fetch_sub(kWOne, std::memory_order_relaxed);
    }
    w = state_.load(std::memory_order_acquire);
  }
  // Gate closed; fence and drain exactly like pause() (the acquire reads
  // below synchronize with the residents' release leaves, so everything
  // they did inside the view is visible to the serial transaction).
  asymmetric_fence_heavy();
  VOTM_SCHED_POINT(kAdmSerialClosed);
  {
    std::unique_lock<std::mutex> lk = lock_slow_path();
    state_.fetch_add(kWOne, std::memory_order_relaxed);
    while (p_of(state_.load(std::memory_order_acquire)) != 0 ||
           stripes_pending() != 0) {
      if (votm::check::thread_intercepted()) {
        VOTM_SCHED_YIELD_POINT(kAdmSerialDrain);
      } else {
        cv_.wait_for(lk, kDrainPoll);
      }
    }
    state_.fetch_sub(kWOne, std::memory_order_relaxed);
    // As in pause(): the slots are empty until release_serial() reopens.
    state_.fetch_or(kDrainedBit, std::memory_order_acq_rel);
  }
  // Mutation fault: the token evaporates after the drain, so a peer can be
  // admitted while the "serial" transaction runs — exactly the bug class
  // the serial-mutual-exclusion oracle exists to catch (test_fault.cpp
  // proves it does, with a replayable schedule).
  if (VOTM_FAULT(kSerialTokenDrop)) {
    state_.fetch_and(~kSerialBit, std::memory_order_acq_rel);
  }
  // Self-admit as the sole resident. Plain add, not a gated CAS: the gate
  // is closed to everyone else, so P is provably 0 here.
  state_.fetch_add(kPOne, std::memory_order_acq_rel);
  serial_holder_.store(static_cast<std::uint64_t>(thread_ordinal()) + 1,
                       std::memory_order_release);
}

void AdmissionController::release_serial() {
  if (impl_ == AdmissionImpl::kMutex) return release_serial_mutex();
  serial_holder_.store(0, std::memory_order_release);
  VOTM_SCHED_POINT(kAdmSerialRelease);
  // One CAS drops the self-admission and the token together (and reopens
  // gate-open mode when the quota qualifies). The &~ form stays correct
  // even if the injected token drop already cleared the bit.
  std::uint64_t w = state_.load(std::memory_order_acquire);
  std::uint64_t next;
  do {
    next = maybe_open((w - kPOne) & ~kSerialBit);
  } while (!state_.compare_exchange_weak(w, next, std::memory_order_acq_rel,
                                         std::memory_order_acquire));
  if (w_of(w) == 0) return;
  if (votm::check::thread_intercepted()) return;
  // Availability fault: the release broadcast is dropped (waiters recover
  // on the wait_for bound — a serial release must never wedge the gate).
  if (VOTM_FAULT(kAdmLostNotify)) return;
  { std::lock_guard<std::mutex> lk(mu_); }  // pair with a parker's re-check
  cv_.notify_all();  // admission waiters AND queued serial requesters
}

// ---------------------------------------------------------------------------
// Legacy mutex implementation (A/B baseline for bench/micro_admission).
// All waits are wait_for + re-check: a lost notify is a bounded stall.
// ---------------------------------------------------------------------------

unsigned AdmissionController::admit_mutex() {
  std::unique_lock<std::mutex> lk(mu_);
  while (paused_ || serial_mode_ || admitted_ >= quota_) {
    cv_.wait_for(lk, kDrainPoll);
  }
  ++admitted_;
  return quota_;
}

bool AdmissionController::try_admit_mutex(unsigned* quota_out) {
  std::lock_guard<std::mutex> lk(mu_);
  if (paused_ || serial_mode_ || admitted_ >= quota_) return false;
  ++admitted_;
  if (quota_out != nullptr) *quota_out = quota_;
  return true;
}

void AdmissionController::leave_mutex() {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    --admitted_;
    drained = admitted_ == 0;
  }
  // Availability fault: mirrors leave_wake's dropped notify.
  if (VOTM_FAULT(kAdmLostNotify)) return;
  // A set_quota() call raising Q out of lock mode may be waiting for the
  // view to drain; notify_one could wake an admission waiter instead of it,
  // so broadcast on the drained edge.
  if (drained) {
    cv_.notify_all();
  } else {
    cv_.notify_one();
  }
}

void AdmissionController::pause_mutex() {
  std::unique_lock<std::mutex> lk(mu_);
  paused_ = true;  // stops new admissions immediately
  while (admitted_ != 0) cv_.wait_for(lk, kDrainPoll);
}

void AdmissionController::resume_mutex() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  if (VOTM_FAULT(kAdmLostNotify)) return;
  cv_.notify_all();
}

void AdmissionController::set_quota_mutex(unsigned q) {
  bool raised = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    const unsigned clamped = std::clamp(q, 1u, max_threads_);
    if (clamped == quota_) return;
    if (quota_ == 1 && clamped > 1) {
      // Leaving lock mode: wait until no lock-mode thread is inside, so a
      // newly admitted transactional thread can never overlap one.
      while (admitted_ != 0) cv_.wait_for(lk, kDrainPoll);
    }
    raised = clamped > quota_;
    quota_ = clamped;
  }
  if (VOTM_FAULT(kAdmLostNotify)) return;
  if (raised) cv_.notify_all();
}

void AdmissionController::acquire_serial_mutex() {
  std::unique_lock<std::mutex> lk(mu_);
  while (paused_ || serial_mode_) cv_.wait_for(lk, kDrainPoll);
  serial_mode_ = true;  // gates new admissions (every predicate checks !serial_mode_)
  while (admitted_ != 0) cv_.wait_for(lk, kDrainPoll);
  if (VOTM_FAULT(kSerialTokenDrop)) serial_mode_ = false;
  ++admitted_;  // self-admit as the sole resident
  serial_holder_.store(static_cast<std::uint64_t>(thread_ordinal()) + 1,
                       std::memory_order_release);
}

void AdmissionController::release_serial_mutex() {
  serial_holder_.store(0, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(mu_);
    --admitted_;
    serial_mode_ = false;
  }
  if (VOTM_FAULT(kAdmLostNotify)) return;
  cv_.notify_all();
}

AdmissionController::Sample AdmissionController::sample_mutex() const {
  std::lock_guard<std::mutex> lk(mu_);
  Sample s;
  s.quota = quota_;
  s.admitted = admitted_;
  const std::uint64_t h = serial_holder_.load(std::memory_order_acquire);
  s.serial_holder = h == 0 ? -1 : static_cast<int>(h - 1);
  return s;
}

}  // namespace votm::rac
