// Wait-based contention management with timeout (DESIGN.md §19).
//
// The paper's engines resolve every conflict with the loser aborting and
// retrying (aggressive CM — what produces the livelock rows RAC then
// arrests). "Why Transactional Memory Should Not Be Obstruction-Free"
// argues the loser is often better off *waiting*: commit-time lock holds
// are short, and an abort throws away the loser's whole read set to dodge
// a microsecond of exclusivity. ContentionMode::kWaitTimeout implements
// that judicious-blocking option for the orec engines:
//
//   * On a write-read or write-write conflict (a foreign-locked orec) the
//     loser parks on the winner's orec — a bounded spin re-checking the
//     packed word — instead of aborting.
//   * Deadlock avoidance (the ordinal rule): a loser that already HOLDS
//     write locks may wait only on an owner of strictly lower rank, where
//     rank is the owner TxThread's address — a process-lifetime total
//     order that needs no dereference (a stale observation of a departed
//     owner compares harmlessly). Any wait-for cycle would need a
//     lock-holder waiting "up" the order, which the rule forbids, so no
//     cycle can close. Lock-free losers (pure readers, a first write) may
//     always wait: they hold nothing anybody else can block on.
//   * Timeout: the wait is bounded by `wait_spin_limit` iterations and by
//     the transaction's deadline. On timeout the loser falls back to
//     exactly today's abort+backoff path — kAbortRetry is the fallback,
//     not an alternative code shape.
//
// NOrec, TML and CGL take no wait-CM: NOrec conflicts are value-validation
// failures (there is no lock to outwait; its begin already waits out the
// seqlock), a TML loser's snapshot is stale the moment the writer CASed
// (waiting cannot save it), and CGL never conflicts. The factory accepts
// the knob for them and they ignore it, documented in ALGORITHMS.md.
//
// votm-check integration: under the cooperative harness the wait runs a
// small deterministic number of kCmWait yield points instead of a real
// spin. Fault sites: kCmWaitTimeout forces the timeout fallback at wait
// entry; kCmWaitLostWakeup makes the wait blind to the winner's unlock,
// so it MUST exit through its bound (the lost-wakeup torture case).
//
// On top of the wait/abort switch sits the victim-choice layer (PR 10,
// DESIGN.md §20): CmPolicy ranks the two sides of a conflict and
// cm_resolve_foreign_lock / cm_owner_poll / cm_norec_precommit below
// resolve it in priority order. See stm/cm_policy.hpp for the policies
// and the priority-table protocol.
#pragma once

#include <cstdint>
#include <thread>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/engine.hpp"
#include "stm/orec_table.hpp"
#include "util/backoff.hpp"

namespace votm::stm {

enum class ContentionMode : std::uint8_t {
  kAbortRetry,   // today's behavior: loser aborts, backs off, retries
  kWaitTimeout,  // loser parks on the winner's orec, bounded; timeout
                 // falls back to kAbortRetry
};

inline const char* to_string(ContentionMode m) noexcept {
  switch (m) {
    case ContentionMode::kAbortRetry: return "abort_retry";
    case ContentionMode::kWaitTimeout: return "wait_timeout";
  }
  return "?";
}

inline bool contention_mode_from_string(const char* s,
                                        ContentionMode* out) noexcept {
  auto eq = [](const char* a, const char* b) noexcept {
    for (; *a && *b; ++a, ++b) {
      const char ca = (*a >= 'A' && *a <= 'Z') ? char(*a - 'A' + 'a') : *a;
      const char cb = ca == '-' ? '_' : ca;
      if (cb != *b) return false;
    }
    return *a == '\0' && *b == '\0';
  };
  if (eq(s, "abort_retry") || eq(s, "abort")) {
    *out = ContentionMode::kAbortRetry;
    return true;
  }
  if (eq(s, "wait_timeout") || eq(s, "wait")) {
    *out = ContentionMode::kWaitTimeout;
    return true;
  }
  return false;
}

// Bounds for the wait budget (sanitized in stm/factory.cpp: zero/negative
// and over-limit values are clamped with a stderr note + FactoryStats
// counter, mirroring the orec-table knob treatment).
inline constexpr std::uint32_t kCmWaitSpinsDefault = 4096;
inline constexpr std::uint32_t kCmWaitSpinsMin = 1;
inline constexpr std::uint32_t kCmWaitSpinsMax = 1u << 22;
// Deterministic wait bound under the cooperative harness: each iteration
// is one kCmWait yield point, so exploration stays finite regardless of
// the configured real-time spin budget.
inline constexpr unsigned kCmWaitCoopBound = 8;

// Park `tx` on `orec`, last observed as the locked word `observed`, until
// the word changes or the bounded wait gives up.
//
// Returns true when the caller should RE-CHECK the conflict (the orec
// changed: the winner committed or aborted); false when the loser must
// fall back to the abort path (mode is kAbortRetry, the ordinal rule
// forbids waiting, the wait timed out, or the transaction is past its
// deadline). Never touches the owner's TxThread memory.
inline bool cm_wait_orec(TxThread& tx, const Orec& orec,
                         Orec::Packed observed, ContentionMode mode,
                         std::uint32_t wait_spin_limit) {
  if (mode != ContentionMode::kWaitTimeout) return false;
  // Serial transactions never reach here (they run alone), but stay safe.
  if (tx.serial) return false;
  // Ordinal rule: see the file header. &tx is this thread's rank.
  if (!tx.wlocks.empty() &&
      reinterpret_cast<std::uintptr_t>(Orec::owner_of(observed)) >=
          reinterpret_cast<std::uintptr_t>(&tx)) {
    return false;
  }
  if (tx.deadline.expired()) return false;
  if (VOTM_FAULT(kCmWaitTimeout)) return false;
  // Availability fault: the unlock is never observed — the loop below
  // must exit through its iteration bound, not through the re-check.
  const bool lost_wakeup = VOTM_FAULT(kCmWaitLostWakeup);
  if (votm::check::thread_intercepted()) {
    for (unsigned i = 0; i < kCmWaitCoopBound; ++i) {
      VOTM_SCHED_YIELD_POINT(kCmWait);
      if (!lost_wakeup &&
          orec.load(std::memory_order_acquire) != observed) {
        return true;
      }
    }
    return false;
  }
  for (std::uint32_t i = 0; i < wait_spin_limit; ++i) {
    Backoff::cpu_relax();
    // Oversubscribed hosts: the winner may need this core to finish its
    // commit; periodically hand it over.
    if ((i & 0x3FF) == 0x3FF) std::this_thread::yield();
    if (!lost_wakeup && orec.load(std::memory_order_acquire) != observed) {
      return true;
    }
    // The deadline caps the wait even mid-budget; amortize the clock read.
    if ((i & 0xFF) == 0xFF && tx.deadline.expired()) return false;
  }
  return false;
}

// Read-for-write first-touch wait (DESIGN.md §22). Inside
// TxEngine::read_for_write only, an encounter-time engine that meets a
// foreign lock while it has logged no read and holds no lock spins for the
// orec to move instead of aborting: such a transaction has nothing to
// lose by waiting and, holding nothing, nobody can wait on it, so no
// wait-for cycle can close through it. This is independent of the
// wait-CM knob above; every other conflict keeps the paper's immediate
// self-abort. A fixed budget, not a knob: 128 PAUSEs is about 3 µs on the
// reference host, ten times a queue pop's critical section.
inline constexpr std::uint32_t kRfwWaitSpins = 128;

// Returns true when the orec moved (the caller re-runs its acquire from a
// fresh load), false when the caller must abort with kWriteLocked: the
// transaction is serial, has read or locked something, is past its
// deadline, or the budget ran out.
inline bool rfw_first_touch_wait(TxThread& tx, const Orec& orec,
                                 Orec::Packed observed) {
  if (tx.serial) return false;
  if (!tx.rlog.empty() || !tx.wlocks.empty()) return false;
  if (tx.deadline.expired()) return false;
  if (votm::check::thread_intercepted()) {
    for (unsigned i = 0; i < kCmWaitCoopBound; ++i) {
      VOTM_SCHED_YIELD_POINT(kStmWaitOrec);
      if (orec.load(std::memory_order_acquire) != observed) return true;
    }
    return false;
  }
  for (std::uint32_t i = 0; i < kRfwWaitSpins; ++i) {
    Backoff::cpu_relax();
    if (orec.load(std::memory_order_acquire) != observed) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Victim-choice layer (stm/cm_policy.hpp, DESIGN.md §20).
//
// Composition contract with the wait machinery above:
//   * the policy decides WHO should lose; cm_wait_orec still decides how a
//     deferring loser behaves (wait with timeout vs abort) and keeps ALL of
//     its refuse-to-wait guards — serial, the ordinal deadlock rule, the
//     deadline, the spin budget. A priority win never overrides them.
//   * a winning loser waits for the owner to get out of the way (the owner
//     aborts itself at its next validation point, or just commits) — it
//     never touches the owner's state beyond the padded priority table.
//   * the serial token outranks every CM priority: serial transactions
//     neither defer nor yield (cm_owner_poll exempts them), preserving the
//     escalation ladder's irrevocability guarantee (DESIGN.md §14).
// ---------------------------------------------------------------------------

// The active-policy bodies below are kept OUT of the engines' hot
// functions: every call site gates on `policy == kAbortSelf` first, and
// the remainder is outlined cold so begin()/commit() keep their pre-policy
// code size (the 1-thread inertness A/B in EXPERIMENTS.md is sensitive to
// I-cache growth, not just executed instructions).
#if defined(__GNUC__)
#define VOTM_CM_COLD __attribute__((noinline, cold))
#else
#define VOTM_CM_COLD
#endif

// Per-engine victim-choice configuration, sanitized once by the factory.
struct CmRuntime {
  ContentionMode mode = ContentionMode::kAbortRetry;
  std::uint32_t wait_spins = kCmWaitSpinsDefault;
  CmPolicy policy = CmPolicy::kAbortSelf;
  std::uint64_t karma_cap = kCmKarmaCapDefault;
  std::uint32_t window_size = kCmWindowDefault;
};

// Called at the end of every engine begin() (after begin_common). Computes
// this attempt's priority from the policy and publishes it. `age` is the
// engine's begin ordinal in its own clock domain (start_time for the orec
// engines, the seqlock snapshot for NOrec); only its FIRST value per run is
// ranked, so retries keep their original Greedy rank.
inline VOTM_CM_COLD void cm_on_begin_active(TxThread& tx,
                                            const CmRuntime& cm,
                                            std::uint64_t age) noexcept {
  CmState& st = tx.cm;
  const bool fresh = tx.consecutive_aborts == 0;
  if (fresh) st.first_age = age;
  switch (cm.policy) {
    case CmPolicy::kAbortSelf:
      break;
    case CmPolicy::kAbortYounger:
    case CmPolicy::kTimestampGreedy:
      // Older first-begin => larger priority; fixed for the whole run.
      st.priority = ~st.first_age;
      break;
    case CmPolicy::kKarma:
      st.priority = st.karma < cm.karma_cap ? st.karma : cm.karma_cap;
      break;
    case CmPolicy::kWindowGreedy:
      if (fresh) {
        // Randomized interval start; the begin ordinal salts the stream so
        // threads with identical histories still de-synchronize.
        st.window_slot = st.draw(age) % cm.window_size;
      } else if (st.window_slot > 0) {
        --st.window_slot;  // each abort moves one slot toward the front
      }
      st.priority = (cm.window_size - 1) - st.window_slot;
      break;
  }
  CmPriorityTable::instance().publish(&tx, st.priority);
  // A demand left by a previous occupant of our table slot must not doom
  // this fresh attempt.
  CmPriorityTable::instance().clear_yield(&tx);
}

inline void cm_on_begin(TxThread& tx, const CmRuntime& cm,
                        std::uint64_t age) noexcept {
  if (cm.policy == CmPolicy::kAbortSelf) return;
  cm_on_begin_active(tx, cm, age);
}

// The victim-choice decision at a foreign-locked orec. Returns true when
// the caller should RE-CHECK the conflict (the orec changed), false when
// this transaction must take the abort path. Replaces the engines' direct
// cm_wait_orec calls; under kAbortSelf it IS that call, bit for bit.
inline VOTM_CM_COLD bool cm_resolve_foreign_lock_active(
    TxThread& tx, const Orec& orec, Orec::Packed observed,
    const CmRuntime& cm) {
  VOTM_SCHED_POINT(kCmVictimChoice);
  // Priority-inversion mutation: the decision ignores this thread's rank
  // and resolves the baseline way — a high-priority loser starves exactly
  // as if no policy ran. CmFairnessScenario's oracle must catch this.
  if (VOTM_FAULT(kCmVictimChoice)) {
    return cm_wait_orec(tx, orec, observed, cm.mode, cm.wait_spins);
  }
  const void* owner = Orec::owner_of(observed);
  std::uint64_t owner_prio = 0;
  const bool known =
      CmPriorityTable::instance().read(owner, &owner_prio);
  const std::uint64_t mine = tx.cm.priority;
  if (!known || mine <= owner_prio) {
    // We lose (or cannot rank the owner): defer per the configured
    // wait/abort mode. Ties favor the incumbent lock holder.
    return cm_wait_orec(tx, orec, observed, cm.mode, cm.wait_spins);
  }
  // We win. Under the active policies, ask the owner to step aside (it
  // honors the demand at its next cm_owner_poll); kAbortYounger is
  // passive — the owner is simply outwaited.
  if (cm.policy != CmPolicy::kAbortYounger) {
    CmPriorityTable::instance().request_yield(owner, mine);
  }
  // Wait for the orec to move regardless of the configured mode — aborting
  // the winner would invert the policy. Every refuse-to-wait guard inside
  // (serial, ordinal rule, deadline, spin budget, fault sites) still
  // applies; on a refusal or timeout the winner falls back to the abort
  // path like anyone else, so progress never hinges on the heuristic.
  return cm_wait_orec(tx, orec, observed, ContentionMode::kWaitTimeout,
                      cm.wait_spins);
}

inline bool cm_resolve_foreign_lock(TxThread& tx, const Orec& orec,
                                    Orec::Packed observed,
                                    const CmRuntime& cm) {
  if (cm.policy == CmPolicy::kAbortSelf) {
    return cm_wait_orec(tx, orec, observed, cm.mode, cm.wait_spins);
  }
  return cm_resolve_foreign_lock_active(tx, orec, observed, cm);
}

// Owner-side poll: honor a pending yield demand from a higher-priority
// loser. Engines place this at validation/commit entries — points where
// conflict() is legal and encounter locks may be held. One relaxed load
// when no demand is pending. Never returns if the transaction yields.
inline VOTM_CM_COLD void cm_owner_poll_active(TxThread& tx) {
  if (CmPriorityTable::instance().take_yield(&tx, tx.cm.priority)) {
    tx.conflict(ConflictKind::kCmYield);
  }
}

inline void cm_owner_poll(TxThread& tx, const CmRuntime& cm) {
  if (cm.policy == CmPolicy::kAbortSelf ||
      cm.policy == CmPolicy::kAbortYounger) {
    return;
  }
  if (tx.serial) return;         // the token outranks every CM priority
  if (tx.wlocks.empty()) return; // nobody can be parked on us
  cm_owner_poll_active(tx);
}

// NOrec pre-commit arbitration. NOrec has no orecs to park on: conflicts
// surface as value-validation failures after a committer slips past, so
// victim choice moves to the only contended decision NOrec has — who wins
// the sequence-lock race. Before racing, a committer defers (bounded) to a
// concurrent committer that advertised a higher priority, then advertises
// its own. The advertisement word is a racy max of plain stores: a lost
// update weakens the hint, never safety — the seqlock CAS stays the sole
// arbiter of correctness. Serial committers never defer (token outranks).
inline VOTM_CM_COLD void cm_norec_precommit_active(
    TxThread& tx, std::atomic<std::uint64_t>& advertised,
    const CmRuntime& cm) {
  VOTM_SCHED_POINT(kCmVictimChoice);
  const std::uint64_t mine = tx.cm.priority;
  // Same inversion mutation as the orec path: skip the deference so a
  // low-priority committer races a higher-priority one head on.
  if (!VOTM_FAULT(kCmVictimChoice)) {
    if (votm::check::thread_intercepted()) {
      for (unsigned i = 0;
           i < kCmWaitCoopBound &&
           advertised.load(std::memory_order_acquire) > mine;
           ++i) {
        VOTM_SCHED_YIELD_POINT(kCmWait);
      }
    } else {
      for (std::uint32_t i = 0;
           i < cm.wait_spins &&
           advertised.load(std::memory_order_acquire) > mine;
           ++i) {
        Backoff::cpu_relax();
        if ((i & 0x3FF) == 0x3FF) std::this_thread::yield();
        if ((i & 0xFF) == 0xFF && tx.deadline.expired()) break;
      }
    }
  }
  if (advertised.load(std::memory_order_relaxed) < mine) {
    advertised.store(mine, std::memory_order_release);
  }
}

inline void cm_norec_precommit(TxThread& tx,
                               std::atomic<std::uint64_t>& advertised,
                               const CmRuntime& cm) {
  if (cm.policy == CmPolicy::kAbortSelf || tx.serial) return;
  cm_norec_precommit_active(tx, advertised, cm);
}

// Clears this transaction's advertisement (commit tail AND rollback — a
// doomed committer must not leave a stale high watermark that makes every
// later committer burn the deference budget). Clearing by value is safe:
// equal priorities defer to each other identically, whoever advertised.
inline void cm_norec_clear(TxThread& tx,
                           std::atomic<std::uint64_t>& advertised,
                           const CmRuntime& cm) noexcept {
  if (cm.policy == CmPolicy::kAbortSelf) return;
  const std::uint64_t mine = tx.cm.priority;
  if (mine != 0 &&
      advertised.load(std::memory_order_relaxed) == mine) {
    advertised.store(0, std::memory_order_release);
  }
}

}  // namespace votm::stm
