// Deterministic fault injection for votm-check.
//
// Generalizes the original two-switch fault mask (NOrec validation skips)
// into a systematic injection matrix: every concurrency-sensitive tail —
// engine commit/validate paths, the admission CAS and drain protocols, the
// escalation ladder's serial-token handoff — carries a named FaultSite,
// and a test arms a site with a FaultPlan saying exactly which evaluations
// of that site fire. Two fault classes share the machinery:
//
//   * mutation faults (kNorecSkipValidation, kSerialTokenDrop,
//     kRfwSkipRevalidation, kLockModeStaleQuota, kExtendIgnoresReadLog):
//     deliberately break a correctness argument; a campaign proves the
//     oracles CATCH the bug class, with a replayable schedule;
//   * availability faults (the commit-tail and admission-CAS sites): force
//     legal-but-unlucky outcomes (spurious conflicts, lost CAS races, a
//     skipped notify); a campaign proves the system stays correct AND
//     makes progress while they fire.
//
// Determinism: a plan is (skip, fire) — evaluations [skip, skip + fire)
// of the site trigger, everything else passes through. arm_seeded()
// derives `skip` from a 64-bit seed, so a whole campaign is named by one
// number and any failure reproduces from the (seed, schedule) pair alone.
// Per-site evaluation/trigger counters let tests assert a fault actually
// fired (a campaign that never reaches its site is vacuously green).
//
// Cost when disarmed: one relaxed load of the armed mask and a
// predicted-not-taken branch — the same shape as a sched point. Compiled
// out entirely (a false constant) when VOTM_SCHED_POINTS=0, so the bench
// preset pays nothing.
#pragma once

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <atomic>
#include <cstdint>

#include "util/rng.hpp"

namespace votm::check {

enum class FaultSite : unsigned {
  // --- NOrec validation (the original mutation switches) -------------------
  kNorecSkipValidation = 0,   // validate() skips the value-set check
  // --- engine commit/validate tails (availability: spurious conflicts) -----
  kNorecCommitTail,           // NOrec commit fails before the seqlock CAS
  kTmlAcquireFail,            // TML first-write lock acquisition loses
  kOrecEagerRedoCommitTail,   // commit fails before the clock ticket
  kOrecLazyCommitTail,        // commit fails before commit-time locking
  kOrecEagerUndoCommitTail,   // commit fails before the clock ticket
  // --- version clock (availability: a lost GV4 ticket CAS) -----------------
  kGv4ClockCasLost,           // GV4 CAS loses to a phantom winner; the
                              // committer must adopt the phantom's tick and
                              // revalidate (clock monotonicity must survive)
  kGv6ShardLag,               // GV6 begin_snapshot returns a maximally
                              // stale bound (0) without refreshing: every
                              // read of a committed version is forced
                              // through the extension/refresh scan, and
                              // the system must stay opaque throughout
  // --- epoch reclamation (availability: stale grace-period horizon) --------
  kEpochStaleHorizon,         // the horizon read returns a maximally stale
                              // bound: reclaim passes defer every limbo
                              // block; the system must stay correct
                              // (nothing is freed early) and drain once the
                              // fault lifts
  // --- admission controller ------------------------------------------------
  kAdmitCasFail,              // admission CAS spuriously loses its race
  kAdmLostNotify,             // leave_wake drops its condvar notify
  // --- escalation ladder (mutation: breaks serial mutual exclusion) --------
  kSerialTokenDrop,           // serial token lost after the drain completes
  // --- wait-based contention management (availability, DESIGN.md §19) ------
  kCmWaitLostWakeup,          // a parked loser never observes the winner's
                              // unlock: the wait must exit via its timeout
                              // bound, never hang on the stale observation
  kCmWaitTimeout,             // the wait times out immediately: exercises
                              // the abort+backoff fallback (today's path)
  // --- victim-choice CM (mutation: priority inversion, DESIGN.md §20) ------
  kCmVictimChoice,            // the victim-choice decision ignores this
                              // thread's priority and takes the baseline
                              // abort-self path: a high-priority loser is
                              // starved exactly as if no policy ran — the
                              // CmFairnessScenario oracle must catch it
  // --- limbo backpressure (availability: forced overload response) ---------
  kLimboWatermark,            // the hard-watermark check reads "over": a
                              // forced reclaim pass + quota shed run even
                              // though the real depth is below the mark
  // --- read-for-write first-touch wait (mutation, DESIGN.md §22) -----------
  kRfwSkipRevalidation,       // once the wait sees the orec move, the
                              // orec engines' read_for_write returns
                              // memory's value without re-running the
                              // acquire: the word is read unlocked and
                              // unvalidated, so a third pop can take the
                              // same element — the opacity oracle must
                              // catch it
  // --- lock-mode pick (mutation, DESIGN.md §11) ----------------------------
  kLockModeStaleQuota,        // View::enter picks lock mode from a fresh
                              // quota load instead of the snapshot admit()
                              // returned: a thread admitted at Q > 1 can
                              // run uninstrumented beside speculative
                              // peers once the quota drops to 1 — the
                              // LockModeScenario oracles must catch it
  // --- orec timestamp extension (mutation, DESIGN.md §5.3) -----------------
  kExtendIgnoresReadLog,      // the orec engines' GV1 extend() adopts the
                              // version that forced it even when the read
                              // log is not empty, so reads logged before
                              // it are never validated: a torn snapshot —
                              // the opacity oracle must catch it
  kCount,
};

inline const char* to_string(FaultSite s) noexcept {
  switch (s) {
    case FaultSite::kNorecSkipValidation: return "norec.skip-validation";
    case FaultSite::kNorecCommitTail: return "norec.commit-tail";
    case FaultSite::kTmlAcquireFail: return "tml.acquire-fail";
    case FaultSite::kOrecEagerRedoCommitTail: return "oer.commit-tail";
    case FaultSite::kOrecLazyCommitTail: return "ol.commit-tail";
    case FaultSite::kOrecEagerUndoCommitTail: return "oeu.commit-tail";
    case FaultSite::kGv4ClockCasLost: return "clock.gv4-cas-lost";
    case FaultSite::kGv6ShardLag: return "clock.gv6-shard-lag";
    case FaultSite::kEpochStaleHorizon: return "epoch.stale-horizon";
    case FaultSite::kAdmitCasFail: return "adm.cas-fail";
    case FaultSite::kAdmLostNotify: return "adm.lost-notify";
    case FaultSite::kSerialTokenDrop: return "adm.serial-token-drop";
    case FaultSite::kCmWaitLostWakeup: return "cm.wait-lost-wakeup";
    case FaultSite::kCmWaitTimeout: return "cm.wait-timeout";
    case FaultSite::kCmVictimChoice: return "cm.victim-choice";
    case FaultSite::kLimboWatermark: return "limbo.watermark";
    case FaultSite::kRfwSkipRevalidation: return "rfw.skip-revalidation";
    case FaultSite::kLockModeStaleQuota: return "view.lock-mode-stale-quota";
    case FaultSite::kExtendIgnoresReadLog:
      return "orec.extend-ignores-read-log";
    case FaultSite::kCount: break;
  }
  return "?";
}

// Marks the current thread as the fault target for plans armed with
// marked_thread_only — e.g. the starvation scenario's designated victim,
// which must lose every conflict while its peers run unfaulted.
inline thread_local bool tls_fault_marked = false;

struct FaultPlan {
  std::uint64_t skip = 0;                  // evaluations before the window
  std::uint64_t fire = ~std::uint64_t{0};  // window length (default: forever)
  bool marked_thread_only = false;         // only FaultThreadMark'd threads
};

class FaultInjector {
 public:
  static FaultInjector& instance() noexcept {
    static FaultInjector inj;
    return inj;
  }

  void arm(FaultSite s, FaultPlan plan = {}) noexcept {
    Site& site = sites_[index(s)];
    site.skip.store(plan.skip, std::memory_order_relaxed);
    site.fire_budget.store(plan.fire, std::memory_order_relaxed);
    site.marked_only.store(plan.marked_thread_only, std::memory_order_relaxed);
    site.evals.store(0, std::memory_order_relaxed);
    site.triggers.store(0, std::memory_order_relaxed);
    armed_mask_.fetch_or(bit(s), std::memory_order_release);
  }

  // Deterministic seeded plan: the skip count is drawn from [0, max_skip]
  // via SplitMix64, so one 64-bit seed names where in the run the fault
  // window lands. Returns the plan actually armed (for failure messages).
  FaultPlan arm_seeded(FaultSite s, std::uint64_t seed,
                       std::uint64_t max_skip, std::uint64_t fire = 1,
                       bool marked_thread_only = false) noexcept {
    SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(index(s)) + 1) *
                             0xc2b2ae3d27d4eb4fULL);
    FaultPlan plan;
    plan.skip = max_skip == 0 ? 0 : sm.next() % (max_skip + 1);
    plan.fire = fire;
    plan.marked_thread_only = marked_thread_only;
    arm(s, plan);
    return plan;
  }

  void disarm(FaultSite s) noexcept {
    armed_mask_.fetch_and(~bit(s), std::memory_order_release);
  }

  void disarm_all() noexcept {
    armed_mask_.store(0, std::memory_order_release);
  }

  bool armed(FaultSite s) const noexcept {
    return (armed_mask_.load(std::memory_order_relaxed) & bit(s)) != 0;
  }
  std::uint64_t evals(FaultSite s) const noexcept {
    return sites_[index(s)].evals.load(std::memory_order_relaxed);
  }
  std::uint64_t triggers(FaultSite s) const noexcept {
    return sites_[index(s)].triggers.load(std::memory_order_relaxed);
  }

  // The VOTM_FAULT macro target. The disarmed fast path is the first load.
  bool maybe_fire(FaultSite s) noexcept {
    if ((armed_mask_.load(std::memory_order_relaxed) & bit(s)) == 0) {
      return false;
    }
    return fire_slow(s);
  }

 private:
  struct Site {
    std::atomic<std::uint64_t> evals{0};
    std::atomic<std::uint64_t> triggers{0};
    std::atomic<std::uint64_t> skip{0};
    std::atomic<std::uint64_t> fire_budget{0};
    std::atomic<bool> marked_only{false};
  };

  static constexpr unsigned index(FaultSite s) noexcept {
    return static_cast<unsigned>(s);
  }
  static constexpr std::uint32_t bit(FaultSite s) noexcept {
    return std::uint32_t{1} << static_cast<unsigned>(s);
  }

  bool fire_slow(FaultSite s) noexcept {
    Site& site = sites_[index(s)];
    if (site.marked_only.load(std::memory_order_relaxed) &&
        !tls_fault_marked) {
      return false;
    }
    const std::uint64_t n = site.evals.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t skip = site.skip.load(std::memory_order_relaxed);
    const std::uint64_t fire = site.fire_budget.load(std::memory_order_relaxed);
    if (n < skip || n - skip >= fire) return false;
    site.triggers.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  std::atomic<std::uint32_t> armed_mask_{0};
  Site sites_[static_cast<unsigned>(FaultSite::kCount)];
};

// RAII: arm a site for a scope (default plan: every evaluation fires, on
// every thread — the semantics of the original fault mask).
class FaultGuard {
 public:
  explicit FaultGuard(FaultSite s, FaultPlan plan = {}) : s_(s) {
    FaultInjector::instance().arm(s_, plan);
  }
  ~FaultGuard() { FaultInjector::instance().disarm(s_); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;

 private:
  FaultSite s_;
};

// RAII: mark the current thread as the target of marked_thread_only plans.
class FaultThreadMark {
 public:
  FaultThreadMark() : prev_(tls_fault_marked) { tls_fault_marked = true; }
  ~FaultThreadMark() { tls_fault_marked = prev_; }
  FaultThreadMark(const FaultThreadMark&) = delete;
  FaultThreadMark& operator=(const FaultThreadMark&) = delete;

 private:
  bool prev_;
};

}  // namespace votm::check

#define VOTM_FAULT(site) \
  (::votm::check::FaultInjector::instance().maybe_fire( \
      ::votm::check::FaultSite::site))

#else  // !VOTM_SCHED_POINTS

// With the check harness compiled out the sites fold to a false constant:
// the fault branches vanish and the instrumented paths keep their
// production shape at zero cost.
#define VOTM_FAULT(site) false

#endif  // VOTM_SCHED_POINTS
