// Schedule-point injection layer for the votm-check harness.
//
// A sched point marks a place in a concurrency-sensitive path where the
// interleaving with other threads matters: just before a CAS, between a
// slot publication and its gate re-check, between commit-time lock
// acquisition and write-back, and inside every wait/spin loop. Under
// normal execution a point is nothing (compiled out entirely when
// VOTM_SCHED_POINTS=0, a thread-local load plus a predicted-not-taken
// branch when compiled in but no harness is attached). Under the check
// harness (src/check/scheduler.hpp) every point is a cooperative
// preemption opportunity: the thread parks and a deterministic schedule
// controller decides who runs next, so small multi-threaded scenarios can
// be replayed, random-walked, or exhaustively enumerated.
//
// Two macro flavours:
//   VOTM_SCHED_POINT(id)        - ordinary interleaving point
//   VOTM_SCHED_YIELD_POINT(id)  - the thread is in a wait/spin loop and
//                                 has made no progress since its last
//                                 point; the scheduler deprioritises it so
//                                 bounded exploration is not drowned in
//                                 no-op self-spins. Every loop that waits
//                                 for another thread's store MUST pass a
//                                 yield point each iteration, or the
//                                 cooperative scheduler deadlocks (only
//                                 one thread runs at a time).
//
// Rules the instrumentation must follow (the history oracle depends on
// them — see src/check/oracle.hpp):
//   * no sched point between an engine's commit publication (NOrec/TML
//     sequence-lock release, orec unlock_to_version sweep) and the return
//     from commit(): the harness derives the serialization order from the
//     order in which commits are recorded, which is only sound when the
//     publish-to-record window cannot be interleaved;
//   * no sched point while holding a mutex another instrumented path can
//     block on (an intercepted thread parked at a point does not run
//     until scheduled, so a blocked peer would deadlock the controller;
//     slow paths take such mutexes with try_lock + yield-point loops when
//     a harness is attached, see AdmissionController).
//
// The fault-injection switchboard (deterministic seeded plans over named
// sites in engine commit tails, the admission protocol, and the escalation
// ladder) lives in src/check/fault.hpp and is gated by the same macro.
#pragma once

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <cstdint>

namespace votm::check {

enum class SchedPointId : std::uint8_t {
  // --- STM engines --------------------------------------------------------
  kStmBegin,            // transaction begin (snapshot/timestamp sample)
  kStmRead,             // read path entry, before the memory load
  kStmReadRetry,        // between a value load and its consistency re-check
  kStmWrite,            // write path, before lock acquisition / buffering
  kStmValidate,         // read-set validation entry
  kStmValidateFilter,   // NOrec: between the seq sample and the ring scan
                        // of the signature-filter fast path
  kStmCommit,           // commit entry
  kStmCommitLock,       // before commit-time lock/clock acquisition
  kStmCommitWriteback,  // between acquisition and (each) write-back store
  kStmClockTick,        // in VersionClock::tick, before the ticket RMW/CAS
  kStmClockShardScan,   // GV6: before a reader's max-over-shards scan
                        // (bound refresh); writers race their shard
                        // CAS-maxes around it
  kStmRollback,         // rollback entry, before undo/unlock
  kEpochAdvance,        // before a reclaim pass takes the limbo lock and
                        // advances the grace-period era (stm/epoch.hpp)
  kEpochPinWait,        // spinning on a peer's pending epoch pin (yield)
  kStmWaitSeq,          // spinning on an odd sequence lock (yield)
  kStmWaitOrec,         // spinning on a foreign orec lock (yield)
  kCmWait,              // wait-CM: parked on a winner's orec, bounded by
                        // the timeout/ordinal rule (yield; DESIGN.md §19)
  kCmVictimChoice,      // before a victim-choice priority comparison
                        // (foreign-lock encounter or NOrec pre-commit
                        // arbitration; DESIGN.md §20)
  kCglLock,             // waiting for the CGL/lock-mode mutex (yield)
  // --- admission controller ----------------------------------------------
  kAdmCas,              // before a gated admission CAS attempt
  kAdmSlotEnter,        // before an open-mode slot entry
  kAdmSlotPublished,    // between the slot in-store and the gate re-check
  kAdmSlotLeave,        // before the open-mode slot out-store
  kAdmLeave,            // before the gated leave fetch_sub
  kAdmWait,             // admission spin/park loop (yield)
  kAdmResidue,          // residue-mode admission attempt
  kAdmPauseClosed,      // pause: gate closed, before the drain poll
  kAdmPauseDrain,       // pause drain poll loop (yield)
  kAdmResume,           // resume: before reopening the gate
  kAdmSetQuota,         // set_quota: before a state transition CAS
  kAdmSetQuotaDrain,    // set_quota lock-mode drain loop (yield)
  // --- escalation ladder / serial token ------------------------------------
  kAdmSerialAcquire,    // before the serial-token CAS attempt
  kAdmSerialWait,       // waiting for a foreign serial token (yield)
  kAdmSerialClosed,     // token won, before the admitted-drain poll
  kAdmSerialDrain,      // serial-token drain poll loop (yield)
  kAdmSerialRelease,    // before the serial-token release transition
  kCount,
};

inline const char* to_string(SchedPointId id) noexcept {
  switch (id) {
    case SchedPointId::kStmBegin: return "stm.begin";
    case SchedPointId::kStmRead: return "stm.read";
    case SchedPointId::kStmReadRetry: return "stm.read-retry";
    case SchedPointId::kStmWrite: return "stm.write";
    case SchedPointId::kStmValidate: return "stm.validate";
    case SchedPointId::kStmValidateFilter: return "stm.validate-filter";
    case SchedPointId::kStmCommit: return "stm.commit";
    case SchedPointId::kStmCommitLock: return "stm.commit-lock";
    case SchedPointId::kStmCommitWriteback: return "stm.commit-writeback";
    case SchedPointId::kStmClockTick: return "stm.clock-tick";
    case SchedPointId::kStmClockShardScan: return "stm.clock-shard-scan";
    case SchedPointId::kStmRollback: return "stm.rollback";
    case SchedPointId::kEpochAdvance: return "epoch.advance";
    case SchedPointId::kEpochPinWait: return "epoch.pin-wait";
    case SchedPointId::kStmWaitSeq: return "stm.wait-seq";
    case SchedPointId::kStmWaitOrec: return "stm.wait-orec";
    case SchedPointId::kCmWait: return "cm.wait";
    case SchedPointId::kCmVictimChoice: return "cm.victim-choice";
    case SchedPointId::kCglLock: return "cgl.lock";
    case SchedPointId::kAdmCas: return "adm.cas";
    case SchedPointId::kAdmSlotEnter: return "adm.slot-enter";
    case SchedPointId::kAdmSlotPublished: return "adm.slot-published";
    case SchedPointId::kAdmSlotLeave: return "adm.slot-leave";
    case SchedPointId::kAdmLeave: return "adm.leave";
    case SchedPointId::kAdmWait: return "adm.wait";
    case SchedPointId::kAdmResidue: return "adm.residue";
    case SchedPointId::kAdmPauseClosed: return "adm.pause-closed";
    case SchedPointId::kAdmPauseDrain: return "adm.pause-drain";
    case SchedPointId::kAdmResume: return "adm.resume";
    case SchedPointId::kAdmSetQuota: return "adm.set-quota";
    case SchedPointId::kAdmSetQuotaDrain: return "adm.set-quota-drain";
    case SchedPointId::kAdmSerialAcquire: return "adm.serial-acquire";
    case SchedPointId::kAdmSerialWait: return "adm.serial-wait";
    case SchedPointId::kAdmSerialClosed: return "adm.serial-closed";
    case SchedPointId::kAdmSerialDrain: return "adm.serial-drain";
    case SchedPointId::kAdmSerialRelease: return "adm.serial-release";
    case SchedPointId::kCount: break;
  }
  return "?";
}

// Installed per harness-managed thread; every sched point on that thread
// funnels into at_point(), which blocks until the schedule controller
// picks the thread to run again.
class SchedInterceptor {
 public:
  virtual ~SchedInterceptor() = default;
  virtual void at_point(SchedPointId id, bool yield_hint) = 0;
};

inline thread_local SchedInterceptor* tls_interceptor = nullptr;

inline bool thread_intercepted() noexcept { return tls_interceptor != nullptr; }

inline void sched_point(SchedPointId id) {
  if (SchedInterceptor* i = tls_interceptor) i->at_point(id, false);
}
inline void sched_yield_point(SchedPointId id) {
  if (SchedInterceptor* i = tls_interceptor) i->at_point(id, true);
}

}  // namespace votm::check

#define VOTM_SCHED_POINT(id) \
  ::votm::check::sched_point(::votm::check::SchedPointId::id)
#define VOTM_SCHED_YIELD_POINT(id) \
  ::votm::check::sched_yield_point(::votm::check::SchedPointId::id)

#else  // !VOTM_SCHED_POINTS

namespace votm::check {
// With points compiled out the harness cannot attach; branches on this
// constant fold away, so instrumented slow paths keep their production
// shape at zero cost.
constexpr bool thread_intercepted() noexcept { return false; }
}  // namespace votm::check

#define VOTM_SCHED_POINT(id) ((void)0)
#define VOTM_SCHED_YIELD_POINT(id) ((void)0)

#endif  // VOTM_SCHED_POINTS
