// Snapshot maintenance shared by the three orec engines (OrecEagerRedo,
// OrecEagerUndo, OrecLazy): read-log validation, TinySTM-style timestamp
// extension and, for the two encounter-time engines, lock acquisition.
// Each engine passes its own VersionClock and CmRuntime, so one copy of
// each rule serves every engine instance (DESIGN.md §5.3, §15, §22).
#pragma once

#include <cstdint>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/clock.hpp"
#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {

// True when every orec in tx's read log is unlocked at a version <= bound,
// or locked by tx itself.
inline bool read_log_valid(const TxThread& tx, std::uint64_t bound) noexcept {
  for (const Orec* o : tx.rlog.entries()) {
    const Orec::Packed p = o->load();
    if (Orec::is_locked(p)) {
      if (Orec::owner_of(p) != &tx) return false;
    } else if (Orec::version_of(p) > bound) {
      return false;
    }
  }
  return true;
}

// Timestamp extension: moves tx.start_time forward to cover `observed`,
// the orec version newer than the snapshot that forced the call, or
// aborts with kValidationFail when a logged read has changed since
// start_time.
//
// Under GV1 an empty read log extends for free: there is nothing to
// validate, and `observed` is itself a valid snapshot. The committer that
// unlocked to `observed` ticked the clock with an acq_rel RMW before its
// release unlock, and the caller's acquire load saw that unlock. So every
// writer with a ticket <= observed held all its locks before that load,
// and every later ticket is > observed: the clock invariant of
// stm/clock.hpp holds for `observed` without reading the clock line the
// committer has just written. GV4, GV5 and GV6 keep the clock read:
// GV5 and GV6 can publish versions ahead of the global clock, and only
// extension_bound()'s propagation makes such a version a safe snapshot.
inline void extend(TxThread& tx, VersionClock& clock, const CmRuntime& cm,
                   std::uint64_t observed) {
  VOTM_SCHED_POINT(kStmValidate);
  deadline_poll(tx);
  // A higher-priority loser may be parked on one of our locks; honor its
  // yield demand here, where conflict() is still clean (DESIGN.md §20).
  cm_owner_poll(tx, cm);
  if (clock.policy() == ClockPolicy::kGv1 &&
      // Mutation: adopt `observed` over reads that were never validated.
      (tx.rlog.empty() || VOTM_FAULT(kExtendIgnoresReadLog))) {
    tx.start_time = observed;
    return;
  }
  // If nothing we read changed since start_time, the snapshot moves to
  // `now`; otherwise the transaction is doomed. `now` covers `observed`,
  // so the callers' retry loops terminate even when the version that
  // forced the extension runs ahead of the global clock (GV5).
  const std::uint64_t now = clock.extension_bound(observed);
  if (!read_log_valid(tx, tx.start_time)) {
    tx.conflict(ConflictKind::kValidationFail);
  }
  tx.start_time = now;
}

// Encounter-time acquisition for the eager engines' write() and
// read_for_write(): returns once `o` is locked by tx, extending the
// snapshot past a newer version. A foreign lock aborts with kWriteLocked
// unless the CM or, with `first_touch_wait`, the read-for-write
// first-touch wait outlasts it.
inline void acquire(TxThread& tx, Orec& o, VersionClock& clock,
                    const CmRuntime& cm, bool first_touch_wait) {
  // A held orec is not read again. Only commit and rollback release locks,
  // and both clear wlocks, so the last lock taken is still ours. This is
  // a read-for-write followed by a write of the same word, as in a queue
  // pop, and it keeps waiters from pulling the orec line away once more.
  if (!tx.wlocks.empty() && tx.wlocks.back().orec == &o) return;
  for (;;) {
    const Orec::Packed p = o.load();
    if (Orec::is_locked(p)) {
      if (Orec::owner_of(p) == &tx) return;  // taken earlier, not last
      if (cm_resolve_foreign_lock(tx, o, p, cm)) continue;
      if (first_touch_wait && rfw_first_touch_wait(tx, o, p)) {
        // Mutation: trust the wait and read the word without the lock.
        if (VOTM_FAULT(kRfwSkipRevalidation)) return;
        continue;
      }
      tx.conflict(ConflictKind::kWriteLocked);
    }
    if (Orec::version_of(p) > tx.start_time) {
      extend(tx, clock, cm, Orec::version_of(p));
      continue;
    }
    if (o.try_lock(p, &tx)) {
      tx.wlocks.push_back(OwnedOrec{&o, Orec::version_of(p)});
      return;
    }
    // Lost the CAS race; re-examine the orec.
  }
}

}  // namespace votm::stm
