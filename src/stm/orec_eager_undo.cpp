#include "stm/orec_eager_undo.hpp"

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/access.hpp"
#include "stm/contention.hpp"
#include "stm/orec_snapshot.hpp"

namespace votm::stm {

// This engine repurposes TxThread::vlog as its UNDO log: (address, value
// before the first/each overwrite), applied in reverse order on rollback.
// The redo-family fields (wset) stay unused.

void OrecEagerUndoEngine::begin(TxThread& tx) {
  VOTM_SCHED_POINT(kStmBegin);
  tx.start_time = clock_.begin_snapshot();
  begin_common(tx, this);
  // Victim-choice CM: rank this attempt and publish the priority before
  // anyone can meet our locks (DESIGN.md §20).
  cm_on_begin(tx, cm_, tx.start_time);
  // After begin_common: conflict() needs tx.engine set to roll back.
  deadline_poll(tx);
}

Word OrecEagerUndoEngine::read(TxThread& tx, const Word* addr) {
  VOTM_SCHED_POINT(kStmRead);
  // Serial mode runs alone in a drained view: plain access, no logging.
  if (tx.serial) return load_word(addr);
  Orec& o = orecs_.for_address(addr);
  for (;;) {
    const Orec::Packed before = o.load();
    if (Orec::is_locked(before)) {
      if (Orec::owner_of(before) == &tx) {
        // Own lock: memory holds our speculative (write-through) value.
        return load_word(addr);
      }
      // Victim-choice CM: rank us against the write-through holder, then
      // outwait or abort per the decision; the in-place value becomes
      // safely readable once the lock drops.
      if (cm_resolve_foreign_lock(tx, o, before, cm_)) continue;
      // Foreign lock covers an in-place SPECULATIVE value: never read it.
      tx.conflict(ConflictKind::kReadLocked);
    }
    if (Orec::version_of(before) > tx.start_time) {
      extend(tx, clock_, cm_, Orec::version_of(before));
      continue;
    }
    const Word value = load_word(addr);
    VOTM_SCHED_POINT(kStmReadRetry);
    if (o.load() == before) {
      tx.rlog.push(&o);
      return value;
    }
  }
}

Word OrecEagerUndoEngine::read_for_write(TxThread& tx, Word* addr) {
  VOTM_SCHED_POINT(kStmWrite);
  if (tx.read_only) {
    tx.misuse("read_for_write inside a read-only transaction (acquire_Rview)");
  }
  if (tx.serial) return load_word(addr);
  acquire(tx, orecs_.for_address(addr), clock_, cm_,
          /*first_touch_wait=*/true);
  // The orec is ours: memory holds the committed value, or our own
  // write-through value. Nothing is undo-logged until write() changes it.
  return load_word(addr);
}

void OrecEagerUndoEngine::write(TxThread& tx, Word* addr, Word value) {
  VOTM_SCHED_POINT(kStmWrite);
  if (tx.read_only) {
    tx.misuse("write inside a read-only transaction (acquire_Rview)");
  }
  if (tx.serial) {
    store_word(addr, value);
    return;
  }
  acquire(tx, orecs_.for_address(addr), clock_, cm_,
          /*first_touch_wait=*/false);
  // Write-through: save the old value, then update memory in place (the
  // covering orec is locked by us across this point, so no reader can
  // observe the speculative store).
  VOTM_SCHED_POINT(kStmCommitWriteback);
  tx.vlog.push(addr, load_word(addr));
  store_word(addr, value);
}

void OrecEagerUndoEngine::commit(TxThread& tx) {
  VOTM_SCHED_POINT(kStmCommit);
  deadline_poll(tx);
  cm_owner_poll(tx, cm_);
  if (tx.read_only) {
    // RO fast path: zero clock traffic, no write-set reset (never touched).
    tx.rlog.clear();
    return;
  }
  if (tx.wlocks.empty()) {
    tx.clear_logs();
    return;
  }
  // Availability fault: a spurious commit failure before the clock ticket;
  // conflict() -> rollback() restores the write-through values cleanly.
  if (VOTM_FAULT(kOrecEagerUndoCommitTail)) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  VOTM_SCHED_POINT(kStmCommitLock);
  const VersionClock::Ticket ticket = clock_.tick(tx.start_time);
  if (ticket.need_validation && !read_log_valid(tx, tx.start_time)) {
    // conflict() -> rollback() undoes the in-place writes.
    tx.conflict(ConflictKind::kCommitFail);
  }
  // Memory already holds the final values; just publish the versions. No
  // sched point from here to return (oracle's serialization witness).
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(ticket.end_time);
  }
  clock_.note_commit(ticket.end_time);
  tx.clear_logs();
}

void OrecEagerUndoEngine::rollback(TxThread& tx) {
  VOTM_SCHED_POINT(kStmRollback);
  // Restore memory in reverse write order (later writes undone first, so
  // multiple writes to one address net out to the original value), THEN
  // release the orecs — readers must not see restored values as committed
  // until the locks drop.
  const auto& undo = tx.vlog.entries();
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    store_word(const_cast<Word*>(it->addr), it->value);
  }
  tx.vlog.clear();
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(w.old_version);
  }
  tx.wlocks.clear();
}

}  // namespace votm::stm
