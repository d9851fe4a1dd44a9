#include "stm/orec_eager_redo.hpp"

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/access.hpp"
#include "stm/contention.hpp"

namespace votm::stm {

void OrecEagerRedoEngine::begin(TxThread& tx) {
  VOTM_SCHED_POINT(kStmBegin);
  tx.start_time = clock_.begin_snapshot();
  begin_common(tx, this);
  // Victim-choice CM: rank this attempt and publish the priority before
  // anyone can meet our locks (DESIGN.md §20).
  cm_on_begin(tx, cm_, tx.start_time);
  // After begin_common: conflict() needs tx.engine set to roll back.
  deadline_poll(tx);
}

bool OrecEagerRedoEngine::read_log_valid(TxThread& tx,
                                         std::uint64_t bound) const noexcept {
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

void OrecEagerRedoEngine::extend(TxThread& tx, std::uint64_t observed) {
  VOTM_SCHED_POINT(kStmValidate);
  deadline_poll(tx);
  // A higher-priority loser may be parked on one of our encounter locks;
  // honor its yield demand here, where conflict() is still clean.
  cm_owner_poll(tx, cm_);
  // TinySTM-style timestamp extension: if nothing we read changed since
  // start_time, the snapshot can be moved forward to `now`; otherwise the
  // transaction is doomed. `now` covers `observed`, so the caller's retry
  // loop terminates even when the version that forced the extension runs
  // ahead of the global clock (GV5).
  const std::uint64_t now = clock_.extension_bound(observed);
  if (!read_log_valid(tx, tx.start_time)) {
    tx.conflict(ConflictKind::kValidationFail);
  }
  tx.start_time = now;
}

Word OrecEagerRedoEngine::read(TxThread& tx, const Word* addr) {
  VOTM_SCHED_POINT(kStmRead);
  // Serial mode runs alone in a drained view: plain access, no logging.
  if (tx.serial) return load_word(addr);
  if (const Word* buffered = tx.wset.lookup(addr)) {
    return *buffered;
  }
  Orec& o = orecs_.for_address(addr);
  for (;;) {
    const Orec::Packed before = o.load();
    if (Orec::is_locked(before)) {
      if (Orec::owner_of(before) == &tx) {
        // We own the covering orec but this exact address is not in the
        // redo log (orec aliasing): memory still holds the pre-tx value.
        return load_word(addr);
      }
      // Victim-choice CM: rank us against the lock holder, then wait out
      // or abort per the decision (kAbortSelf degrades to the plain
      // kWaitTimeout park; a changed word means the lock moved and the
      // protocol can re-run instead of aborting).
      if (cm_resolve_foreign_lock(tx, o, before, cm_)) continue;
      // Aggressive self-abort on foreign lock: the paper's configuration,
      // and the source of livelock at high contention.
      tx.conflict(ConflictKind::kReadLocked);
    }
    if (Orec::version_of(before) > tx.start_time) {
      extend(tx, Orec::version_of(before));
      continue;
    }
    const Word value = load_word(addr);
    VOTM_SCHED_POINT(kStmReadRetry);
    if (o.load() == before) {
      tx.rlog.push(&o);
      return value;
    }
    // The orec moved under us mid-read; re-run the protocol.
  }
}

void OrecEagerRedoEngine::write(TxThread& tx, Word* addr, Word value) {
  VOTM_SCHED_POINT(kStmWrite);
  if (tx.read_only) {
    tx.misuse("write inside a read-only transaction (acquire_Rview)");
  }
  if (tx.serial) {
    store_word(addr, value);
    return;
  }
  Orec& o = orecs_.for_address(addr);
  for (;;) {
    const Orec::Packed p = o.load();
    if (Orec::is_locked(p)) {
      if (Orec::owner_of(p) == &tx) break;  // already ours
      if (cm_resolve_foreign_lock(tx, o, p, cm_)) continue;
      tx.conflict(ConflictKind::kWriteLocked);
    }
    if (Orec::version_of(p) > tx.start_time) {
      extend(tx, Orec::version_of(p));
      continue;
    }
    if (o.try_lock(p, &tx)) {
      tx.wlocks.push_back(OwnedOrec{&o, Orec::version_of(p)});
      break;
    }
    // Lost the CAS race; re-examine the orec.
  }
  tx.wset.insert(addr, value);
}

void OrecEagerRedoEngine::commit(TxThread& tx) {
  VOTM_SCHED_POINT(kStmCommit);
  deadline_poll(tx);
  cm_owner_poll(tx, cm_);
  if (tx.read_only) {
    // RO fast path: consistent as of start_time by the incremental
    // validation/extension discipline; zero clock traffic, and no
    // write-set reset — a read-only transaction never touched it.
    tx.rlog.clear();
    return;
  }
  if (tx.wlocks.empty()) {
    tx.clear_logs();
    return;
  }
  // Availability fault: a spurious commit failure before the clock ticket,
  // where rollback is still clean (locks release to old versions).
  if (VOTM_FAULT(kOrecEagerRedoCommitTail)) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  VOTM_SCHED_POINT(kStmCommitLock);
  VOTM_SCHED_POINT(kStmCommitWriteback);
  const VersionClock::Ticket ticket = clock_.tick(tx.start_time);
  // If anyone committed after we began, the read set must still be valid.
  if (ticket.need_validation && !read_log_valid(tx, tx.start_time)) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  // No sched point from the ticket to return: the clock ticket is this
  // engine's serialization point, and the oracle's witness (writer record
  // order) is only sound if completion order equals ticket order. Writes
  // are covered by encounter-time locks, so nothing here is observable
  // anyway until the unlock sweep publishes the versions.
  for (const WriteSet::Entry& e : tx.wset.entries()) {
    store_word(e.addr, e.value);
  }
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(ticket.end_time);
  }
  clock_.note_commit(ticket.end_time);
  tx.clear_logs();
}

void OrecEagerRedoEngine::rollback(TxThread& tx) {
  VOTM_SCHED_POINT(kStmRollback);
  // Release encounter-time locks, restoring the pre-lock versions; the redo
  // log was never applied, so memory is untouched.
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(w.old_version);
  }
  tx.wlocks.clear();
}

}  // namespace votm::stm
