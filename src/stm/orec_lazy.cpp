#include "stm/orec_lazy.hpp"

#include <thread>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/access.hpp"
#include "stm/contention.hpp"
#include "stm/orec_snapshot.hpp"

namespace votm::stm {

void OrecLazyEngine::begin(TxThread& tx) {
  VOTM_SCHED_POINT(kStmBegin);
  tx.start_time = clock_.begin_snapshot();
  begin_common(tx, this);
  // Victim-choice CM: rank this attempt and publish the priority before
  // the commit-time acquisition race can meet anyone (DESIGN.md §20).
  cm_on_begin(tx, cm_, tx.start_time);
  // After begin_common: conflict() needs tx.engine set to roll back.
  deadline_poll(tx);
}

Word OrecLazyEngine::read(TxThread& tx, const Word* addr) {
  VOTM_SCHED_POINT(kStmRead);
  // Serial mode runs alone in a drained view: plain access, no logging.
  if (tx.serial) return load_word(addr);
  if (const Word* buffered = tx.wset.lookup(addr)) {
    return *buffered;
  }
  Orec& o = orecs_.for_address(addr);
  int spins = 0;
  for (;;) {
    const Orec::Packed before = o.load();
    if (Orec::is_locked(before)) {
      // Lazy engines only hold locks during commit write-back; the window
      // is short, so wait it out rather than abort. Yield periodically: on
      // an oversubscribed host the committer may be descheduled, and a
      // pure spin would block it for a whole quantum.
      VOTM_SCHED_YIELD_POINT(kStmWaitOrec);
      Backoff::cpu_relax();
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
        // The wait-out loop has no other bound; without this poll a
        // past-deadline reader could outwait writers forever.
        deadline_poll(tx);
      }
      continue;
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

void OrecLazyEngine::write(TxThread& tx, Word* addr, Word value) {
  VOTM_SCHED_POINT(kStmWrite);
  if (tx.read_only) {
    tx.misuse("write inside a read-only transaction (acquire_Rview)");
  }
  if (tx.serial) {
    store_word(addr, value);
    return;
  }
  tx.wset.insert(addr, value);  // lazy: no lock until commit
}

void OrecLazyEngine::commit(TxThread& tx) {
  VOTM_SCHED_POINT(kStmCommit);
  deadline_poll(tx);
  if (tx.read_only) {
    // RO fast path: zero clock traffic, no write-set reset (never touched).
    tx.rlog.clear();
    return;
  }
  if (tx.wset.empty()) {
    tx.clear_logs();
    return;
  }
  // Availability fault: a spurious commit failure before any lock is
  // taken, so rollback has nothing to release.
  if (VOTM_FAULT(kOrecLazyCommitTail)) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  // Acquire all write locks now (commit time). A foreign lock or a version
  // newer than our snapshot kills the transaction here — the rollback path
  // releases whatever was acquired so far.
  for (const WriteSet::Entry& e : tx.wset.entries()) {
    Orec& o = orecs_.for_address(e.addr);
    VOTM_SCHED_POINT(kStmCommitLock);
    // Between per-orec acquisitions is the lazy engine's only window where
    // it holds locks others may be parked on; poll the yield demand here.
    cm_owner_poll(tx, cm_);
    for (;;) {
      const Orec::Packed p = o.load();
      if (Orec::is_locked(p)) {
        if (Orec::owner_of(p) == &tx) break;  // aliased earlier entry
        // Victim-choice CM at the acquisition race — the lazy family's
        // only foreign-lock conflict; by this point we may already hold
        // locks, so the ordinal rule inside cm_wait_orec gates the wait.
        if (cm_resolve_foreign_lock(tx, o, p, cm_)) continue;
        tx.conflict(ConflictKind::kCommitFail);
      }
      if (Orec::version_of(p) > tx.start_time) {
        // A commit since we started; the read set may still be valid.
        extend(tx, clock_, cm_, Orec::version_of(p));
        continue;
      }
      if (o.try_lock(p, &tx)) {
        tx.wlocks.push_back(OwnedOrec{&o, Orec::version_of(p)});
        break;
      }
    }
  }
  VOTM_SCHED_POINT(kStmCommitWriteback);
  const VersionClock::Ticket ticket = clock_.tick(tx.start_time);
  if (ticket.need_validation && !read_log_valid(tx, tx.start_time)) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  // No sched point from the ticket to return: the clock ticket is this
  // engine's serialization point, and the oracle's witness (writer record
  // order) is only sound if completion order equals ticket order. The
  // locked window above (between per-orec acquisitions) still exposes
  // every reader-vs-locked-orec interleaving.
  for (const WriteSet::Entry& e : tx.wset.entries()) {
    store_word(e.addr, e.value);
  }
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(ticket.end_time);
  }
  clock_.note_commit(ticket.end_time);
  tx.clear_logs();
}

void OrecLazyEngine::rollback(TxThread& tx) {
  VOTM_SCHED_POINT(kStmRollback);
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(w.old_version);
  }
  tx.wlocks.clear();
}

}  // namespace votm::stm
