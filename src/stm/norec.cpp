#include "stm/norec.hpp"

#include <stdexcept>
#include <thread>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/access.hpp"

namespace votm::stm {

void NOrecEngine::begin(TxThread& tx) {
  VOTM_SCHED_POINT(kStmBegin);
  // Sample a consistent (even) snapshot; a committing writer holds the
  // sequence lock odd only for the duration of its write-back.
  auto& seq = seqlock_.value;
  int spins = 0;
  for (;;) {
    tx.snapshot = seq.load(std::memory_order_acquire);
    if ((tx.snapshot & 1) == 0) break;
    VOTM_SCHED_YIELD_POINT(kStmWaitSeq);
    Backoff::cpu_relax();
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  begin_common(tx, this);
  // Victim-choice CM: the seqlock snapshot is NOrec's begin ordinal
  // (DESIGN.md §20; only the run's first value is ranked).
  cm_on_begin(tx, cm_, tx.snapshot);
  // After begin_common: conflict() needs tx.engine set to roll back.
  deadline_poll(tx);
}

std::uint64_t NOrecEngine::validate(TxThread& tx) {
  VOTM_SCHED_POINT(kStmValidate);
  deadline_poll(tx);
  auto& seq = seqlock_.value;
  for (;;) {
    std::uint64_t time = seq.load(std::memory_order_acquire);
    if ((time & 1) != 0) {
      VOTM_SCHED_YIELD_POINT(kStmWaitSeq);
      Backoff::cpu_relax();
      // The writer wait-out has no other bound; keep it deadline-capped.
      deadline_poll(tx);
      continue;
    }
    if (time == tx.snapshot) return time;  // nothing committed since
    if (!VOTM_FAULT(kNorecSkipValidation) && !tx.vlog.values_match()) {
      tx.conflict(ConflictKind::kValidationFail);
    }
    if (seq.load(std::memory_order_acquire) == time) return time;
  }
}

Word NOrecEngine::read(TxThread& tx, const Word* addr) {
  VOTM_SCHED_POINT(kStmRead);
  // Serial mode holds the sequence lock: nothing can commit under us, so
  // the memory is the snapshot.
  if (tx.serial) return load_word(addr);
  // Reads-after-writes come from the redo log.
  if (const Word* buffered = tx.wset.lookup(addr)) {
    return *buffered;
  }
  Word value = load_word(addr);
  // The window this point opens — between the memory load and the
  // staleness re-check — is exactly where a skipped revalidation turns
  // into a torn snapshot.
  VOTM_SCHED_POINT(kStmReadRetry);
  // If anyone committed since our snapshot, the read may be inconsistent
  // with the log: re-validate by value and re-read until stable.
  while (seqlock_.value.load(std::memory_order_acquire) != tx.snapshot) {
    tx.snapshot = validate(tx);
    value = load_word(addr);
  }
  tx.vlog.push(addr, value);
  return value;
}

void NOrecEngine::write(TxThread& tx, Word* addr, Word value) {
  VOTM_SCHED_POINT(kStmWrite);
  if (tx.read_only) {
    tx.misuse("write inside a read-only transaction (acquire_Rview)");
  }
  // Serial mode writes in place: the transaction cannot abort, so no redo
  // buffering is needed, and the held sequence lock keeps readers out.
  if (tx.serial) {
    store_word(addr, value);
    return;
  }
  tx.wset.insert(addr, value);
}

void NOrecEngine::commit(TxThread& tx) {
  VOTM_SCHED_POINT(kStmCommit);
  // Before any publication: rollback here is trivially clean. Never after
  // the CAS below — a sequence-lock holder must finish its write-back.
  deadline_poll(tx);
  auto& seq = seqlock_.value;
  if (tx.read_only) {
    // Declared-RO fast path: skips even the write-set emptiness probe and
    // its reset — write() misuses before touching wset on an RO
    // transaction, so only the value log needs clearing. Zero clock
    // (sequence-lock) traffic either way.
    tx.vlog.clear();
    return;
  }
  if (tx.wset.empty()) {
    // Read-only: the incremental validation discipline guarantees the read
    // set was consistent at `snapshot`; nothing to publish.
    tx.vlog.clear();
    return;
  }
  // Availability fault: a spurious commit-time failure, injected before any
  // publication so rollback is trivially clean. Drives the escalation
  // ladder in the starvation campaigns.
  if (VOTM_FAULT(kNorecCommitTail)) {
    tx.conflict(ConflictKind::kValidationFail);
  }
  // Victim-choice CM: defer (bounded) to a concurrent committer that
  // advertised a higher priority, then advertise our own — the pre-commit
  // arbitration that replaces the orec engines' lock-encounter decision.
  cm_norec_precommit(tx, cm_advertised_.value, cm_);
  // Acquire the sequence lock at our snapshot (value-based revalidation on
  // every interleaved commit). The CAS expected value is a local: on
  // failure the CAS overwrites it with the observed sequence, and validate
  // must still see the last VALIDATED snapshot in tx.snapshot — otherwise
  // the commits that slipped in would be silently skipped.
  VOTM_SCHED_POINT(kStmCommitLock);
  std::uint64_t expected = tx.snapshot;
  while (!seq.compare_exchange_strong(expected, expected + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    expected = tx.snapshot = validate(tx);
  }
  tx.snapshot = expected;
  for (const WriteSet::Entry& e : tx.wset.entries()) {
    VOTM_SCHED_POINT(kStmCommitWriteback);
    store_word(e.addr, e.value);
  }
  // No sched point past this release: the publish-to-return window must
  // stay uninterleaved for the harness's serialization witness.
  seq.store(tx.snapshot + 2, std::memory_order_release);
  // Drop our priority advertisement so later committers stop deferring.
  cm_norec_clear(tx, cm_advertised_.value, cm_);
  tx.clear_logs();
}

void NOrecEngine::rollback(TxThread& tx) {
  // A serial transaction dying to a user exception still holds the
  // sequence lock (odd at tx.snapshot); release it or the view wedges.
  // Its in-place writes stand — serial mode has mutex semantics.
  if (tx.serial) {
    seqlock_.value.store(tx.snapshot + 2, std::memory_order_release);
    tx.serial = false;
    return;
  }
  // Nothing published before commit; buffered state is discarded by the
  // caller via clear_logs(). A doomed committer may have advertised its
  // priority though — clear it, or every later committer would burn the
  // deference budget against a ghost.
  cm_norec_clear(tx, cm_advertised_.value, cm_);
}

void NOrecEngine::begin_serial(TxThread& tx) {
  // Take the sequence lock for the whole transaction. The admission drain
  // guarantees no peer is admitted in this view, but a writer that was
  // mid-commit when the token was granted may still hold the lock — spin
  // it out exactly like begin() does.
  auto& seq = seqlock_.value;
  int spins = 0;
  for (;;) {
    std::uint64_t even = seq.load(std::memory_order_acquire);
    if ((even & 1) == 0 &&
        seq.compare_exchange_weak(even, even + 1, std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      tx.snapshot = even;
      break;
    }
    VOTM_SCHED_YIELD_POINT(kStmWaitSeq);
    Backoff::cpu_relax();
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  begin_common(tx, this);
  tx.serial = true;
}

void NOrecEngine::end_serial(TxThread& tx) {
  // Release the sequence lock. The bump (snapshot+2 parity, odd→even)
  // makes concurrent snapshots taken before begin_serial revalidate, same
  // as any committed writer.
  tx.serial = false;
  seqlock_.value.store(tx.snapshot + 2, std::memory_order_release);
  tx.clear_logs();
}

}  // namespace votm::stm
