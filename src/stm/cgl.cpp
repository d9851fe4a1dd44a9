#include "stm/cgl.hpp"

#include "check/sched_point.hpp"
#include "stm/access.hpp"

namespace votm::stm {

void CglEngine::begin(TxThread& tx) {
  if (take_mutex_) {
    if (votm::check::thread_intercepted()) {
      // Cooperative harness: a parked thread holding mu_ would deadlock any
      // peer hard-blocked in mu_.lock(), so intercepted threads spin with a
      // yield point instead of blocking.
      while (!mu_.try_lock()) {
        VOTM_SCHED_YIELD_POINT(kCglLock);
      }
    } else {
      mu_.lock();
    }
  }
  tx.snapshot = 1;  // "inside the critical section" marker for rollback()
  // Accounting starts after acquisition: queueing for the lock is
  // admission time, not transaction time. Accesses are plain, except a
  // read-only transaction's writes, which must reach write() below.
  begin_common(tx, this, tx.read_only ? kWriteBarrier : 0);
}

Word CglEngine::read(TxThread& tx, const Word* addr) {
  (void)tx;
  return load_word(addr);
}

void CglEngine::write(TxThread& tx, Word* addr, Word value) {
  if (tx.read_only) {
    tx.misuse("write inside a read-only transaction (acquire_Rview)");
  }
  store_word(addr, value);
}

void CglEngine::commit(TxThread& tx) {
  VOTM_SCHED_POINT(kStmCommit);
  tx.snapshot = 0;
  if (take_mutex_) mu_.unlock();
}

void CglEngine::rollback(TxThread& tx) {
  // Reachable only via user exceptions and misuse (CGL never conflicts);
  // in-place writes stand, the critical section must end.
  if (tx.snapshot == 1) {
    tx.snapshot = 0;
    if (take_mutex_) mu_.unlock();
  }
}

}  // namespace votm::stm
