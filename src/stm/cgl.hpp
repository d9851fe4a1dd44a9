// CGL: coarse-grained lock "engine" — a critical section with
// uninstrumented reads and writes. This is what RAC's lock mode (Q = 1)
// executes: the paper's acquire_view at Q = 1 "is equivalent to a lock
// acquisition ... to avoid the transactional overhead" (Sec. II). It also
// serves as the single-threaded performance baseline in the microbenches.
//
// As a view's own engine (Algo::kCgl) it takes a mutex around each
// transaction. As a view's lock-mode engine it takes none: a lock-mode
// grant is an admission whose quota snapshot is 1, and such a grant
// admits nobody else (DESIGN.md §11), so the admission gate is the lock.
// Either way begin() leaves TxThread::barrier clear, and core::vread/vwrite
// load and store plainly without calling read()/write(); only a write in a
// read-only transaction reaches write(), which reports the misuse.
#pragma once

#include <mutex>

#include "stm/engine.hpp"

namespace votm::stm {

class CglEngine final : public TxEngine {
 public:
  // take_mutex = false is for callers that already run one transaction at
  // a time on this engine (RAC's lock mode).
  explicit CglEngine(bool take_mutex = true) : take_mutex_(take_mutex) {}

  const char* name() const noexcept override { return "CGL"; }
  bool speculative() const noexcept override { return false; }

  void begin(TxThread& tx) override;
  Word read(TxThread& tx, const Word* addr) override;
  void write(TxThread& tx, Word* addr, Word value) override;
  void commit(TxThread& tx) override;
  void rollback(TxThread& tx) override;

 private:
  const bool take_mutex_;
  std::mutex mu_;
};

}  // namespace votm::stm
