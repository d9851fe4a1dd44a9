// NOrec: commit-time locking STM with value-based validation and no
// ownership records (Dalessandro, Spear, Scott — PPoPP 2010).
//
// The only shared metadata is one sequence lock per instance ("the global
// clock" in the paper's terminology). This is precisely why the paper's
// Tables VII-X show multi-view VOTM helping NOrec even with RAC inactive:
// each view's NOrecEngine carries its own sequence lock, so partitioning
// the data partitions the metadata contention (paper Sec. III-D).
#pragma once

#include <atomic>

#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "util/cacheline.hpp"

namespace votm::stm {

class NOrecEngine final : public TxEngine {
 public:
  explicit NOrecEngine(CmRuntime cm = {}) : cm_(cm) {}

  const char* name() const noexcept override { return "NOrec"; }

  void begin(TxThread& tx) override;
  Word read(TxThread& tx, const Word* addr) override;
  void write(TxThread& tx, Word* addr, Word value) override;
  void commit(TxThread& tx) override;
  void rollback(TxThread& tx) override;

  // Irrevocable mode: acquires the sequence lock (odd) for the whole
  // transaction, so reads and writes go straight to memory and commit is a
  // single release store. See DESIGN.md §14.
  void begin_serial(TxThread& tx) override;
  void end_serial(TxThread& tx) override;

  // Exposed for tests and the metadata-contention microbench.
  std::uint64_t sequence() const noexcept {
    return seqlock_.value.load(std::memory_order_relaxed);
  }

 private:
  // Re-validates tx's read log until a consistent even snapshot is found;
  // calls tx.conflict() if any logged value changed.
  std::uint64_t validate(TxThread& tx);

  // Even = unlocked; a committing writer holds it odd during write-back.
  CacheLinePadded<std::atomic<std::uint64_t>> seqlock_{};
  // Victim-choice CM (DESIGN.md §20). NOrec has no orecs to park on, so
  // victim choice moves to its only contended decision: who wins the
  // sequence-lock race. Committers defer (bounded) to a higher advertised
  // priority in cm_advertised_ before racing; see cm_norec_precommit.
  const CmRuntime cm_;
  CacheLinePadded<std::atomic<std::uint64_t>> cm_advertised_{};
};

}  // namespace votm::stm
