// OrecEagerUndo: encounter-time locking with in-place writes and an undo
// log — TinySTM's write-through mode, the fourth corner of the design
// square spanned with OrecEagerRedo (eager/redo), OrecLazy (lazy/redo) and
// NOrec (no orecs).
//
// Writes lock the covering orec, save the old value to an undo log, and
// update memory directly: commits are cheap (no write-back pass), aborts
// are expensive (undo pass). That cost asymmetry is exactly the wrong one
// under high contention — which makes this engine the sharpest ablation of
// the paper's claim that encounter-time locking needs admission control:
// every aborted transaction now also pays to restore memory.
//
// Readers of a foreign-locked orec abort (the in-place value is
// speculative); readers of an unlocked orec validate by version with
// timestamp extension, like the other orec engines. A read-for-write at
// first touch waits, bounded, for the lock to drop instead (DESIGN.md §22).
// Validation, extension and acquisition are the shared rules of
// stm/orec_snapshot.hpp.
#pragma once

#include "stm/clock.hpp"
#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {

class OrecEagerUndoEngine final : public TxEngine {
 public:
  // See OrecEagerRedoEngine for the OrecTableConfig compatibility note.
  explicit OrecEagerUndoEngine(
      OrecTableConfig orec_table = {},
      ClockPolicy clock_policy = ClockPolicy::kGv1, CmRuntime cm = {})
      : clock_(clock_policy),
        orecs_(orec_table),
        cm_(cm) {}

  const char* name() const noexcept override { return "OrecEagerUndo"; }

  void begin(TxThread& tx) override;
  Word read(TxThread& tx, const Word* addr) override;
  void write(TxThread& tx, Word* addr, Word value) override;
  // Locks the word's orec (waiting at first touch, see
  // rfw_first_touch_wait) and returns its value; undo-logs nothing.
  Word read_for_write(TxThread& tx, Word* addr) override;
  void commit(TxThread& tx) override;
  void rollback(TxThread& tx) override;

  // Memory-order contract lives at VersionClock::read().
  std::uint64_t clock() const noexcept { return clock_.read(); }
  const VersionClock& version_clock() const noexcept { return clock_; }
  OrecTable& orec_table() noexcept { return orecs_; }

 private:
  VersionClock clock_;
  OrecTable orecs_;
  // Contention management (stm/contention.hpp). Especially apt here: an
  // abort pays the undo pass, so both outwaiting a short commit-time hold
  // and a victim choice that protects work already done (kKarma) save the
  // most expensive retry in the design square (DESIGN.md §§19-20).
  const CmRuntime cm_;
};

}  // namespace votm::stm
