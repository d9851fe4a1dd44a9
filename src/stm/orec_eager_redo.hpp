// OrecEagerRedo: encounter-time locking with redo logging (RSTM's
// OrecEagerRedo; the locking discipline of TinySTM in write-back mode).
//
// Writers acquire the ownership record covering an address at first write
// (encounter time) and buffer the value in a redo log; readers validate
// against a per-instance version clock with timestamp extension. A reader
// or writer that meets a foreign lock aborts itself and retries immediately
// — the aggressive policy under which the paper observes livelock at high
// contention (Tables III and V, Q >= 16). The one exception is a
// read-for-write that is the transaction's first touch: it waits, bounded,
// for the lock to drop (rfw_first_touch_wait, DESIGN.md §22). Validation,
// extension and acquisition are the shared rules of stm/orec_snapshot.hpp.
#pragma once

#include "stm/clock.hpp"
#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {

class OrecEagerRedoEngine final : public TxEngine {
 public:
  // `orec_table` keeps accepting a bare size (OrecTableConfig converts
  // implicitly) so pre-granularity call sites read unchanged.
  explicit OrecEagerRedoEngine(
      OrecTableConfig orec_table = {},
      ClockPolicy clock_policy = ClockPolicy::kGv1, CmRuntime cm = {})
      : clock_(clock_policy),
        orecs_(orec_table),
        cm_(cm) {}

  const char* name() const noexcept override { return "OrecEagerRedo"; }

  void begin(TxThread& tx) override;
  Word read(TxThread& tx, const Word* addr) override;
  void write(TxThread& tx, Word* addr, Word value) override;
  // Locks the word's orec (waiting at first touch, see
  // rfw_first_touch_wait) and returns its value; logs no write.
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
  // Contention management (stm/contention.hpp): wait/abort mode, spin
  // budget and the victim-choice policy bundle (DESIGN.md §§19-20).
  const CmRuntime cm_;
};

}  // namespace votm::stm
