// OrecEagerRedo: encounter-time locking with redo logging (RSTM's
// OrecEagerRedo; the locking discipline of TinySTM in write-back mode).
//
// Writers acquire the ownership record covering an address at first write
// (encounter time) and buffer the value in a redo log; readers validate
// against a per-instance version clock with timestamp extension. A reader
// or writer that meets a foreign lock aborts itself and retries immediately
// — the aggressive policy under which the paper observes livelock at high
// contention (Tables III and V, Q >= 16).
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
  void commit(TxThread& tx) override;
  void rollback(TxThread& tx) override;

  // Memory-order contract lives at VersionClock::read().
  std::uint64_t clock() const noexcept { return clock_.read(); }
  const VersionClock& version_clock() const noexcept { return clock_; }
  OrecTable& orec_table() noexcept { return orecs_; }

 private:
  // Validates the orec read log; returns false if any orec is foreign-locked
  // or has advanced past `bound`.
  bool read_log_valid(TxThread& tx, std::uint64_t bound) const noexcept;

  // Timestamp extension (TinySTM-style): re-validate and move start_time
  // forward; aborts via tx.conflict() when validation fails. `observed` is
  // the orec version that forced the extension (may exceed the global
  // clock under GV5; see VersionClock::extension_bound).
  void extend(TxThread& tx, std::uint64_t observed);

  VersionClock clock_;
  OrecTable orecs_;
  // Contention management (stm/contention.hpp): wait/abort mode, spin
  // budget and the victim-choice policy bundle (DESIGN.md §§19-20).
  const CmRuntime cm_;
};

}  // namespace votm::stm
