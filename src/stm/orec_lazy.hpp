// OrecLazy: commit-time (lazy) orec locking with redo logging — the
// TL2-style point of the RSTM design space, between OrecEagerRedo
// (encounter-time locking) and NOrec (no orecs at all).
//
// Writes only buffer; ownership records are acquired at commit, so a
// doomed transaction never blocks others mid-flight and write-write
// conflicts surface only at commit time. Reads validate against the
// per-instance version clock with timestamp extension, like OrecEagerRedo
// (the orec engines share stm/orec_snapshot.hpp's validation and extension).
//
// Included for the ablation between locking disciplines: the paper's
// livelock argument (Sec. III-D) blames *encounter-time* locking; OrecLazy
// demonstrates that the same orec metadata without eager acquisition
// behaves like the commit-time family under contention.
#pragma once

#include "stm/clock.hpp"
#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {

class OrecLazyEngine final : public TxEngine {
 public:
  // See OrecEagerRedoEngine for the OrecTableConfig compatibility note.
  explicit OrecLazyEngine(
      OrecTableConfig orec_table = {},
      ClockPolicy clock_policy = ClockPolicy::kGv1, CmRuntime cm = {})
      : clock_(clock_policy),
        orecs_(orec_table),
        cm_(cm) {}

  const char* name() const noexcept override { return "OrecLazy"; }

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
  VersionClock clock_;
  OrecTable orecs_;
  // Contention management (stm/contention.hpp): here the only foreign-lock
  // conflict is the commit-time acquisition race, so both the wait and the
  // victim choice apply at kCommitFail rather than the encounter points.
  const CmRuntime cm_;
};

}  // namespace votm::stm
