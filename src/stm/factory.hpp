// Algorithm registry: RSTM-style "choose the TM algorithm by name".
//
// Every view picks its algorithm at creation; VOTM-OrecEagerRedo and
// VOTM-NOrec in the paper are exactly these two choices applied to all
// views of an application.
#pragma once

#include <memory>
#include <string>

#include "stm/clock.hpp"
#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {

enum class Algo : std::uint8_t {
  kNOrec,          // commit-time locking, value-based validation
  kOrecEagerRedo,  // encounter-time locking, redo log
  kOrecLazy,       // commit-time orec locking, redo log (TL2-style)
  kOrecEagerUndo,  // encounter-time locking, in-place writes + undo log
  kTml,            // single sequence lock, irrevocable writer
  kCgl,            // coarse-grained mutex (RAC's Q = 1 lock mode)
};

struct EngineConfig {
  // Sanitized by make_engine rather than validated: a non-power-of-two
  // request is rounded UP (0 -> 1) with a factory stat + stderr note,
  // instead of OrecTable's std::invalid_argument escaping from deep
  // inside view construction. Direct OrecTable/engine construction stays
  // strict.
  std::size_t orec_table_size = OrecTable::kDefaultSize;
  // log2 bytes of application memory per orec stripe: 3 = word (default,
  // historical behavior), 6 = cache line, 7 = two lines. Clamped by the
  // factory into OrecTableConfig's [3, 12] with a stat. Coarser stripes
  // shrink read logs and validation scans for spatially local workloads
  // at the price of false conflicts between stripe-sharing neighbors;
  // bench/micro_granularity maps the tradeoff.
  unsigned orec_granularity_shift = OrecTable::kDefaultGranularityShift;
  // NOrec commit-signature broadcast (validation filtering); the orec
  // engines' read-log dedup is a per-TxThread knob, not an engine one.
  // Default follows the VOTM_VALIDATION_FILTERS CMake option.
  bool norec_commit_filters = kValidationFiltersDefault;
  // Version-clock timestamp-allocation policy for the orec engines
  // (GV1/GV4/GV5, see stm/clock.hpp). NOrec/TML keep their sequence lock;
  // the setting is ignored there. Per view, like everything else in
  // EngineConfig (it rides in ViewConfig::engine).
  ClockPolicy clock_policy = ClockPolicy::kGv1;
  // Wait-based contention management (stm/contention.hpp, DESIGN.md §19):
  // on a foreign-locked orec the loser parks on the winner's orec with a
  // bounded wait instead of aborting; timeout falls back to today's
  // abort+backoff. Orec engines only; NOrec/TML/CGL accept and ignore it
  // (there is no lock whose wait could save the loser — see the
  // contention-mode row in docs/ALGORITHMS.md).
  ContentionMode contention_mode = ContentionMode::kAbortRetry;
  // Wait budget in spin iterations before the timeout fallback. Signed so
  // a negative request is representable: the factory clamps zero/negative
  // and over-limit values into [kCmWaitSpinsMin, kCmWaitSpinsMax] with a
  // stderr note + FactoryStats counter.
  std::int64_t cm_wait_spin_limit = kCmWaitSpinsDefault;
  // Victim-choice policy (stm/cm_policy.hpp, DESIGN.md §20): who loses
  // when two transactions collide. Orec engines apply it at every
  // foreign-lock encounter; NOrec at its pre-commit seqlock arbitration;
  // TML/CGL accept and ignore it. An out-of-range byte (config structs do
  // travel through untyped channels) falls back to kAbortSelf with a
  // stderr note + cm_policy_fallbacks count.
  CmPolicy cm_policy = CmPolicy::kAbortSelf;
  // kKarma's priority cap. Signed so zero/negative requests are
  // representable; clamped into [kCmKarmaCapMin, kCmKarmaCapMax].
  std::int64_t cm_karma_cap = static_cast<std::int64_t>(kCmKarmaCapDefault);
  // kWindowGreedy's window width W (slots). Clamped into
  // [kCmWindowMin, kCmWindowMax]; a width below 2 has no randomization
  // left to offer.
  std::int64_t cm_window_size = kCmWindowDefault;
};

std::unique_ptr<TxEngine> make_engine(Algo algo, const EngineConfig& config = {});

// Process-wide counters for the factory's quiet input repairs; tests pin
// the sanitization behavior through these, and a production operator can
// tell a misconfigured deployment from a clean one.
struct FactoryStats {
  std::uint64_t orec_size_roundups;       // non-pow2 (or 0) sizes rounded up
  std::uint64_t orec_granularity_clamps;  // out-of-range shifts clamped
  std::uint64_t cm_wait_clamps;           // zero/negative/huge wait budgets
  std::uint64_t deadline_clamps;          // negative tx deadlines -> disabled
  std::uint64_t watermark_clamps;         // hard watermark raised to soft
  std::uint64_t cm_policy_fallbacks;      // invalid cm_policy -> kAbortSelf
  std::uint64_t cm_karma_clamps;          // zero/negative/huge karma caps
  std::uint64_t cm_window_clamps;         // out-of-range window widths
};
FactoryStats factory_stats() noexcept;

// The sanitized table config make_engine would build — exposed so tests
// and tools can predict the exact table an EngineConfig yields.
OrecTableConfig sanitized_orec_table_config(const EngineConfig& config);

// Sanitized wait-CM budget: zero/negative and over-limit values clamp into
// [kCmWaitSpinsMin, kCmWaitSpinsMax] (stderr note + cm_wait_clamps).
std::uint32_t sanitized_cm_wait_spin_limit(std::int64_t requested);

// Victim-choice knob sanitizers (same clamp-and-count treatment):
//   * an out-of-range policy byte falls back to kAbortSelf;
//   * the karma cap clamps into [kCmKarmaCapMin, kCmKarmaCapMax];
//   * the window width clamps into [kCmWindowMin, kCmWindowMax].
CmPolicy sanitized_cm_policy(CmPolicy requested);
std::uint64_t sanitized_cm_karma_cap(std::int64_t requested);
std::uint32_t sanitized_cm_window_size(std::int64_t requested);

// The full sanitized CM bundle make_engine hands the engines — exposed so
// tests and harnesses can predict (and reuse) the exact runtime an
// EngineConfig yields.
CmRuntime sanitized_cm_runtime(const EngineConfig& config);

// View-level robustness knobs share the factory's clamp-and-count
// treatment (core/view.cpp calls these at construction):
//   * a negative tx deadline means nothing — sanitized to 0 (disabled);
//   * a hard limbo watermark BELOW the soft one would shed load before
//     trying to reclaim — the hard mark is raised to the soft mark.
std::int64_t sanitized_tx_deadline_ns(std::int64_t requested);
std::size_t sanitized_limbo_hard_watermark(std::size_t soft, std::size_t hard);

// Parses "norec", "oer"/"oreceagerredo", "lazy"/"oreclazy",
// "undo"/"oreceagerundo", "tml", "cgl" (case-insensitive).
Algo algo_from_string(const std::string& name);
const char* to_string(Algo algo) noexcept;

}  // namespace votm::stm
