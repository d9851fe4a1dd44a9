// View configuration: algorithm choice, RAC mode, adaptation knobs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/algo_select.hpp"
#include "rac/admission.hpp"
#include "rac/policy.hpp"
#include "stm/factory.hpp"
#include "util/backoff.hpp"

namespace votm::core {

// How admission control is applied to a view. The paper's four evaluated
// configurations map as:
//   single-view  = one view,   kAdaptive (or kFixed for the Q sweeps)
//   multi-view   = many views, kAdaptive (or kFixed)
//   multi-TM     = many views, kDisabled ("access to each view is
//                  completely free without using the RAC mechanism")
//   TM           = one view,   kDisabled (plain RSTM)
enum class RacMode : std::uint8_t {
  kAdaptive,  // Q starts at N, moves by halving/doubling per delta(Q)
  kFixed,     // Q pinned (the fixed-Q table sweeps; Q = N disables limits)
  kDisabled,  // no admission control at all, no RAC bookkeeping overhead
};

// Escalation ladder thresholds (DESIGN.md §14). A transaction's rung is its
// consecutive-abort streak:
//   streak <  aging_after   — configured backoff policy (paper default: none)
//   streak >= aging_after   — priority aging: retries are paced by the
//                             view's average aborted-transaction cost,
//                             doubling per extra abort (Backoff::pause_aged)
//   streak >= serial_after  — serial escalation: acquire the view's serial
//                             token, drain the peers, run irrevocably; the
//                             transaction then cannot abort, so serial_after
//                             bounds every transaction's total abort count.
//
// Opt-in, not default: the aging pauses suppress exactly the signal
// (aborted cycles feeding delta) that adaptive RAC halves quotas on, so
// the two controllers fight — measured on examples/bank, the ladder under
// kAdaptive holds Q at N and costs ~250x wall clock vs letting RAC drop
// to lock mode. Enable it for the regimes that actually starve: fixed-Q /
// no-backoff deployments (the paper's livelock rows) that need a
// per-transaction progress bound.
struct EscalationConfig {
  bool enabled = false;
  std::uint64_t aging_after = 64;
  std::uint64_t serial_after = 256;
};

struct ViewConfig {
  stm::Algo algo = stm::Algo::kNOrec;
  std::size_t initial_bytes = std::size_t{1} << 20;
  unsigned max_threads = 16;  // the paper's N

  RacMode rac = RacMode::kAdaptive;
  unsigned fixed_quota = 0;  // used when rac == kFixed (clamped to [1, N])

  // Admission gate implementation: the packed-word lock-free fast path
  // (default), or the legacy mutex gate kept as the A/B baseline for
  // bench/micro_admission.
  rac::AdmissionImpl admission_impl = rac::AdmissionImpl::kAtomic;
  // Total cpu_relax budget an admission spends waiting for a slot before
  // parking on the condvar (only reached when the view is full or paused).
  // Past AdmissionController::kShortSpin iterations only a lock-mode
  // (Q = 1) waiter spins on; a budget up to kShortSpin parks as soon as it
  // is spent.
  unsigned admission_spin = rac::AdmissionController::kDefaultSpinBudget;

  // Per-view stats stripe count (rounded up to a power of two, capped at
  // StripedEpochStats::kMaxStripes). 0 = one stripe per potential thread
  // (max_threads), so commit/abort accounting never shares a cacheline
  // between threads.
  unsigned stats_stripes = 0;

  // Adaptation epoch length, in transaction *events* (commits + aborts).
  // Counting aborts is essential: in a livelock commits stop, and the
  // epoch must still close so RAC can halve Q (paper Sec. III-D: "delta(Q)
  // will rise very quickly, and RAC will promptly drive Q down").
  std::uint64_t adapt_interval = 2048;
  rac::PolicyConfig policy{};

  // Engine construction knobs, clock policy included: `engine.clock_policy`
  // selects GV1/GV4/GV5 for this view's orec-family engine (ignored by the
  // seqlock/mutex engines). See stm/factory.hpp and DESIGN.md §15.
  stm::EngineConfig engine{};
  BackoffPolicy backoff = BackoffPolicy::kNone;  // paper default: no backoff

  // Grace-period reclamation (stm/epoch.hpp, DESIGN.md §17). Blocks freed
  // inside transactions are retired to a limbo list at commit; once this
  // many blocks have been retired since the last reclaim pass, the next
  // transaction exit runs an amortized pass (try-lock, so at most one
  // thread pays it).
  // 0 disables the amortized passes — retired blocks then return to the
  // arena only under allocation pressure or via View::reclaim_garbage().
  std::size_t reclaim_threshold = 64;

  // Bounded-time transactions (DESIGN.md §19). Every transaction entered
  // on this view gets this much steady-clock budget, held across conflict
  // retries of the same run; once it passes, the run surfaces the defined
  // stm::DeadlineExceeded outcome within one bounded validation/backoff
  // step instead of retrying forever. 0 disables; negative values are
  // sanitized to 0 at view construction (stm/factory.cpp, with a stderr
  // note + FactoryStats counter). Per-run overrides: View::run_for /
  // run_until.
  std::int64_t tx_deadline_ns = 0;

  // Limbo backpressure (graceful overload, DESIGN.md §19). When the limbo
  // list's depth crosses the SOFT watermark, every transaction exit runs a
  // forced reclaim pass (not just the amortized try-lock pass of
  // reclaim_threshold). Past the HARD watermark — production is outrunning
  // reclamation even when forced — the view also sheds admission quota
  // (halving toward 1) so the system degrades to slower-but-bounded
  // instead of exhausting the arena. 0 disables either mark; a hard mark
  // below the soft mark is raised to it at view construction.
  std::size_t limbo_soft_watermark = 0;
  std::size_t limbo_hard_watermark = 0;

  // Progress guarantee for starving transactions. Requires admission
  // control (rac != kDisabled) for the serial rung — without a controller
  // there is nothing to drain, so only the aging rung applies.
  EscalationConfig escalation{};

  // Per-view adaptive TM algorithm selection (paper Sec. IV-C). Only active
  // together with RacMode::kAdaptive: decisions ride the same epochs as
  // quota adaptation, and the safe-switch protocol needs the admission
  // controller to quiesce the view.
  AlgoAdaptConfig algo_adapt{};

  // Record per-transaction commit/abort latency histograms (log2 buckets).
  // Off by default: two relaxed atomic increments per transaction are
  // cheap but not free, and the fixed-Q table sweeps do not need them.
  bool collect_latency = false;

  // Record one TracePoint per adaptation epoch (quota-over-time series;
  // see rac/trace.hpp). Only meaningful with RacMode::kAdaptive.
  bool trace_adaptation = false;
};

}  // namespace votm::core
