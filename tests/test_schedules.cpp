// votm-check: deterministic schedule exploration over the STM engines, the
// admission controller and the View layer.
//
// These tests drive the cooperative scheduler (src/check/) through random
// walks, PCT priority schedules and exhaustive enumeration, and assert the
// oracles stay clean on the shipped code. The FaultInjection tests are the
// harness's own mutation check: an injected validation skip in NOrec must
// produce a deterministically replayable opacity violation.
//
// Builds to a trivial skip when the schedule points are compiled out
// (-DVOTM_SCHED_POINTS=OFF).
#include <gtest/gtest.h>

#include "check/sched_point.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <cstdlib>
#include <string>

#include "check/explore.hpp"
#include "check/fault.hpp"
#include "check/scenarios.hpp"
#include "stm/signature.hpp"

namespace votm::check {
namespace {

constexpr stm::Algo kAllAlgos[] = {
    stm::Algo::kNOrec,         stm::Algo::kTml,
    stm::Algo::kOrecEagerRedo, stm::Algo::kOrecLazy,
    stm::Algo::kOrecEagerUndo,
};

TEST(ScheduleHex, RoundTrip) {
  auto parsed = schedule_from_hex("0123a");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, (std::vector<std::uint8_t>{0, 1, 2, 3, 10}));
  EXPECT_FALSE(schedule_from_hex("01x2").has_value());
}

TEST(Determinism, SameSeedSameSchedule) {
  StmRandomScenario scenario(StmRandomConfig{});
  SchedOptions opts;
  opts.mode = SchedMode::kRandom;
  opts.seed = 0xDEADBEEF;
  const auto a = scenario.run_once(opts);
  const auto b = scenario.run_once(opts);
  ASSERT_FALSE(a.violation.has_value()) << a.violation->what;
  ASSERT_FALSE(b.violation.has_value()) << b.violation->what;
  EXPECT_FALSE(a.sched.choices.empty());
  // Byte-identical schedules: the scenario is a pure function of the seed.
  EXPECT_EQ(a.sched.schedule_hex(), b.sched.schedule_hex());
}

TEST(Determinism, ReplayFollowsRecordedSchedule) {
  StmRandomScenario scenario(StmRandomConfig{});
  SchedOptions opts;
  opts.seed = 7;
  const auto recorded = scenario.run_once(opts);
  ASSERT_FALSE(recorded.violation.has_value()) << recorded.violation->what;
  const auto replay =
      replay_schedule(scenario, recorded.sched.schedule_hex());
  EXPECT_TRUE(replay.clean()) << replay.repro;
  EXPECT_EQ(replay.runs, 1u);
}

TEST(RandomWalks, OpacityHoldsAcrossEngines) {
  for (stm::Algo algo : kAllAlgos) {
    StmRandomConfig cfg;
    cfg.algo = algo;
    StmRandomScenario scenario(cfg);
    const auto report = explore_random(scenario, 40, 0xC0FFEE);
    EXPECT_TRUE(report.clean()) << report.repro;
    EXPECT_EQ(report.runs, 40u);
  }
}

TEST(RandomWalks, SnapshotConsistencyHoldsAcrossEngines) {
  for (stm::Algo algo : kAllAlgos) {
    StmSnapshotConfig cfg;
    cfg.algo = algo;
    StmSnapshotScenario scenario(cfg);
    const auto report = explore_random(scenario, 40, 0xBADC0DE);
    EXPECT_TRUE(report.clean()) << report.repro;
  }
}

TEST(RandomWalks, DuplicateReadsExerciseDedupPaths) {
  // Heavy re-reads over two variables: the orec engines route repeated
  // reads of one stripe through OrecReadLog's dedup probe, NOrec through
  // ValueReadLog's adjacent-duplicate collapse — with writers interleaved
  // so validation runs against the deduped logs.
  for (stm::Algo algo : kAllAlgos) {
    StmRandomConfig cfg;
    cfg.algo = algo;
    cfg.vars = 2;
    cfg.ops_per_tx = 5;
    cfg.write_pct = 30;
    cfg.reread_pct = 60;
    StmRandomScenario scenario(cfg);
    const auto report = explore_random(scenario, 40, 0xD0D0);
    EXPECT_TRUE(report.clean()) << report.repro;
  }
}

TEST(PctWalks, OpacityHolds) {
  StmRandomScenario scenario(StmRandomConfig{});
  const auto report = explore_pct(scenario, 30, 0xFACE, /*depth=*/3);
  EXPECT_TRUE(report.clean()) << report.repro;
  EXPECT_EQ(report.runs, 30u);
}

TEST(Exhaustive, SmallBoundCoversTreeClean) {
  // Two threads, one write each: small enough to enumerate completely.
  StmRandomConfig cfg;
  cfg.threads = 2;
  cfg.vars = 1;
  cfg.txs_per_thread = 1;
  cfg.ops_per_tx = 1;
  cfg.write_pct = 100;
  StmRandomScenario scenario(cfg);
  const auto report = explore_exhaustive(scenario, /*max_runs=*/50000);
  EXPECT_TRUE(report.clean()) << report.repro;
  EXPECT_TRUE(report.exhausted) << "tree larger than budget: " << report.runs;
  EXPECT_GT(report.runs, 1u);
}

TEST(Exhaustive, SnapshotSmallBoundClean) {
  StmSnapshotConfig cfg;
  cfg.writers = 1;
  cfg.vars = 2;
  cfg.reads_per_reader = 1;
  cfg.txs_per_writer = 1;
  StmSnapshotScenario scenario(cfg);
  const auto report = explore_exhaustive(scenario, /*max_runs=*/50000);
  EXPECT_TRUE(report.clean()) << report.repro;
  EXPECT_TRUE(report.exhausted) << "tree larger than budget: " << report.runs;
}

// The harness's mutation check: with NOrec's value validation skipped, a
// writer sliding between two reads of a read-only snapshot produces a torn
// snapshot that no serial execution explains. The harness must find it,
// print a reproducer, and the reproducer must replay deterministically.
TEST(FaultInjection, NorecValidationSkipIsCaughtAndReplayable) {
  StmSnapshotConfig cfg;
  cfg.algo = stm::Algo::kNOrec;
  StmSnapshotScenario scenario(cfg);

  // Sanity: the unfaulted engine is clean on the same campaign.
  const auto clean = explore_random(scenario, 100, 0x5EED);
  ASSERT_TRUE(clean.clean()) << clean.repro;

  FaultGuard fault(FaultSite::kNorecSkipValidation);
  const auto report = explore_random(scenario, 2000, 0x5EED);
  ASSERT_FALSE(report.clean())
      << "validation-skip mutant survived " << report.runs << " schedules";
  EXPECT_NE(report.repro.find("votm-check repro:"), std::string::npos);
  EXPECT_FALSE(report.schedule.empty());

  // The one-line reproducer pins the failure: replaying the schedule hits
  // the identical violation, run after run.
  for (int i = 0; i < 3; ++i) {
    const auto replay = replay_schedule(scenario, report.schedule);
    ASSERT_FALSE(replay.clean()) << "replay " << i << " lost the violation";
    EXPECT_EQ(replay.violation->what, report.violation->what);
  }
}

// Mutation check for the signature-filter fast path: a filter that treats
// a read/write signature overlap as disjoint skips the values_match()
// fallback it must trigger, and a reader validates a torn snapshot as
// clean. The snapshot scenario's writers write every variable the reader
// reads, so the overlap (and thus the mutated branch) is hit on every
// filtered validation.
TEST(FaultInjection, NorecFilterFallbackSkipIsCaughtAndReplayable) {
  if (!stm::kValidationFiltersDefault) {
    GTEST_SKIP() << "filters compiled off (-DVOTM_VALIDATION_FILTERS=OFF)";
  }
  StmSnapshotConfig cfg;
  cfg.algo = stm::Algo::kNOrec;
  StmSnapshotScenario scenario(cfg);

  // Sanity: the unfaulted filter path is clean on the same campaign.
  const auto clean = explore_random(scenario, 100, 0xF117);
  ASSERT_TRUE(clean.clean()) << clean.repro;

  FaultGuard fault(FaultSite::kNorecSkipFilterFallback);
  const auto report = explore_random(scenario, 2000, 0xF117);
  ASSERT_FALSE(report.clean())
      << "filter-fallback-skip mutant survived " << report.runs
      << " schedules";
  EXPECT_FALSE(report.schedule.empty());
  const auto replay = replay_schedule(scenario, report.schedule);
  ASSERT_FALSE(replay.clean()) << "replay lost the violation";
  EXPECT_EQ(replay.violation->what, report.violation->what);
}

TEST(FaultInjection, ExhaustiveFindsNorecValidationSkip) {
  StmSnapshotConfig cfg;
  cfg.algo = stm::Algo::kNOrec;
  cfg.vars = 2;
  cfg.reads_per_reader = 1;
  cfg.txs_per_writer = 1;
  StmSnapshotScenario scenario(cfg);
  FaultGuard fault(FaultSite::kNorecSkipValidation);
  const auto report = explore_exhaustive(scenario, /*max_runs=*/50000);
  ASSERT_FALSE(report.clean()) << "mutant survived exhaustive enumeration";
  EXPECT_FALSE(report.schedule.empty());
}

TEST(AdmissionChurn, InvariantsHoldUnderRandomWalks) {
  AdmissionChurnScenario scenario(default_admission_churn(3));
  const auto report = explore_random(scenario, 60, 0xAD31);
  EXPECT_TRUE(report.clean()) << report.repro;
}

TEST(AdmissionChurn, NonPowerOfTwoWorkerCount) {
  AdmissionChurnScenario scenario(default_admission_churn(5));
  const auto report = explore_random(scenario, 30, 0xAD32);
  EXPECT_TRUE(report.clean()) << report.repro;
}

TEST(AdmissionChurn, PauseLedgerIgnoresSlotStragglers) {
  // A try_admit that loaded OPEN before pause() closed the gate publishes
  // its slot entry after the drain and then undoes it. admitted() must not
  // count it in between: the mutator reads the ledger at a schedule point
  // after pause() returns, and enumeration reaches that interleaving.
  AdmissionChurnConfig cfg;
  cfg.workers = 2;
  cfg.max_threads = 2;
  cfg.initial_quota = 2;  // Q == max_threads: the gate opens
  cfg.rounds = 1;
  cfg.try_admit_every = 1;  // non-blocking workers keep the tree finite
  cfg.program = {{AdmissionChurnStep::Op::kPause, 0}};
  AdmissionChurnScenario scenario(cfg);
  const auto report = explore_exhaustive(scenario, /*max_runs=*/50000);
  EXPECT_TRUE(report.clean()) << report.repro;
  EXPECT_TRUE(report.exhausted) << "tree larger than budget: " << report.runs;
}

TEST(AdmissionChurn, LockModeProgramExhaustive) {
  // Two workers against a mutator that drops to lock mode and back: small
  // enough to enumerate, and it covers the Q=1 drain edge completely.
  // try_admit only (every round): a worker blocked in admit() plus the
  // mutator's drain loop would be two concurrent spin loops, and the
  // schedule tree of paired spinners is unbounded — non-blocking workers
  // keep it finite so the enumeration can actually exhaust it.
  AdmissionChurnConfig cfg;
  cfg.workers = 2;
  cfg.max_threads = 2;
  cfg.initial_quota = 2;
  cfg.rounds = 1;
  cfg.try_admit_every = 1;
  cfg.program = {{AdmissionChurnStep::Op::kSetQuota, 1},
                 {AdmissionChurnStep::Op::kSetQuota, 2}};
  AdmissionChurnScenario scenario(cfg);
  const auto report = explore_exhaustive(scenario, /*max_runs=*/50000);
  EXPECT_TRUE(report.clean()) << report.repro;
  EXPECT_TRUE(report.exhausted) << "tree larger than budget: " << report.runs;
}

TEST(ViewStats, ExceptionAbortsAreAccounted) {
  // Thread 0 throws out of every second transaction; the stats-conservation
  // oracle (commits + aborts == attempts) fails if the exception path drops
  // its abort, and the ledger oracle fails if it double-leaves admission.
  ViewStatsScenario scenario(ViewStatsConfig{});
  const auto report = explore_random(scenario, 40, 0x1157A75);
  EXPECT_TRUE(report.clean()) << report.repro;
}

TEST(ViewStats, CleanRunAllEngines) {
  for (stm::Algo algo : kAllAlgos) {
    ViewStatsConfig cfg;
    cfg.algo = algo;
    cfg.threads = 2;
    cfg.max_threads = 2;
    cfg.fixed_quota = 2;
    cfg.txs_per_thread = 2;
    cfg.throw_every = 0;
    ViewStatsScenario scenario(cfg);
    const auto report = explore_random(scenario, 20, 0x7157A75);
    EXPECT_TRUE(report.clean()) << report.repro;
  }
}

// The progress guarantee under the adversarial schedule: the victim loses
// EVERY ordinary conflict (marked commit-tail fault) with no backoff
// configured, and must still commit within serial_after + 1 attempts via
// the serial rung. The scenario's oracles also pin serial mutual exclusion
// and ledger conservation on every explored schedule.
TEST(Escalation, StarvationFreedomAcrossEngines) {
  for (stm::Algo algo : kAllAlgos) {
    EscalationScenarioConfig cfg;
    cfg.algo = algo;
    EscalationScenario scenario(cfg);
    const auto report = explore_random(scenario, 25, 0x57A12);
    EXPECT_TRUE(report.clean()) << report.repro;
    EXPECT_EQ(report.runs, 25u);
  }
}

TEST(Escalation, StarvationFreedomThreeThreads) {
  // Two unfaulted peers: the serial drain displaces a genuinely contended
  // view, and the token queue sees concurrent ordinary admissions.
  EscalationScenarioConfig cfg;
  cfg.algo = stm::Algo::kOrecEagerRedo;
  cfg.threads = 3;
  cfg.max_threads = 3;
  cfg.serial_after = 2;
  EscalationScenario scenario(cfg);
  const auto report = explore_random(scenario, 25, 0x57A13);
  EXPECT_TRUE(report.clean()) << report.repro;
}

// The acceptance-bar campaign (10k random schedules) is minutes of work on
// a small host, so it only runs when asked for: VOTM_CHECK_HEAVY=1 ctest
// -R Heavy. The default suite above keeps per-test budgets CI-sized.
TEST(Heavy, TenThousandRandomSchedules) {
  if (std::getenv("VOTM_CHECK_HEAVY") == nullptr) {
    GTEST_SKIP() << "set VOTM_CHECK_HEAVY=1 to run the 10k-schedule campaign";
  }
  StmRandomScenario stm_scenario(StmRandomConfig{});
  const auto stm_report = explore_random(stm_scenario, 10000, 0xB16);
  EXPECT_TRUE(stm_report.clean()) << stm_report.repro;

  AdmissionChurnScenario adm_scenario(default_admission_churn(3));
  const auto adm_report = explore_random(adm_scenario, 10000, 0xB17);
  EXPECT_TRUE(adm_report.clean()) << adm_report.repro;
}

}  // namespace
}  // namespace votm::check

#else  // !VOTM_SCHED_POINTS

TEST(VotmCheck, SchedulePointsCompiledOut) {
  GTEST_SKIP() << "configure with -DVOTM_SCHED_POINTS=ON for this suite";
}

#endif  // VOTM_SCHED_POINTS
