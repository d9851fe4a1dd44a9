// The systematic fault-injection matrix (ctest -L fault).
//
// Two campaign classes over the FaultInjector's named sites:
//   * availability campaigns — commit-tail conflicts in every abortable
//     engine, spurious admission-CAS losses, a dropped condvar notify: the
//     system must stay CORRECT (oracles clean) and make PROGRESS while the
//     fault fires;
//   * mutation campaigns — the serial-token drop: the scenario oracles
//     must CATCH the injected bug, with a deterministically replayable
//     schedule. The engine and view mutations (kNorecSkipValidation,
//     kRfwSkipRevalidation, kLockModeStaleQuota, kExtendIgnoresReadLog)
//     run their campaigns in test_schedules' FaultInjection suite.
// Every campaign is named by one 64-bit seed (arm_seeded derives the fault
// window from it), so a failure line carries a complete reproducer.
//
// Builds to a trivial skip when the schedule points are compiled out.
#include <gtest/gtest.h>

#include "check/sched_point.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "check/explore.hpp"
#include "check/fault.hpp"
#include "check/scenarios.hpp"
#include "rac/admission.hpp"
#include "util/thread_ordinal.hpp"

namespace votm::check {
namespace {

struct EngineSite {
  stm::Algo algo;
  FaultSite site;
};

constexpr EngineSite kCommitTailSites[] = {
    {stm::Algo::kNOrec, FaultSite::kNorecCommitTail},
    {stm::Algo::kTml, FaultSite::kTmlAcquireFail},
    {stm::Algo::kOrecEagerRedo, FaultSite::kOrecEagerRedoCommitTail},
    {stm::Algo::kOrecLazy, FaultSite::kOrecLazyCommitTail},
    {stm::Algo::kOrecEagerUndo, FaultSite::kOrecEagerUndoCommitTail},
};

std::string repro_line(FaultSite site, std::uint64_t seed,
                       const FaultPlan& plan) {
  std::ostringstream os;
  os << "fault campaign: site=" << to_string(site) << " seed=0x" << std::hex
     << seed << std::dec << " (skip=" << plan.skip << " fire=" << plan.fire
     << ")";
  return os.str();
}

TEST(FaultMatrix, SeededPlansAreDeterministic) {
  FaultInjector& inj = FaultInjector::instance();
  const FaultPlan a =
      inj.arm_seeded(FaultSite::kNorecCommitTail, 0xABCD, /*max_skip=*/32);
  const FaultPlan b =
      inj.arm_seeded(FaultSite::kNorecCommitTail, 0xABCD, /*max_skip=*/32);
  inj.disarm_all();
  EXPECT_EQ(a.skip, b.skip);
  EXPECT_LE(a.skip, 32u);
  // Different sites draw independent windows from the same seed.
  const FaultPlan c =
      inj.arm_seeded(FaultSite::kAdmitCasFail, 0xABCD, /*max_skip=*/1u << 20);
  const FaultPlan d = inj.arm_seeded(FaultSite::kOrecLazyCommitTail, 0xABCD,
                                     /*max_skip=*/1u << 20);
  inj.disarm_all();
  EXPECT_NE(c.skip, d.skip);
}

// Every site has its own name in the fault table, so a repro line names
// exactly one site.
TEST(FaultMatrix, EverySiteHasADistinctName) {
  std::set<std::string> names;
  for (unsigned i = 0; i < static_cast<unsigned>(FaultSite::kCount); ++i) {
    const std::string name = to_string(static_cast<FaultSite>(i));
    EXPECT_NE(name, "?") << "site " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate site name " << name;
  }
  EXPECT_EQ(std::string(to_string(FaultSite::kExtendIgnoresReadLog)),
            "orec.extend-ignores-read-log");
}

// Availability: a seeded conflict window in every abortable engine's commit
// path. The opacity oracle must stay clean (the conflict is a legal
// outcome) and the site must actually fire (a campaign that never reaches
// its site proves nothing).
TEST(FaultMatrix, CommitTailCampaignAcrossEngines) {
  FaultInjector& inj = FaultInjector::instance();
  for (const EngineSite& es : kCommitTailSites) {
    for (const std::uint64_t seed : {0xFA17u, 0xFA18u}) {
      StmRandomConfig cfg;
      cfg.algo = es.algo;
      StmRandomScenario scenario(cfg);
      const FaultPlan plan =
          inj.arm_seeded(es.site, seed, /*max_skip=*/8, /*fire=*/2);
      const auto report = explore_random(scenario, 30, seed);
      const std::uint64_t triggers = inj.triggers(es.site);
      inj.disarm_all();
      EXPECT_TRUE(report.clean())
          << repro_line(es.site, seed, plan) << " :: " << report.repro;
      EXPECT_GT(triggers, 0u) << repro_line(es.site, seed, plan)
                              << " :: site never fired (vacuous campaign)";
    }
  }
}

// Availability: the admission CAS spuriously loses a seeded window of its
// races. The churn scenario's quota/ledger invariants must hold and every
// worker must still get admitted (the scenario would otherwise report a
// worker exception or hang the bounded exploration).
TEST(FaultMatrix, AdmissionCasFailCampaign) {
  FaultInjector& inj = FaultInjector::instance();
  for (const std::uint64_t seed : {0xCA5u, 0xCA6u}) {
    AdmissionChurnScenario scenario(default_admission_churn(3));
    const FaultPlan plan =
        inj.arm_seeded(FaultSite::kAdmitCasFail, seed, /*max_skip=*/4,
                       /*fire=*/3);
    const auto report = explore_random(scenario, 30, seed);
    const std::uint64_t triggers = inj.triggers(FaultSite::kAdmitCasFail);
    inj.disarm_all();
    EXPECT_TRUE(report.clean())
        << repro_line(FaultSite::kAdmitCasFail, seed, plan)
        << " :: " << report.repro;
    EXPECT_GT(triggers, 0u)
        << repro_line(FaultSite::kAdmitCasFail, seed, plan)
        << " :: site never fired (vacuous campaign)";
  }
}

// Availability: the escalation ladder itself keeps its starvation bound
// while the victim's engine loses every commit — across all six engines
// (CGL has no abort site; the scenario degenerates to a plain commit and
// documents exactly that).
TEST(FaultMatrix, EscalationLadderHoldsAcrossEngines) {
  constexpr stm::Algo kAll[] = {
      stm::Algo::kNOrec,         stm::Algo::kTml,
      stm::Algo::kOrecEagerRedo, stm::Algo::kOrecLazy,
      stm::Algo::kOrecEagerUndo, stm::Algo::kCgl,
  };
  for (stm::Algo algo : kAll) {
    EscalationScenarioConfig cfg;
    cfg.algo = algo;
    cfg.serial_after = 2;
    EscalationScenario scenario(cfg);
    const auto report = explore_random(scenario, 15, 0xE5CA);
    EXPECT_TRUE(report.clean()) << report.repro;
    if (algo != stm::Algo::kCgl) {
      // Campaign-level vacuity: across the 15 schedules, the injected
      // commit-tail loss must have fired at least once. (Per-run it may
      // not: a natural conflict can abort the victim first.)
      EXPECT_GT(scenario.commit_tail_triggers(), 0u)
          << "vacuous campaign for algo " << static_cast<int>(algo);
    }
  }
}

// Wait-based contention management (stm/contention.hpp): a conflict-heavy
// workload under kWaitTimeout across the orec engines and clock policies.
// The opacity oracle must stay clean (waiting never trades correctness for
// progress) and the per-transaction max_attempts loop doubles as the
// starvation-freedom oracle — a wait-CM deadlock or unbounded park would
// exhaust it and fail as a worker error instead of hanging exploration.
StmRandomConfig wait_cm_config(stm::Algo algo, stm::ClockPolicy clock) {
  StmRandomConfig cfg;
  cfg.algo = algo;
  cfg.contention_mode = stm::ContentionMode::kWaitTimeout;
  cfg.clock_policy = clock;
  cfg.threads = 3;
  cfg.vars = 2;          // conflict-heavy: everyone fights over two words
  cfg.write_pct = 80;
  return cfg;
}

constexpr stm::Algo kOrecEngines[] = {
    stm::Algo::kOrecEagerRedo,
    stm::Algo::kOrecLazy,
    stm::Algo::kOrecEagerUndo,
};

TEST(WaitCm, WaitTimeoutStaysOpaqueAcrossEnginesAndClocks) {
  for (const stm::Algo algo : kOrecEngines) {
    for (const stm::ClockPolicy clock :
         {stm::ClockPolicy::kGv1, stm::ClockPolicy::kGv6}) {
      StmRandomScenario scenario(wait_cm_config(algo, clock));
      const auto report = explore_random(scenario, 40, 0x3A17);
      EXPECT_TRUE(report.clean())
          << stm::to_string(algo) << "/" << stm::to_string(clock)
          << " :: " << report.repro;
    }
  }
}

// Availability: the wait times out immediately (a seeded window), forcing
// the kAbortRetry fallback mid-conflict. The fallback is exactly today's
// abort path, so the oracles must stay clean — and the site must fire
// (campaign-level vacuity: the workload is conflict-heavy by construction).
TEST(WaitCm, SeededTimeoutFallbackCampaign) {
  FaultInjector& inj = FaultInjector::instance();
  for (const stm::Algo algo : kOrecEngines) {
    std::uint64_t triggers = 0;
    for (const std::uint64_t seed : {0x71AEu, 0x71AFu}) {
      StmRandomScenario scenario(
          wait_cm_config(algo, stm::ClockPolicy::kGv1));
      const FaultPlan plan =
          inj.arm_seeded(FaultSite::kCmWaitTimeout, seed, /*max_skip=*/4);
      const auto report = explore_random(scenario, 40, seed);
      triggers += inj.triggers(FaultSite::kCmWaitTimeout);
      inj.disarm_all();
      EXPECT_TRUE(report.clean())
          << repro_line(FaultSite::kCmWaitTimeout, seed, plan)
          << " :: " << report.repro;
    }
    // Per-seed the loser may abort on a natural conflict before parking;
    // across both seeds the timeout must have fired at least once.
    EXPECT_GT(triggers, 0u)
        << "vacuous wait-timeout campaign for " << stm::to_string(algo);
  }
}

// Availability: a parked loser never observes the winner's unlock (the
// lost-wakeup torture case). The wait MUST exit through its iteration
// bound and fall back to abort+retry — correctness and progress intact.
TEST(WaitCm, SeededLostWakeupExitsThroughTheBound) {
  FaultInjector& inj = FaultInjector::instance();
  for (const stm::Algo algo : kOrecEngines) {
    std::uint64_t triggers = 0;
    for (const std::uint64_t seed : {0x10A3u, 0x10A4u}) {
      StmRandomScenario scenario(
          wait_cm_config(algo, stm::ClockPolicy::kGv1));
      const FaultPlan plan = inj.arm_seeded(FaultSite::kCmWaitLostWakeup,
                                            seed, /*max_skip=*/4);
      const auto report = explore_random(scenario, 40, seed);
      triggers += inj.triggers(FaultSite::kCmWaitLostWakeup);
      inj.disarm_all();
      EXPECT_TRUE(report.clean())
          << repro_line(FaultSite::kCmWaitLostWakeup, seed, plan)
          << " :: " << report.repro;
    }
    EXPECT_GT(triggers, 0u)
        << "vacuous lost-wakeup campaign for " << stm::to_string(algo);
  }
}

// Mutation: drop the serial token right after the drain hands it over. The
// mutual-exclusion oracles (peers observing a foreign token holder, the
// irrevocable transaction observing concurrent admissions) must catch it,
// and the reproducer must replay deterministically.
TEST(FaultMatrix, SerialTokenDropIsCaughtAndReplayable) {
  EscalationScenarioConfig cfg;
  cfg.algo = stm::Algo::kOrecEagerRedo;
  cfg.serial_after = 2;
  cfg.peer_rounds = 8;
  cfg.drop_serial_token = true;
  EscalationScenario scenario(cfg);

  const auto report = explore_random(scenario, 600, 0xD20);
  ASSERT_FALSE(report.clean())
      << "serial-token-drop mutant survived " << report.runs << " schedules";
  EXPECT_NE(report.repro.find("votm-check repro:"), std::string::npos);
  EXPECT_FALSE(report.schedule.empty());

  const auto replay = replay_schedule(scenario, report.schedule);
  ASSERT_FALSE(replay.clean()) << "replay lost the violation";
  EXPECT_EQ(replay.violation->what, report.violation->what);
}

// Availability: leave_wake drops its notify while a waiter is parked. The
// regression this pins: every admission wait is a wait_for(kDrainPoll)
// re-check loop, so a lost notify (or a spurious wakeup, same loop shape)
// costs one poll period, not a hang. Real threads — the condvar path is
// exactly what the cooperative harness cannot drive.
TEST(LostNotify, ParkedWaiterRecoversWithinPollPeriod) {
  FaultInjector& inj = FaultInjector::instance();
  rac::AdmissionController ac(/*max_threads=*/2, /*initial_quota=*/1,
                              rac::AdmissionImpl::kAtomic,
                              /*spin_budget=*/1);
  ASSERT_EQ(ac.admit(), 1u);  // hold the only slot on this thread

  FaultPlan plan;
  plan.fire = ~std::uint64_t{0};  // every wake this test produces is lost
  inj.arm(FaultSite::kAdmLostNotify, plan);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    ac.admit();  // quota 1, slot taken: parks on the condvar
    admitted.store(true, std::memory_order_release);
    ac.leave();
  });
  // Give the waiter time to burn its spin budget and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ac.leave();  // leave_wake fires the fault: the notify is dropped

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!admitted.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(admitted.load()) << "waiter hung on a lost notify: the "
                                  "wait_for re-check loop regressed";
  waiter.join();
  inj.disarm_all();
  EXPECT_EQ(ac.admitted(), 0u);
}

// The other three notify paths found by the condvar audit (resume,
// set_quota's gate-reopen, release_serial) carry the same kAdmLostNotify
// site: each must recover through the wait_for(kDrainPoll) re-check loop
// when its notify is dropped, on both gate implementations.
void expect_recovers(std::atomic<bool>& flag, const char* path) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(flag.load(std::memory_order_acquire))
      << "waiter hung on a lost " << path
      << " notify: the wait_for re-check loop regressed";
}

TEST(LostNotify, ResumeWaiterRecoversWithinPollPeriod) {
  FaultInjector& inj = FaultInjector::instance();
  for (const rac::AdmissionImpl impl :
       {rac::AdmissionImpl::kAtomic, rac::AdmissionImpl::kMutex}) {
    rac::AdmissionController ac(/*max_threads=*/2, /*initial_quota=*/2, impl,
                                /*spin_budget=*/1);
    ac.pause();
    FaultPlan plan;
    plan.fire = ~std::uint64_t{0};
    inj.arm(FaultSite::kAdmLostNotify, plan);
    std::atomic<bool> admitted{false};
    std::thread waiter([&] {
      ac.admit();  // paused: parks until resume
      admitted.store(true, std::memory_order_release);
      ac.leave();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ac.resume();  // the notify is dropped
    expect_recovers(admitted, "resume");
    waiter.join();
    inj.disarm_all();
    EXPECT_EQ(ac.admitted(), 0u);
  }
}

TEST(LostNotify, QuotaRaiseWaiterRecoversWithinPollPeriod) {
  FaultInjector& inj = FaultInjector::instance();
  for (const rac::AdmissionImpl impl :
       {rac::AdmissionImpl::kAtomic, rac::AdmissionImpl::kMutex}) {
    // Raise between transactional quotas (2 -> 3): applies immediately.
    // (Raising FROM 1 first drains the lock-mode resident, so a holder
    // calling it would deadlock on its own admission — a usage error,
    // not the notify path under test.) max_threads = 3 keeps the gate
    // off the fence-free OPEN mode, so both slots go through the CAS
    // gate and the parked waiter depends on set_quota's broadcast.
    rac::AdmissionController ac(/*max_threads=*/3, /*initial_quota=*/2, impl,
                                /*spin_budget=*/1);
    ASSERT_EQ(ac.admit(), 2u);  // fill both slots (gated path tolerates
    ASSERT_EQ(ac.admit(), 2u);  // multiple admissions from one thread)
    FaultPlan plan;
    plan.fire = ~std::uint64_t{0};
    inj.arm(FaultSite::kAdmLostNotify, plan);
    std::atomic<bool> admitted{false};
    std::thread waiter([&] {
      ac.admit();  // quota full: parks
      admitted.store(true, std::memory_order_release);
      ac.leave();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ac.set_quota(3);  // the raise's notify is dropped
    expect_recovers(admitted, "set_quota");
    waiter.join();
    ac.leave();
    ac.leave();
    inj.disarm_all();
    EXPECT_EQ(ac.admitted(), 0u);
  }
}

TEST(LostNotify, SerialReleaseWaiterRecoversWithinPollPeriod) {
  FaultInjector& inj = FaultInjector::instance();
  for (const rac::AdmissionImpl impl :
       {rac::AdmissionImpl::kAtomic, rac::AdmissionImpl::kMutex}) {
    rac::AdmissionController ac(/*max_threads=*/2, /*initial_quota=*/2, impl,
                                /*spin_budget=*/1);
    ac.acquire_serial();
    FaultPlan plan;
    plan.fire = ~std::uint64_t{0};
    inj.arm(FaultSite::kAdmLostNotify, plan);
    std::atomic<bool> admitted{false};
    std::thread waiter([&] {
      ac.admit();  // gate closed by the token: parks
      admitted.store(true, std::memory_order_release);
      ac.leave();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ac.release_serial();  // the reopen's notify is dropped
    expect_recovers(admitted, "release_serial");
    waiter.join();
    inj.disarm_all();
    EXPECT_EQ(ac.admitted(), 0u);
  }
}

// Serial-token lifecycle on both gate implementations, plus the mutex
// implementation's token-drop fault (the harness only drives the atomic
// gate, so the mutex impl's site is exercised here with real threads).
TEST(SerialToken, LifecycleOnBothImpls) {
  for (const rac::AdmissionImpl impl :
       {rac::AdmissionImpl::kAtomic, rac::AdmissionImpl::kMutex}) {
    rac::AdmissionController ac(/*max_threads=*/4, /*initial_quota=*/4, impl);
    EXPECT_EQ(ac.serial_holder(), -1);
    ac.acquire_serial();
    EXPECT_EQ(ac.serial_holder(), static_cast<int>(thread_ordinal()));
    EXPECT_EQ(ac.admitted(), 1u);  // the holder self-admits
    unsigned q = 0;
    EXPECT_FALSE(ac.try_admit(&q)) << "serial token must close the gate";
    ac.release_serial();
    EXPECT_EQ(ac.serial_holder(), -1);
    EXPECT_EQ(ac.admitted(), 0u);
    EXPECT_EQ(ac.admit(), 4u);  // gate reopened
    ac.leave();
  }
}

TEST(SerialToken, DrainWaitsForResidentsThenExcludesThem) {
  for (const rac::AdmissionImpl impl :
       {rac::AdmissionImpl::kAtomic, rac::AdmissionImpl::kMutex}) {
    rac::AdmissionController ac(/*max_threads=*/4, /*initial_quota=*/4, impl);
    std::atomic<bool> resident_in{false};
    std::atomic<bool> release_resident{false};
    std::atomic<bool> serial_held{false};
    std::thread resident([&] {
      ac.admit();
      resident_in.store(true, std::memory_order_release);
      while (!release_resident.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ac.leave();
    });
    while (!resident_in.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::atomic<bool> release_serial{false};
    std::thread serial([&] {
      ac.acquire_serial();  // must block until the resident leaves
      serial_held.store(true, std::memory_order_release);
      while (!release_serial.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ac.release_serial();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(serial_held.load(std::memory_order_acquire))
        << "serial token granted while a resident was still admitted";
    release_resident.store(true, std::memory_order_release);
    resident.join();
    while (!serial_held.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(ac.admitted(), 1u);  // only the holder remains
    release_serial.store(true, std::memory_order_release);
    serial.join();
    EXPECT_EQ(ac.admitted(), 0u);
  }
}

}  // namespace
}  // namespace votm::check

#else  // !VOTM_SCHED_POINTS

TEST(VotmFault, SchedulePointsCompiledOut) {
  GTEST_SKIP() << "configure with -DVOTM_SCHED_POINTS=ON for this suite";
}

#endif  // VOTM_SCHED_POINTS
