// VersionClock (stm/clock.hpp): policy semantics, GV5's per-thread commit
// slots, the engines under GV1/GV4/GV5/GV6 (plus NOrec in the pair
// stress), read-only propagation from the containers, and votm-check
// campaigns including the lost-GV4-CAS and GV6-shard-lag fault plans.
//
// The unit/stress/container sections run in every configuration; the
// exploration and fault-injection sections need the check harness
// (-DVOTM_SCHED_POINTS=ON, the default).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "containers/tx_counter.hpp"
#include "containers/tx_hash_map.hpp"
#include "containers/tx_sorted_list.hpp"
#include "containers/tx_stack.hpp"
#include "containers/tx_var.hpp"
#include "core/thread_ctx.hpp"
#include "core/view.hpp"
#include "stm/clock.hpp"
#include "stm/factory.hpp"
#include "stm/orec_eager_redo.hpp"

namespace votm {
namespace {

using stm::ClockPolicy;
using stm::VersionClock;

constexpr stm::Algo kOrecAlgos[] = {
    stm::Algo::kOrecEagerRedo,
    stm::Algo::kOrecLazy,
    stm::Algo::kOrecEagerUndo,
};
constexpr ClockPolicy kPolicies[] = {
    ClockPolicy::kGv1,
    ClockPolicy::kGv4,
    ClockPolicy::kGv5,
    ClockPolicy::kGv6,
};

TEST(ClockPolicy, NamesRoundTrip) {
  for (ClockPolicy p : kPolicies) {
    ClockPolicy parsed{};
    ASSERT_TRUE(stm::clock_policy_from_string(stm::to_string(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  ClockPolicy parsed{};
  EXPECT_TRUE(stm::clock_policy_from_string("GV4", &parsed));
  EXPECT_EQ(parsed, ClockPolicy::kGv4);
  EXPECT_FALSE(stm::clock_policy_from_string("gv2", &parsed));
}

TEST(VersionClockUnit, Gv1TicketsAreDenseAndSkipWhenAdjacent) {
  VersionClock clock(ClockPolicy::kGv1);
  const auto t1 = clock.tick(0);
  EXPECT_EQ(t1.end_time, 1u);
  EXPECT_FALSE(t1.need_validation);  // end == start + 1: nothing slipped in
  EXPECT_EQ(clock.read(), 1u);
  const auto t2 = clock.tick(0);  // stale start: someone (t1) committed
  EXPECT_EQ(t2.end_time, 2u);
  EXPECT_TRUE(t2.need_validation);
}

TEST(VersionClockUnit, Gv4WinnerMatchesGv1Uncontended) {
  VersionClock clock(ClockPolicy::kGv4);
  const auto t1 = clock.tick(0);
  EXPECT_EQ(t1.end_time, 1u);
  EXPECT_FALSE(t1.need_validation);
  EXPECT_EQ(clock.read(), 1u);
  const auto t2 = clock.tick(0);
  EXPECT_EQ(t2.end_time, 2u);
  EXPECT_TRUE(t2.need_validation);
}

TEST(VersionClockUnit, Gv5TicksWithoutGlobalTraffic) {
  VersionClock clock(ClockPolicy::kGv5);
  const auto t1 = clock.tick(0);
  EXPECT_EQ(t1.end_time, 1u);
  EXPECT_TRUE(t1.need_validation);  // GV5 can never prove quiescence
  EXPECT_EQ(clock.read(), 0u);      // global untouched
  clock.note_commit(t1.end_time);
  // The own-slot cache keeps this thread's timestamps strictly increasing
  // even though the global clock never moved.
  const auto t2 = clock.tick(0);
  EXPECT_EQ(t2.end_time, 2u);
  EXPECT_EQ(clock.read(), 0u);
}

TEST(VersionClockUnit, Gv5ExtensionPropagatesFutureTimestamps) {
  VersionClock clock(ClockPolicy::kGv5);
  const auto t = clock.tick(0);
  clock.note_commit(t.end_time);
  // A reader that met version t.end_time extends: the bound must cover the
  // observed version, and the global clock must be pushed up to it so
  // later snapshots inherit the happens-after edge.
  const std::uint64_t bound = clock.extension_bound(t.end_time);
  EXPECT_GE(bound, t.end_time);
  EXPECT_GE(clock.read(), t.end_time);
}

TEST(VersionClockUnit, Gv6ShardedTicksAlwaysValidate) {
  VersionClock clock(ClockPolicy::kGv6);
  EXPECT_EQ(clock.begin_snapshot(), 0u);  // nothing committed anywhere yet
  const auto t1 = clock.tick(0);
  EXPECT_EQ(t1.end_time, 1u);
  // Sharded: the committer scans the shards but cannot prove no peer is
  // between its scan and its shard publish, so tickets always validate.
  EXPECT_TRUE(t1.need_validation);
  EXPECT_EQ(clock.read(), 1u);  // read() is the max over shards
  const auto t2 = clock.tick(t1.end_time);
  EXPECT_EQ(t2.end_time, 2u);
  EXPECT_TRUE(t2.need_validation);
}

TEST(VersionClockUnit, Gv6SnapshotCoversCompletedCommits) {
  VersionClock clock(ClockPolicy::kGv6);
  const auto t = clock.tick(0);
  // tick_gv6 CAS-maxes the committer's own shard BEFORE the ticket
  // returns, so any snapshot taken after a commit completes must cover it.
  EXPECT_GE(clock.begin_snapshot(), t.end_time);
}

TEST(VersionClockUnit, Gv6ExtensionBoundCoversObservedAndRefreshesCache) {
  VersionClock clock(ClockPolicy::kGv6);
  const auto t = clock.tick(0);
  const std::uint64_t bound = clock.extension_bound(t.end_time);
  EXPECT_GE(bound, t.end_time);
  // extension_bound refreshed this thread's cached bound, so the next
  // snapshot starts at least that new.
  EXPECT_GE(clock.begin_snapshot(), bound);
}

// The per-thread commit slots publish monotonically. GV5's tick is their
// only reader: it derives end_time from max(global, own slot, start) + 1,
// so a late smaller note_commit must not pull the next timestamp back.
TEST(VersionClockUnit, QuiescenceSlotsPublishMonotonically) {
  VersionClock clock(ClockPolicy::kGv5);
  clock.note_commit(7);
  clock.note_commit(3);  // late smaller publish must not regress the slot
  EXPECT_EQ(clock.tick(0).end_time, 8u);
  clock.note_commit(9);
  EXPECT_EQ(clock.tick(0).end_time, 10u);
}

// Writers keep word pairs equal while read-only transactions assert the
// pair is never torn — on real threads, under every policy and orec
// engine, plus NOrec (which ignores the policy). This is the
// hardware-interleaving complement of the votm-check sweeps below, and the
// adversarial case for GV5's future timestamps (reader snapshots lag the
// writers' commit stamps until extension).
void run_pair_stress(stm::Algo algo, ClockPolicy policy) {
  stm::EngineConfig cfg;
  cfg.clock_policy = policy;
  auto engine = stm::make_engine(algo, cfg);

  constexpr unsigned kWriters = 2;
  constexpr unsigned kReaders = 2;
  constexpr unsigned kTxs = 1500;
  constexpr unsigned kPairs = 8;
  std::vector<stm::Word> data(kPairs * 2, 0);
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      stm::TxThread tx;
      for (unsigned j = 0; j < kTxs; ++j) {
        const unsigned p = (w + j) % kPairs;
        stm::atomically(*engine, tx, [&](stm::TxThread& t) {
          const stm::Word v = engine->read(t, &data[2 * p]) + 1;
          engine->write(t, &data[2 * p], v);
          engine->write(t, &data[2 * p + 1], v);
        });
      }
    });
  }
  for (unsigned r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      stm::TxThread tx;
      tx.read_only = true;
      for (unsigned j = 0; j < kTxs; ++j) {
        const unsigned p = (r + j) % kPairs;
        stm::Word a = 0;
        stm::Word b = 0;
        stm::atomically(*engine, tx, [&](stm::TxThread& t) {
          a = engine->read(t, &data[2 * p]);
          b = engine->read(t, &data[2 * p + 1]);
        });
        if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u)
      << stm::to_string(algo) << "/" << stm::to_string(policy);
  stm::Word total = 0;
  for (unsigned p = 0; p < kPairs; ++p) {
    EXPECT_EQ(data[2 * p], data[2 * p + 1]) << "pair " << p;
    total += data[2 * p];
  }
  EXPECT_EQ(total, stm::Word{kWriters} * kTxs);
}

TEST(ClockStress, PairSnapshotsHoldAcrossPoliciesAndEngines) {
  for (stm::Algo algo : kOrecAlgos) {
    for (ClockPolicy policy : kPolicies) {
      run_pair_stress(algo, policy);
    }
  }
  run_pair_stress(stm::Algo::kNOrec, ClockPolicy::kGv1);
}

TEST(ClockStress, ClockAdvancesMonotonicallyUnderCommits) {
  stm::OrecEagerRedoEngine engine(stm::OrecTable::kDefaultSize,
                                  ClockPolicy::kGv4);
  constexpr unsigned kThreads = 3;
  constexpr unsigned kTxs = 1000;
  std::vector<stm::Word> slots(kThreads, 0);
  std::atomic<std::uint64_t> regressions{0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      stm::TxThread tx;
      std::uint64_t last = engine.clock();
      for (unsigned j = 0; j < kTxs; ++j) {
        stm::atomically(engine, tx, [&](stm::TxThread& t) {
          engine.write(t, &slots[i], engine.read(t, &slots[i]) + 1);
        });
        const std::uint64_t now = engine.clock();
        if (now < last) regressions.fetch_add(1, std::memory_order_relaxed);
        last = now;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(regressions.load(), 0u);
  for (unsigned i = 0; i < kThreads; ++i) EXPECT_EQ(slots[i], kTxs);
  // Each thread's commit timestamps strictly increase (a win ticks past
  // the post-lock load, a GV4 loser adopts a larger value), and the clock
  // ends at or above every one of them.
  EXPECT_GE(engine.clock(), kTxs);
}

// --- read-only propagation from the containers ----------------------------

TEST(ContainerReadOnly, ReadsOutsideTxRunAsReadOnlyTransactions) {
  core::ViewConfig cfg;
  cfg.algo = stm::Algo::kOrecEagerRedo;
  core::View view(cfg);
  containers::TxHashMap map(view, 16);
  containers::TxVar<stm::Word> var(view, 41);
  containers::TxCounter counter(view);
  containers::TxStack stack(view);
  containers::TxSortedList list(view);
  view.execute([&] {
    map.put(1, 10);
    map.put(2, 20);
    var.set(42);
    counter.add(5);
    stack.push(7);
    list.insert(3);
    list.insert(9);
  });

  // Outside any transaction, a container read must run inside its own
  // read-only transaction: tx.read_only observed from within the read.
  bool saw_read_only_tx = false;
  std::size_t entries = 0;
  map.for_each([&](stm::Word, stm::Word) {
    const stm::TxThread& tx = core::thread_ctx().tx;
    saw_read_only_tx = tx.in_tx && tx.read_only;
    ++entries;
  });
  EXPECT_TRUE(saw_read_only_tx);
  EXPECT_EQ(entries, 2u);

  stm::Word v = 0;
  EXPECT_TRUE(map.get(1, &v));
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(var.get(), 42u);
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_FALSE(stack.empty());
  EXPECT_EQ(stack.size(), 1u);
  EXPECT_TRUE(list.contains(9));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.is_sorted());

  // Inside a writer transaction the same reads stay part of it: no nested
  // transaction, no read-only flag.
  view.execute([&] {
    const stm::TxThread& tx = core::thread_ctx().tx;
    EXPECT_TRUE(tx.in_tx);
    EXPECT_FALSE(tx.read_only);
    EXPECT_TRUE(map.contains(2));
    EXPECT_EQ(var.get(), 42u);
    EXPECT_FALSE(tx.read_only);  // unchanged by the container read
    map.put(3, 30);
  });
  EXPECT_EQ(map.size(), 3u);
}

}  // namespace
}  // namespace votm

// --- votm-check: exploration + fault campaigns (harness builds only) -------

#include "check/sched_point.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <cstdlib>

#include "check/explore.hpp"
#include "check/fault.hpp"
#include "check/scenarios.hpp"

namespace votm::check {
namespace {

using stm::ClockPolicy;

constexpr stm::Algo kOrecAlgos[] = {
    stm::Algo::kOrecEagerRedo,
    stm::Algo::kOrecLazy,
    stm::Algo::kOrecEagerUndo,
};
constexpr ClockPolicy kPolicies[] = {
    ClockPolicy::kGv1,
    ClockPolicy::kGv4,
    ClockPolicy::kGv5,
    ClockPolicy::kGv6,
};

TEST(ClockPolicyWalks, OpacityHoldsAcrossPolicies) {
  for (stm::Algo algo : kOrecAlgos) {
    for (ClockPolicy policy : kPolicies) {
      StmRandomConfig cfg;
      cfg.algo = algo;
      cfg.clock_policy = policy;
      StmRandomScenario scenario(cfg);
      const auto report = explore_random(scenario, 25, 0xC10C);
      EXPECT_TRUE(report.clean()) << report.repro;
      EXPECT_EQ(report.runs, 25u);
    }
  }
}

TEST(ClockPolicyWalks, SnapshotConsistencyHoldsAcrossPolicies) {
  for (stm::Algo algo : kOrecAlgos) {
    for (ClockPolicy policy : kPolicies) {
      StmSnapshotConfig cfg;
      cfg.algo = algo;
      cfg.clock_policy = policy;
      StmSnapshotScenario scenario(cfg);
      const auto report = explore_random(scenario, 25, 0x5EED);
      EXPECT_TRUE(report.clean()) << report.repro;
    }
  }
}

// Availability fault: the GV4 ticket CAS loses to a phantom winner on
// every commit. Correctness (opacity, snapshot consistency) and progress
// must survive; the trigger counters prove the campaign is not vacuous.
TEST(ClockFault, LostGv4CasIsHarmlessEverywhere) {
  for (stm::Algo algo : kOrecAlgos) {
    std::uint64_t triggers = 0;
    {
      FaultGuard guard(FaultSite::kGv4ClockCasLost);
      StmRandomConfig cfg;
      cfg.algo = algo;
      cfg.clock_policy = ClockPolicy::kGv4;
      cfg.write_pct = 70;
      StmRandomScenario scenario(cfg);
      const auto report = explore_random(scenario, 20, 0x10CA);
      EXPECT_TRUE(report.clean()) << report.repro;

      StmSnapshotConfig snap;
      snap.algo = algo;
      snap.clock_policy = ClockPolicy::kGv4;
      StmSnapshotScenario snap_scenario(snap);
      const auto snap_report = explore_random(snap_scenario, 20, 0x10CB);
      EXPECT_TRUE(snap_report.clean()) << snap_report.repro;
      triggers = FaultInjector::instance().triggers(FaultSite::kGv4ClockCasLost);
    }
    EXPECT_GT(triggers, 0u) << stm::to_string(algo);
  }
}

// Seeded plans land the lost-CAS window at different points of the run;
// any failure reproduces from (seed, schedule) alone.
TEST(ClockFault, SeededLostCasWindows) {
  std::uint64_t total_triggers = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::instance().arm_seeded(FaultSite::kGv4ClockCasLost, seed,
                                         /*max_skip=*/12, /*fire=*/2);
    StmRandomConfig cfg;
    cfg.algo = stm::Algo::kOrecEagerRedo;
    cfg.clock_policy = ClockPolicy::kGv4;
    cfg.write_pct = 70;
    StmRandomScenario scenario(cfg);
    const auto report = explore_random(scenario, 4, seed);
    EXPECT_TRUE(report.clean()) << "seed=" << seed << " " << report.repro;
    total_triggers +=
        FaultInjector::instance().triggers(FaultSite::kGv4ClockCasLost);
    FaultInjector::instance().disarm(FaultSite::kGv4ClockCasLost);
  }
  EXPECT_GT(total_triggers, 0u);
}

// Clock monotonicity survives the lost CAS: the adopt path never moves the
// clock backwards and every ticket stays ahead of its start time.
TEST(ClockFault, MonotonicitySurvivesLostCas) {
  stm::VersionClock clock(ClockPolicy::kGv4);
  FaultGuard guard(FaultSite::kGv4ClockCasLost);
  std::uint64_t last_end = 0;
  std::uint64_t start = 0;
  for (int i = 0; i < 100; ++i) {
    const auto t = clock.tick(start);
    EXPECT_GT(t.end_time, start);
    EXPECT_GE(t.end_time, last_end);
    EXPECT_TRUE(t.need_validation);  // the loser path always validates
    last_end = t.end_time;
    start = clock.read();
    EXPECT_GE(start, t.end_time);  // the phantom winner advanced the clock
  }
  EXPECT_EQ(FaultInjector::instance().triggers(FaultSite::kGv4ClockCasLost),
            100u);
}

// Availability fault: every GV6 begin_snapshot returns the maximally
// stale bound 0, so readers start as far behind the shards as possible
// and every first read runs the extension/validation path. Correctness
// must survive — GV6's safety argument is that a stale cached bound is
// merely a stale-but-valid start time.
TEST(ClockFault, Gv6ShardLagIsHarmlessEverywhere) {
  for (stm::Algo algo : kOrecAlgos) {
    std::uint64_t triggers = 0;
    {
      FaultGuard guard(FaultSite::kGv6ShardLag);
      StmRandomConfig cfg;
      cfg.algo = algo;
      cfg.clock_policy = ClockPolicy::kGv6;
      cfg.write_pct = 70;
      StmRandomScenario scenario(cfg);
      const auto report = explore_random(scenario, 20, 0x61A0);
      EXPECT_TRUE(report.clean()) << report.repro;

      StmSnapshotConfig snap;
      snap.algo = algo;
      snap.clock_policy = ClockPolicy::kGv6;
      StmSnapshotScenario snap_scenario(snap);
      const auto snap_report = explore_random(snap_scenario, 20, 0x61A1);
      EXPECT_TRUE(snap_report.clean()) << snap_report.repro;
      triggers = FaultInjector::instance().triggers(FaultSite::kGv6ShardLag);
    }
    EXPECT_GT(triggers, 0u) << stm::to_string(algo);
  }
}

// Seeded plans lag different snapshots of the run; any failure reproduces
// from (seed, schedule) alone.
TEST(ClockFault, SeededGv6ShardLagWindows) {
  std::uint64_t total_triggers = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::instance().arm_seeded(FaultSite::kGv6ShardLag, seed,
                                         /*max_skip=*/12, /*fire=*/2);
    StmRandomConfig cfg;
    cfg.algo = stm::Algo::kOrecEagerRedo;
    cfg.clock_policy = ClockPolicy::kGv6;
    cfg.write_pct = 70;
    StmRandomScenario scenario(cfg);
    const auto report = explore_random(scenario, 4, seed);
    EXPECT_TRUE(report.clean()) << "seed=" << seed << " " << report.repro;
    total_triggers +=
        FaultInjector::instance().triggers(FaultSite::kGv6ShardLag);
    FaultInjector::instance().disarm(FaultSite::kGv6ShardLag);
  }
  EXPECT_GT(total_triggers, 0u);
}

// Under the armed lag every snapshot is 0, the worst legal start time;
// tickets must still advance past everything the shards have seen.
TEST(ClockFault, Gv6LaggedSnapshotKeepsTicketsMonotone) {
  stm::VersionClock clock(ClockPolicy::kGv6);
  FaultGuard guard(FaultSite::kGv6ShardLag);
  std::uint64_t last_end = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t start = clock.begin_snapshot();
    EXPECT_EQ(start, 0u);  // armed: maximally stale
    const auto t = clock.tick(start);
    EXPECT_GT(t.end_time, last_end);
    EXPECT_TRUE(t.need_validation);
    last_end = t.end_time;
  }
  EXPECT_EQ(FaultInjector::instance().triggers(FaultSite::kGv6ShardLag),
            100u);
}

// Heavy campaign (VOTM_CHECK_HEAVY=1 ctest -R Heavy): the full policy x
// orec-engine matrix under a 10k+-schedule random walk budget.
TEST(Heavy, ClockPolicyMatrixCampaign) {
  if (std::getenv("VOTM_CHECK_HEAVY") == nullptr) {
    GTEST_SKIP() << "set VOTM_CHECK_HEAVY=1 to run the clock-policy campaign";
  }
  for (stm::Algo algo : kOrecAlgos) {
    for (ClockPolicy policy : kPolicies) {
      StmRandomConfig cfg;
      cfg.algo = algo;
      cfg.clock_policy = policy;
      StmRandomScenario scenario(cfg);
      const auto report = explore_random(scenario, 1200, 0xB16);
      EXPECT_TRUE(report.clean()) << report.repro;

      StmSnapshotConfig snap;
      snap.algo = algo;
      snap.clock_policy = policy;
      StmSnapshotScenario snap_scenario(snap);
      const auto snap_report = explore_random(snap_scenario, 400, 0xB19);
      EXPECT_TRUE(snap_report.clean()) << snap_report.repro;
    }
  }
}

}  // namespace
}  // namespace votm::check

#endif  // VOTM_SCHED_POINTS
