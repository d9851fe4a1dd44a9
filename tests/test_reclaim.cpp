// Grace-period reclamation suite (ctest -L reclaim; run it under the
// check-asan and check-tsan presets — the churn stresses below are the
// tests the arena's manual ASan poisoning and the epoch layer's
// release-sequence unpin edge exist for).
//
// Layers under test, bottom up:
//   * EpochTracker / LimboList unit semantics (era pins gate the horizon,
//     limbo blocks outlive every pin that could reach them);
//   * the kEpochStaleHorizon availability fault (a maximally stale
//     horizon defers everything and never frees early);
//   * View-level retire/reclaim plumbing (commit-time frees, abort paths,
//     forced passes under allocation pressure);
//   * TxHashMap dynamics: the satellite-1 zero/one-bucket regression,
//     grow-under-load, and old tables retired through the epoch layer;
//   * real-thread churn with long read-only scanners (ASan/TSan prey);
//   * deterministic votm-check walks where doomed readers race a
//     committing freer across the era advance (ReclaimRaceScenario).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "containers/tx_hash_map.hpp"
#include "core/access.hpp"
#include "core/view.hpp"
#include "stm/epoch.hpp"
#include "util/rng.hpp"

namespace votm {
namespace {

core::ViewConfig reclaim_config(stm::Algo algo, unsigned max_threads = 8) {
  core::ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = max_threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = max_threads;
  vc.initial_bytes = 1 << 20;
  return vc;
}

// ---------------- EpochTracker ---------------------------------------------

TEST(EpochTracker, HorizonIsEraWhenIdle) {
  stm::EpochTracker epoch;
  const std::uint64_t e = epoch.era();
  EXPECT_GE(e, 1u);  // era 0 is reserved (stale-horizon sentinel)
  EXPECT_EQ(epoch.active_horizon(), e);
  EXPECT_EQ(epoch.active_slots(), 0u);
  epoch.advance();
  EXPECT_EQ(epoch.active_horizon(), e + 1);
}

TEST(EpochTracker, PinHoldsTheHorizonAcrossAdvances) {
  stm::EpochTracker epoch;
  const std::uint64_t pinned = epoch.era();
  epoch.enter();
  EXPECT_EQ(epoch.active_slots(), 1u);
  epoch.advance();
  epoch.advance();
  EXPECT_EQ(epoch.era(), pinned + 2);
  EXPECT_EQ(epoch.active_horizon(), pinned);  // the pin, not the era
  epoch.exit();
  EXPECT_EQ(epoch.active_slots(), 0u);
  EXPECT_EQ(epoch.active_horizon(), pinned + 2);
}

TEST(EpochTracker, JoinedPinsShareASlotConservatively) {
  stm::EpochTracker epoch;
  const std::uint64_t pinned = epoch.era();
  epoch.enter();
  epoch.advance();
  // A second pin from this thread joins the streak at the OLD era: the
  // horizon must not advance past the first pin.
  epoch.enter();
  EXPECT_EQ(epoch.active_horizon(), pinned);
  epoch.exit();
  EXPECT_EQ(epoch.active_horizon(), pinned);  // still one pin in the streak
  epoch.exit();
  EXPECT_EQ(epoch.active_horizon(), epoch.era());
}

// ---------------- LimboList -------------------------------------------------

TEST(LimboList, ReclaimsOnlyPastTheHorizon) {
  stm::EpochTracker epoch;
  stm::LimboList limbo;
  int a = 0, b = 0;
  std::vector<void*> freed;
  auto free_block = [&](void* p) { freed.push_back(p); };

  epoch.enter();  // a live "transaction" that could still reach &a / &b
  limbo.retire(epoch, &a);
  limbo.retire(epoch, &b);
  EXPECT_EQ(limbo.depth(), 2u);
  // The pin is at the retiring era: nothing is eligible.
  EXPECT_EQ(limbo.reclaim(epoch, /*force=*/true, free_block), 0u);
  EXPECT_TRUE(freed.empty());
  EXPECT_EQ(limbo.depth(), 2u);

  epoch.exit();
  // No pins: one pass drains both.
  EXPECT_EQ(limbo.reclaim(epoch, /*force=*/true, free_block), 2u);
  EXPECT_EQ(freed.size(), 2u);
  EXPECT_EQ(limbo.depth(), 0u);

  const stm::ReclaimStats s = limbo.stats();
  EXPECT_EQ(s.retired, 2u);
  EXPECT_EQ(s.reclaimed, 2u);
  EXPECT_EQ(s.depth_hwm, 2u);
  EXPECT_GE(s.forced_passes, 2u);
}

TEST(LimboList, FreshRetiresSurviveThePassThatMissedThem) {
  stm::EpochTracker epoch;
  stm::LimboList limbo;
  int a = 0;
  std::vector<void*> freed;
  auto free_block = [&](void* p) { freed.push_back(p); };

  // Retire with no pins at all, then pin AFTER: the pin is at a later
  // era, so the block is eligible — the pinning transaction began after
  // the unlink published and cannot reach it.
  limbo.retire(epoch, &a);
  epoch.advance();
  epoch.enter();
  EXPECT_EQ(limbo.reclaim(epoch, true, free_block), 1u);
  epoch.exit();
  EXPECT_EQ(freed.size(), 1u);
}

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS
TEST(LimboList, StaleHorizonFaultDefersEverythingThenDrains) {
  stm::EpochTracker epoch;
  stm::LimboList limbo;
  int a = 0, b = 0;
  std::vector<void*> freed;
  auto free_block = [&](void* p) { freed.push_back(p); };

  limbo.retire(epoch, &a);
  limbo.retire(epoch, &b);
  {
    // Availability fault: the horizon read is maximally stale. The pass
    // must free NOTHING (deferring is always safe) and leave the limbo
    // bookkeeping intact.
    check::FaultGuard guard(check::FaultSite::kEpochStaleHorizon);
    EXPECT_EQ(limbo.reclaim(epoch, true, free_block), 0u);
    EXPECT_GT(check::FaultInjector::instance().triggers(
                  check::FaultSite::kEpochStaleHorizon),
              0u);
  }
  EXPECT_TRUE(freed.empty());
  EXPECT_EQ(limbo.depth(), 2u);
  // Fault lifted: the same pass drains the backlog.
  EXPECT_EQ(limbo.reclaim(epoch, true, free_block), 2u);
  EXPECT_EQ(limbo.depth(), 0u);
}
#endif  // VOTM_SCHED_POINTS

// ---------------- View-level plumbing --------------------------------------

TEST(ViewReclaim, CommitFreesRetireAndDrainOnForcedPass) {
  core::View view(reclaim_config(stm::Algo::kOrecEagerRedo, 2));
  const std::size_t baseline = view.arena().allocated();
  void* block = nullptr;
  view.execute([&] { block = view.alloc(64); });
  view.execute([&] { view.free(block); });
  // The free retired, not reclaimed: the arena still counts the block.
  EXPECT_EQ(view.limbo_depth(), 1u);
  EXPECT_GT(view.arena().allocated(), baseline);
  EXPECT_EQ(view.reclaim_garbage(), 1u);
  EXPECT_EQ(view.limbo_depth(), 0u);
  EXPECT_EQ(view.arena().allocated(), baseline);
  const stm::ReclaimStats s = view.reclaim_stats();
  EXPECT_EQ(s.retired, 1u);
  EXPECT_EQ(s.reclaimed, 1u);
}

TEST(ViewReclaim, AbortedFreesNeverReachLimbo) {
  core::View view(reclaim_config(stm::Algo::kNOrec, 2));
  void* block = nullptr;
  view.execute([&] { block = view.alloc(64); });
  struct Boom {};
  EXPECT_THROW(view.execute([&] {
    view.free(block);
    throw Boom{};
  }),
               Boom);
  EXPECT_EQ(view.limbo_depth(), 0u);  // the deferred free died with the tx
  // The block is still live and owned; freeing it again must not trip the
  // arena's double-free magic check.
  view.execute([&] { view.free(block); });
  EXPECT_EQ(view.reclaim_garbage(), 1u);
}

TEST(ViewReclaim, AmortizedPassTriggersAtThreshold) {
  core::ViewConfig vc = reclaim_config(stm::Algo::kNOrec, 2);
  vc.reclaim_threshold = 4;
  core::View view(vc);
  std::vector<void*> blocks;
  view.execute([&] {
    for (int i = 0; i < 8; ++i) blocks.push_back(view.alloc(32));
  });
  for (void* b : blocks) {
    view.execute([&] { view.free(b); });
  }
  // Exits past the threshold ran amortized passes without any explicit
  // reclaim_garbage() call.
  const stm::ReclaimStats s = view.reclaim_stats();
  EXPECT_EQ(s.retired, 8u);
  EXPECT_GT(s.reclaimed, 0u);
  EXPECT_LT(view.limbo_depth(), 8u);
}

TEST(ViewReclaim, PinnedPeerKeepsPassesAmortized) {
  // A peer parked inside a transaction holds the grace-period horizon, so
  // nothing retired after its pin can be reclaimed and depth stays above
  // the threshold. Passes must still come once per threshold retires, not
  // on every exit.
  constexpr std::size_t kThreshold = 8;
  constexpr std::size_t kFrees = 200;
  core::ViewConfig vc = reclaim_config(stm::Algo::kOrecEagerRedo, 2);
  vc.reclaim_threshold = kThreshold;
  core::View view(vc);
  std::vector<void*> blocks;
  view.execute([&] {
    for (std::size_t i = 0; i < kFrees; ++i) blocks.push_back(view.alloc(32));
  });
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread peer([&] {
    view.execute([&] {
      pinned.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!pinned.load()) std::this_thread::yield();
  const std::uint64_t passes_before = view.reclaim_stats().passes;
  for (void* b : blocks) {
    view.execute([&] { view.free(b); });
  }
  const stm::ReclaimStats s = view.reclaim_stats();
  release.store(true);
  peer.join();
  EXPECT_EQ(s.retired, kFrees);
  EXPECT_EQ(s.reclaimed, 0u);  // the pin held every block back
  EXPECT_LE(s.passes - passes_before,
            (kFrees + kThreshold - 1) / kThreshold + 1);
  EXPECT_GT(s.passes, passes_before);  // still amortized, not disabled
  EXPECT_EQ(view.reclaim_garbage(), kFrees);
}

TEST(ViewReclaim, AllocationPressureForcesAReclaim) {
  core::ViewConfig vc = reclaim_config(stm::Algo::kNOrec, 2);
  vc.initial_bytes = 4096;
  vc.reclaim_threshold = 0;  // no amortized passes: pressure is the only out
  core::View view(vc);
  // Fill most of the arena, free everything transactionally (all retired,
  // nothing reclaimed), then allocate again: the bad_alloc path must force
  // a pass and satisfy the request instead of throwing.
  std::vector<void*> blocks;
  view.execute([&] {
    for (int i = 0; i < 6; ++i) blocks.push_back(view.alloc(512));
  });
  view.execute([&] {
    for (void* b : blocks) view.free(b);
  });
  EXPECT_EQ(view.limbo_depth(), 6u);
  // Outside a transaction (no era pin of our own): the forced pass can
  // drain every retired block and satisfy the request. (Inside one, our
  // own pin would hold the just-retired same-era blocks — correctly.)
  void* big = view.alloc(2048);
  EXPECT_NE(big, nullptr);
  EXPECT_GT(view.reclaim_stats().forced_passes, 0u);
}

// ---------------- TxHashMap: satellite-1 regression + growth ----------------

TEST(TxHashMapDynamic, ZeroAndOneBucketConstructionClampsToMinimum) {
  core::View view(reclaim_config(stm::Algo::kNOrec, 2));
  for (std::size_t requested : {std::size_t{0}, std::size_t{1}}) {
    containers::TxHashMap map(view, requested);
    EXPECT_EQ(map.bucket_count(), containers::TxHashMap::kMinBuckets)
        << "requested " << requested;
    // The degenerate mask bug would index wildly here.
    EXPECT_TRUE(map.put(7, 70));
    EXPECT_TRUE(map.put(1 << 20, 99));
    stm::Word v = 0;
    EXPECT_TRUE(map.get(7, &v));
    EXPECT_EQ(v, 70u);
    EXPECT_TRUE(map.get(1 << 20, &v));
    EXPECT_EQ(v, 99u);
  }
}

TEST(TxHashMapDynamic, GrowsUnderStandaloneLoadAndKeepsEveryEntry) {
  core::View view(reclaim_config(stm::Algo::kOrecEagerRedo, 2));
  containers::TxHashMap map(view, 2);
  const std::size_t initial_buckets = map.bucket_count();
  constexpr stm::Word kKeys = 400;
  for (stm::Word k = 1; k <= kKeys; ++k) {
    EXPECT_TRUE(map.put(k, k * 3));  // standalone: growth runs between puts
  }
  EXPECT_GT(map.bucket_count(), initial_buckets);
  for (stm::Word k = 1; k <= kKeys; ++k) {
    stm::Word v = 0;
    ASSERT_TRUE(map.get(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  // Each doubling freed its predecessor table through the epoch layer.
  view.reclaim_garbage();
  const stm::ReclaimStats s = view.reclaim_stats();
  EXPECT_GT(s.retired, 0u);
  EXPECT_EQ(s.retired, s.reclaimed);
  EXPECT_EQ(view.limbo_depth(), 0u);
}

TEST(TxHashMapDynamic, InTransactionPutsOnlyFlagGrowth) {
  core::View view(reclaim_config(stm::Algo::kNOrec, 2));
  containers::TxHashMap map(view, 2);
  view.execute([&] {
    for (stm::Word k = 1; k <= 64; ++k) map.put(k, k);
  });
  // Growth never piggybacks on a user transaction.
  EXPECT_EQ(map.bucket_count(), containers::TxHashMap::kMinBuckets);
  EXPECT_TRUE(map.grow_pending());
  map.maybe_grow();
  EXPECT_GT(map.bucket_count(), containers::TxHashMap::kMinBuckets);
  EXPECT_EQ(map.size(), 64u);
}

// ---------------- real-thread churn (the ASan / TSan prey) ------------------

class ReclaimChurn : public ::testing::TestWithParam<stm::Algo> {};

// 6 writer threads churn insert/erase over a shared dynamic map (commit-
// time frees + table growth) while 2 readers run long for_each scans —
// read-only transactions whose epoch pins the grace period must wait
// out. Any premature reclaim is a poisoned-read ASan report, a TSan race
// on the recycled block, or a corrupted walk.
TEST_P(ReclaimChurn, InsertEraseUnderPinnedReadersHasNoUseAfterFree) {
  core::ViewConfig vc = reclaim_config(GetParam(), 8);
  vc.reclaim_threshold = 8;  // keep passes hot in the background
  core::View view(vc);
  containers::TxHashMap map(view, 4);  // tiny: force growth under churn

  constexpr unsigned kWriters = 6;
  constexpr unsigned kReaders = 2;
  constexpr int kOpsPerWriter = 1200;
  constexpr stm::Word kKeySpace = 128;
  std::atomic<long> net{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0};

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kWriters; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t * 7919 + 13);
      long local = 0;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const stm::Word key = 1 + rng.below(kKeySpace);
        if (rng.chance(3, 5)) {
          if (map.put(key, key * 2 + 1)) ++local;
        } else {
          if (map.erase(key)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (unsigned t = 0; t < kReaders; ++t) {
    pool.emplace_back([&] {
      do {
        // One long consistent scan: every (key, value) pair it observes
        // must satisfy the workload's value discipline — a reclaimed
        // node or table would yield arena scribble instead. do-while:
        // even if the writers drain before this thread gets scheduled
        // (heavy ctest -j load), every reader completes at least one
        // scan, keeping the scans > 0 vacuity check honest.
        map.for_each([&](stm::Word k, stm::Word v) {
          ASSERT_GE(k, 1u);
          ASSERT_LE(k, kKeySpace);
          ASSERT_EQ(v, k * 2 + 1);
        });
        scans.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (unsigned t = 0; t < kWriters; ++t) pool[t].join();
  stop.store(true);
  for (unsigned t = kWriters; t < pool.size(); ++t) pool[t].join();

  EXPECT_GT(scans.load(), 0u);
  std::size_t size = 0;
  view.execute_read([&] { size = map.size(); });
  EXPECT_EQ(static_cast<long>(size), net.load());

  map.maybe_grow();  // apply any trailing hint
  view.reclaim_garbage();
  const stm::ReclaimStats s = view.reclaim_stats();
  EXPECT_GT(s.retired, 0u);
  EXPECT_EQ(s.retired, s.reclaimed);
  EXPECT_EQ(view.limbo_depth(), 0u);
  EXPECT_GT(s.depth_hwm, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, ReclaimChurn,
                         ::testing::Values(stm::Algo::kNOrec,
                                           stm::Algo::kOrecEagerRedo,
                                           stm::Algo::kOrecLazy),
                         [](const auto& info) {
                           return std::string(stm::to_string(info.param));
                         });

}  // namespace
}  // namespace votm

// ---------------- deterministic votm-check walks ----------------------------

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include "check/explore.hpp"
#include "check/fault.hpp"
#include "check/scenarios.hpp"

namespace votm::check {
namespace {

constexpr stm::Algo kReclaimAlgos[] = {
    stm::Algo::kNOrec,
    stm::Algo::kOrecEagerRedo,
    stm::Algo::kOrecLazy,
    stm::Algo::kOrecEagerUndo,
};

// A doomed reader races a committing freer: the explorer interleaves the
// readers' walks between the freer's unlink commit, the era advance
// (kEpochAdvance) and the arena free. Every schedule must keep the walks
// inside values the workload wrote and drain limbo at quiescence.
TEST(ReclaimCheck, DoomedReaderVsCommittingFreerAcrossEngines) {
  for (stm::Algo algo : kReclaimAlgos) {
    ReclaimRaceConfig cfg;
    cfg.algo = algo;
    ReclaimRaceScenario scenario(cfg);
    const auto report = explore_random(scenario, 25, 0x5EED);
    EXPECT_TRUE(report.clean()) << report.repro;
    EXPECT_GT(scenario.total_retired(), 0u)
        << stm::to_string(algo)
        << " :: nothing was ever retired (vacuous campaign)";
  }
}

TEST(ReclaimCheck, ReplayOfARecordedScheduleIsDeterministic) {
  ReclaimRaceConfig cfg;
  cfg.algo = stm::Algo::kOrecEagerRedo;
  ReclaimRaceScenario scenario(cfg);
  SchedOptions opts;
  opts.seed = 0xEB0C;
  const auto recorded = scenario.run_once(opts);
  ASSERT_FALSE(recorded.violation.has_value()) << recorded.violation->what;
  const auto replay = replay_schedule(scenario, recorded.sched.schedule_hex());
  EXPECT_TRUE(replay.clean()) << replay.repro;
}

// Availability campaign: a seeded stale-horizon window. Reclaim passes in
// the window defer everything (never free early — that direction is the
// UAF; this fault can only stall). The oracles must stay clean and the
// backlog must drain once the window exhausts.
TEST(ReclaimCheck, StaleHorizonWindowStallsButStaysSafe) {
  FaultInjector& inj = FaultInjector::instance();
  for (stm::Algo algo : {stm::Algo::kNOrec, stm::Algo::kOrecEagerRedo}) {
    for (const std::uint64_t seed : {0x57A1Eu, 0x57A1Fu}) {
      ReclaimRaceConfig cfg;
      cfg.algo = algo;
      ReclaimRaceScenario scenario(cfg);
      const FaultPlan plan =
          inj.arm_seeded(FaultSite::kEpochStaleHorizon, seed,
                         /*max_skip=*/2, /*fire=*/1);
      const auto report = explore_random(scenario, 20, seed);
      const std::uint64_t triggers =
          inj.triggers(FaultSite::kEpochStaleHorizon);
      inj.disarm_all();
      EXPECT_TRUE(report.clean())
          << "site=epoch.stale-horizon seed=0x" << std::hex << seed
          << std::dec << " skip=" << plan.skip << " :: " << report.repro;
      EXPECT_GT(triggers, 0u)
          << stm::to_string(algo)
          << " :: site never fired (vacuous campaign)";
    }
  }
}

}  // namespace
}  // namespace votm::check

#endif  // VOTM_SCHED_POINTS
