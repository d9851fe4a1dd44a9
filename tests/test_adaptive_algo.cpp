// Tests of adaptive TM algorithm selection (paper Sec. IV-C extension):
// the AlgoSelector decision rule, the admission pause/resume quiesce
// protocol, and safe engine switching under live concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "core/access.hpp"
#include "core/algo_select.hpp"
#include "core/view.hpp"
#include "rac/admission.hpp"

namespace votm::core {
namespace {

// ---------------- AlgoSelector unit tests ---------------------------------

stm::StatsSnapshot epoch_of(std::uint64_t commits, std::uint64_t aborts) {
  stm::StatsSnapshot s;
  s.commits = commits;
  s.aborts = aborts;
  s.committed_cycles = commits * 1000;
  s.aborted_cycles = aborts * 1000;
  return s;
}

TEST(AlgoSelector, DisabledNeverSwitches) {
  AlgoSelector sel(AlgoAdaptConfig{});  // enabled = false
  EXPECT_EQ(sel.next_algo(stm::Algo::kOrecEagerRedo, epoch_of(1, 100000), 50.0),
            stm::Algo::kOrecEagerRedo);
}

TEST(AlgoSelector, StormMovesEagerToNOrec) {
  AlgoAdaptConfig cfg;
  cfg.enabled = true;
  AlgoSelector sel(cfg);
  EXPECT_EQ(sel.next_algo(stm::Algo::kOrecEagerRedo, epoch_of(10, 1000), 20.0),
            stm::Algo::kNOrec);
}

TEST(AlgoSelector, StormDetectionCoversAllAbortEpochs) {
  AlgoAdaptConfig cfg;
  cfg.enabled = true;
  AlgoSelector sel(cfg);
  // Livelock epoch: zero commits, plenty of aborts.
  EXPECT_EQ(sel.next_algo(stm::Algo::kOrecLazy, epoch_of(0, 5000),
                          std::numeric_limits<double>::infinity()),
            stm::Algo::kNOrec);
}

TEST(AlgoSelector, CalmNOrecMovesToEager) {
  AlgoAdaptConfig cfg;
  cfg.enabled = true;
  AlgoSelector sel(cfg);
  EXPECT_EQ(sel.next_algo(stm::Algo::kNOrec, epoch_of(10000, 10), 0.001),
            stm::Algo::kOrecEagerRedo);
}

TEST(AlgoSelector, ModerateContentionHolds) {
  AlgoAdaptConfig cfg;
  cfg.enabled = true;
  AlgoSelector sel(cfg);
  // Neither stormy nor calm: stay put (both directions).
  EXPECT_EQ(sel.next_algo(stm::Algo::kOrecEagerRedo, epoch_of(100, 200), 0.8),
            stm::Algo::kOrecEagerRedo);
  EXPECT_EQ(sel.next_algo(stm::Algo::kNOrec, epoch_of(100, 200), 0.8),
            stm::Algo::kNOrec);
}

TEST(AlgoSelector, CooldownPreventsFlapping) {
  AlgoAdaptConfig cfg;
  cfg.enabled = true;
  cfg.cooldown_epochs = 4;
  AlgoSelector sel(cfg);
  EXPECT_EQ(sel.next_algo(stm::Algo::kOrecEagerRedo, epoch_of(10, 1000), 20.0),
            stm::Algo::kNOrec);
  // Immediately calm on NOrec — would switch back, but the cooldown holds.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sel.next_algo(stm::Algo::kNOrec, epoch_of(10000, 1), 0.0),
              stm::Algo::kNOrec)
        << "epoch " << i;
  }
  // Cooldown expired: now the calm rule may fire again.
  EXPECT_EQ(sel.next_algo(stm::Algo::kNOrec, epoch_of(10000, 1), 0.0),
            stm::Algo::kOrecEagerRedo);
}

TEST(AlgoSelector, EmptyEpochIsIgnored) {
  AlgoAdaptConfig cfg;
  cfg.enabled = true;
  AlgoSelector sel(cfg);
  EXPECT_EQ(sel.next_algo(stm::Algo::kNOrec, epoch_of(0, 0), 0.0),
            stm::Algo::kNOrec);
}

// ---------------- pause/resume quiesce protocol ----------------------------

TEST(AdmissionPause, PauseWaitsForDrainAndBlocksAdmission) {
  rac::AdmissionController ac(8, 8);
  ac.admit();

  std::atomic<bool> paused{false};
  std::thread pauser([&] {
    ac.pause();
    paused.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(paused.load());  // still one thread inside

  ac.leave();
  pauser.join();
  EXPECT_TRUE(paused.load());

  EXPECT_FALSE(ac.try_admit());  // paused: nobody gets in
  ac.resume();
  EXPECT_TRUE(ac.try_admit());
  ac.leave();
}

// ---------------- View::switch_algorithm -----------------------------------

ViewConfig adaptive_view(stm::Algo algo, unsigned threads = 8) {
  ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = threads;
  vc.rac = RacMode::kAdaptive;
  vc.initial_bytes = 1 << 18;
  return vc;
}

TEST(SwitchAlgorithm, ChangesEngineAndName) {
  View view(adaptive_view(stm::Algo::kNOrec));
  EXPECT_EQ(view.algorithm(), stm::Algo::kNOrec);
  view.switch_algorithm(stm::Algo::kOrecEagerRedo);
  EXPECT_EQ(view.algorithm(), stm::Algo::kOrecEagerRedo);
  EXPECT_STREQ(view.engine().name(), "OrecEagerRedo");
  view.switch_algorithm(stm::Algo::kOrecEagerRedo);  // no-op
  EXPECT_EQ(view.algorithm(), stm::Algo::kOrecEagerRedo);
}

TEST(SwitchAlgorithm, RejectedWithoutAdmissionControl) {
  ViewConfig vc = adaptive_view(stm::Algo::kNOrec);
  vc.rac = RacMode::kDisabled;
  View view(vc);
  EXPECT_THROW(view.switch_algorithm(stm::Algo::kTml), std::logic_error);
}

TEST(SwitchAlgorithm, CounterStaysExactAcrossLiveSwitches) {
  View view(adaptive_view(stm::Algo::kNOrec));
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 0); });

  constexpr unsigned kThreads = 6;
  constexpr int kPerThread = 800;
  std::atomic<bool> done{false};

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        view.execute([&] { vadd<stm::Word>(cell, 1); });
      }
    });
  }
  // Switch back and forth while the workers hammer the counter.
  std::thread switcher([&] {
    const stm::Algo cycle[] = {stm::Algo::kOrecEagerRedo, stm::Algo::kOrecLazy,
                               stm::Algo::kTml, stm::Algo::kNOrec};
    std::size_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      view.switch_algorithm(cycle[i++ % 4]);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& th : pool) th.join();
  done.store(true);
  switcher.join();

  EXPECT_EQ(vread(cell), kThreads * static_cast<stm::Word>(kPerThread));
}

TEST(SwitchAlgorithm, AdaptiveStormTriggersNOrecFallback) {
  // A hot OrecEagerRedo view whose writers sleep while holding their
  // encounter-time lock: the selector should observe the abort storm and
  // move the view to NOrec. A sleep, not a yield: with idle cores a yield
  // does not deschedule the holder, so the storm depended on machine load.
  ViewConfig vc = adaptive_view(stm::Algo::kOrecEagerRedo);
  vc.adapt_interval = 256;
  vc.algo_adapt.enabled = true;
  vc.algo_adapt.storm_abort_ratio = 4.0;
  // Keep the quota up so the storm is visible to the algorithm selector
  // (otherwise RAC fixes the problem first by dropping Q — which is the
  // right default, but not what this test exercises).
  vc.policy.halve_threshold = 1e18;
  View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 60; ++i) {
        view.execute([&] {
          vadd<stm::Word>(cell, 1);
          // Hold the orec across a reschedule.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(vread(cell), kThreads * 60u);
  EXPECT_EQ(view.algorithm(), stm::Algo::kNOrec)
      << "storm should have moved the view off encounter-time locking";
}

}  // namespace
}  // namespace votm::core
