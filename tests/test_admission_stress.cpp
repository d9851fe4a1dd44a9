// Stress tests for the admission controller's lock-free fast path, run
// against BOTH implementations (the packed-word atomic gate and the legacy
// mutex gate must satisfy the same contract). Built for TSan: configure
// with -DVOTM_SANITIZE=thread and run the `stress` ctest label.
//
// Invariants checked under churn with a concurrent quota mutator:
//   - the number of threads inside the view never exceeds the quota bound
//     (max_threads here; instantaneous quota can be below the resident
//     count only transiently, by the documented lazy-lowering rule),
//   - a thread admitted in lock mode (observed quota == 1) is alone inside,
//     and no lock-mode holder coexists with a transactional admission,
//   - pause() returns only once the view is empty,
//   - raising the quota from 1 blocks until the lock-mode holder drains,
//   - after all workers join, admits == leaves and admitted() == 0,
//   - at twice the host's CPUs through a Q = 1 gate, a plain counter bumped
//     inside stays exact at every spin budget (the atomic gate's lock-mode
//     spin phase).
//
// Violations are counted in atomics and asserted once at the end: gtest
// EXPECT_* is not thread-safe, and a counter keeps the hot loop cheap
// enough to stress the admission word rather than the test harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "rac/admission.hpp"
#include "util/backoff.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"

namespace votm::rac {
namespace {

class AdmissionStress : public ::testing::TestWithParam<AdmissionImpl> {};

TEST_P(AdmissionStress, ChurnKeepsInvariants) {
  constexpr unsigned kThreads = 8;
  constexpr int kCycles = 100000;
  AdmissionController ac(kThreads, kThreads, GetParam());

  std::atomic<int> inside{0};
  std::atomic<int> lock_holders{0};
  std::atomic<std::uint64_t> admits{0};
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<int> bound_violations{0};
  std::atomic<int> lock_violations{0};
  std::atomic<int> pause_violations{0};
  std::atomic<unsigned> workers_done{0};
  StartBarrier start(kThreads + 1);

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      start.arrive_and_wait();
      for (int i = 0; i < kCycles; ++i) {
        unsigned q = 0;
        if (rng.below(8) == 0) {
          if (!ac.try_admit(&q)) continue;
        } else {
          q = ac.admit();
        }
        // inside is bumped after admit returns and dropped before leave,
        // so inside <= held admissions at every instant; the checks below
        // can under-report overlap but never report one that didn't exist.
        const int now = inside.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (now > static_cast<int>(kThreads)) {
          bound_violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (q == 1) {
          // Lock mode: admitted at P == 0, and raising from Q = 1 drains
          // first, so nobody else can be inside for our whole stay.
          if (now != 1) lock_violations.fetch_add(1, std::memory_order_relaxed);
          lock_holders.fetch_add(1, std::memory_order_acq_rel);
        } else if (lock_holders.load(std::memory_order_acquire) != 0) {
          lock_violations.fetch_add(1, std::memory_order_relaxed);
        }
        admits.fetch_add(1, std::memory_order_relaxed);
        if (q == 1) lock_holders.fetch_sub(1, std::memory_order_acq_rel);
        inside.fetch_sub(1, std::memory_order_acq_rel);
        leaves.fetch_add(1, std::memory_order_relaxed);
        ac.leave();
      }
      workers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // Quota mutator: cycles lock mode / low / full quota while the workers
  // churn, and periodically pauses to check the drain protocol.
  std::thread mutator([&] {
    const unsigned quotas[] = {1, 2, kThreads, kThreads};
    unsigned k = 0;
    while (workers_done.load(std::memory_order_acquire) < kThreads) {
      ac.set_quota(quotas[k % 4]);
      if (++k % 16 == 0) {
        ac.pause();
        if (inside.load(std::memory_order_acquire) != 0) {
          pause_violations.fetch_add(1, std::memory_order_relaxed);
        }
        ac.resume();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ac.set_quota(kThreads);
  });

  start.arrive_and_wait();
  for (auto& th : pool) th.join();
  mutator.join();

  EXPECT_EQ(bound_violations.load(), 0);
  EXPECT_EQ(lock_violations.load(), 0);
  EXPECT_EQ(pause_violations.load(), 0);
  EXPECT_EQ(admits.load(), leaves.load());
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST_P(AdmissionStress, RaiseFromLockModeBlocksUntilDrain) {
  AdmissionController ac(4, 1, GetParam());
  ASSERT_EQ(ac.admit(), 1u);
  std::atomic<bool> raised{false};
  std::thread raiser([&] {
    ac.set_quota(4);
    raised.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(raised.load(std::memory_order_acquire));
  ac.leave();
  raiser.join();
  EXPECT_TRUE(raised.load());
  EXPECT_EQ(ac.quota(), 4u);
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST_P(AdmissionStress, PauseWaitsForResidents) {
  constexpr unsigned kN = 4;
  AdmissionController ac(kN, kN, GetParam());
  std::atomic<int> inside{0};
  std::atomic<bool> release{false};
  StartBarrier ready(kN);  // 3 residents + main

  std::vector<std::thread> residents;
  for (unsigned i = 0; i < kN - 1; ++i) {
    residents.emplace_back([&] {
      ac.admit();
      inside.fetch_add(1, std::memory_order_acq_rel);
      ready.arrive_and_wait();
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      inside.fetch_sub(1, std::memory_order_acq_rel);
      ac.leave();
    });
  }
  ready.arrive_and_wait();
  EXPECT_EQ(ac.admitted(), kN - 1);

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    release.store(true, std::memory_order_release);
  });
  ac.pause();  // must block until every resident has left
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(ac.admitted(), 0u);
  EXPECT_FALSE(ac.try_admit());  // paused gate rejects new admissions
  ac.resume();
  EXPECT_TRUE(ac.try_admit());
  ac.leave();

  releaser.join();
  for (auto& t : residents) t.join();
}

TEST_P(AdmissionStress, SetQuotaDuringOpenModeAccountsResidue) {
  // Full quota opens the fence-free gate; residents admitted through it
  // live in per-thread slot ledgers, not in P. Lowering the quota must
  // close the gate and carry those residents over (the RESIDUE protocol):
  // they stay visible in admitted() until they leave, and the ledger must
  // balance back to zero afterwards.
  constexpr unsigned kN = 4;
  AdmissionController ac(kN, kN, GetParam());
  std::atomic<bool> release{false};
  StartBarrier ready(3);  // 2 residents + main

  std::vector<std::thread> residents;
  for (int i = 0; i < 2; ++i) {
    residents.emplace_back([&] {
      EXPECT_EQ(ac.admit(), kN);
      ready.arrive_and_wait();
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ac.leave();
    });
  }
  ready.arrive_and_wait();
  EXPECT_EQ(ac.admitted(), 2u);

  ac.set_quota(2);  // closes the open gate with both residents inside
  EXPECT_EQ(ac.quota(), 2u);
  EXPECT_EQ(ac.admitted(), 2u);  // residue still accounted
  EXPECT_FALSE(ac.try_admit());  // 2 residents == new quota: full

  release.store(true, std::memory_order_release);
  for (auto& t : residents) t.join();
  EXPECT_EQ(ac.admitted(), 0u);

  unsigned q = 0;
  ASSERT_TRUE(ac.try_admit(&q));  // residue retired: gated path again
  EXPECT_EQ(q, 2u);
  ac.leave();
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST_P(AdmissionStress, NonPowerOfTwoThreadCountChurn) {
  // N = 6 walks the quota chain 6 -> 3 -> 1 (odd halving steps) and lands
  // on quotas that alias under a log2 bucketing; the invariants must hold
  // off the power-of-two grid exactly as on it.
  constexpr unsigned kThreads = 6;
  constexpr int kCycles = 20000;
  AdmissionController ac(kThreads, kThreads, GetParam());

  std::atomic<int> inside{0};
  std::atomic<int> lock_holders{0};
  std::atomic<int> bound_violations{0};
  std::atomic<int> lock_violations{0};
  std::atomic<unsigned> workers_done{0};
  StartBarrier start(kThreads + 1);

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      start.arrive_and_wait();
      for (int i = 0; i < kCycles; ++i) {
        unsigned q = 0;
        if (rng.below(8) == 0) {
          if (!ac.try_admit(&q)) continue;
        } else {
          q = ac.admit();
        }
        const int now = inside.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (now > static_cast<int>(kThreads)) {
          bound_violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (q == 1) {
          if (now != 1) lock_violations.fetch_add(1, std::memory_order_relaxed);
          lock_holders.fetch_add(1, std::memory_order_acq_rel);
        } else if (lock_holders.load(std::memory_order_acquire) != 0) {
          lock_violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (q == 1) lock_holders.fetch_sub(1, std::memory_order_acq_rel);
        inside.fetch_sub(1, std::memory_order_acq_rel);
        ac.leave();
      }
      workers_done.fetch_add(1, std::memory_order_release);
    });
  }

  std::thread mutator([&] {
    const unsigned quotas[] = {1, 3, 5, kThreads};
    unsigned k = 0;
    while (workers_done.load(std::memory_order_acquire) < kThreads) {
      ac.set_quota(quotas[k++ % 4]);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ac.set_quota(kThreads);
  });

  start.arrive_and_wait();
  for (auto& th : pool) th.join();
  mutator.join();

  EXPECT_EQ(bound_violations.load(), 0);
  EXPECT_EQ(lock_violations.load(), 0);
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST_P(AdmissionStress, TryAdmitRacingPause) {
  // try_admit never blocks, so it races the pause drain protocol head-on:
  // every pause() return must still see an empty view, and a paused gate
  // must reject the non-blocking path outright.
  constexpr unsigned kThreads = 4;
  AdmissionController ac(kThreads, kThreads, GetParam());
  std::atomic<int> inside{0};
  std::atomic<bool> stop{false};
  std::atomic<int> pause_violations{0};
  StartBarrier start(kThreads + 1);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_acquire)) {
        if (!ac.try_admit()) continue;
        inside.fetch_add(1, std::memory_order_acq_rel);
        inside.fetch_sub(1, std::memory_order_acq_rel);
        ac.leave();
      }
    });
  }

  start.arrive_and_wait();
  for (int k = 0; k < 200; ++k) {
    ac.pause();
    if (inside.load(std::memory_order_acquire) != 0 || ac.admitted() != 0) {
      pause_violations.fetch_add(1, std::memory_order_relaxed);
    }
    if (ac.try_admit()) {  // paused gate must refuse
      pause_violations.fetch_add(1, std::memory_order_relaxed);
      ac.leave();
    }
    ac.resume();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  EXPECT_EQ(pause_violations.load(), 0);
  EXPECT_EQ(ac.admitted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Impls, AdmissionStress,
    ::testing::Values(AdmissionImpl::kAtomic, AdmissionImpl::kMutex),
    [](const ::testing::TestParamInfo<AdmissionImpl>& info) {
      return info.param == AdmissionImpl::kAtomic ? "atomic" : "mutex";
    });

// The lock-mode spin phase (atomic gate only): past kShortSpin a waiter at a
// Q = 1 gate spins on to the whole budget, retrying after every cpu_relax.
struct LockModeRun {
  std::uint64_t counter = 0;  // plain: only the Q = 1 holder touches it
  unsigned finished = 0;      // threads that completed every admission
  int quota_violations = 0;   // admissions that did not observe Q = 1
};

// `threads` threads each pass `admissions` times through the Q = 1 gate,
// holding it for `hold` cpu_relax iterations.
LockModeRun run_lock_mode_gate(AdmissionController& ac, unsigned threads,
                               int admissions, int hold) {
  std::uint64_t counter = 0;
  std::atomic<unsigned> finished{0};
  std::atomic<int> quota_violations{0};
  StartBarrier start(threads + 1);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < admissions; ++i) {
        if (ac.admit() != 1) {
          quota_violations.fetch_add(1, std::memory_order_relaxed);
        }
        ++counter;
        for (int k = 0; k < hold; ++k) Backoff::cpu_relax();
        ac.leave();
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }
  start.arrive_and_wait();
  for (auto& th : pool) th.join();
  return {counter, finished.load(), quota_violations.load()};
}

TEST(AdmissionSpin, OversubscribedLockModeGateStaysExact) {
  // Twice the host's CPUs through one Q = 1 gate. The plain counter is
  // exact only if every handoff, to a spinning waiter's try_admit or to a
  // parked waiter's wakeup, is a real exclusive hand-over (TSan also
  // checks the happens-before edge). A budget of 1 parks every waiter at
  // once (the lost-notify fault tests in test_fault.cpp rely on it),
  // kShortSpin parks after the short phase, and the default spins on.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = 2 * cpus;
  constexpr int kAdmissions = 2000;
  for (const unsigned budget : {1u, AdmissionController::kShortSpin,
                                AdmissionController::kDefaultSpinBudget}) {
    AdmissionController ac(threads, 1, AdmissionImpl::kAtomic, budget);
    ASSERT_EQ(ac.quota(), 1u);
    const LockModeRun run = run_lock_mode_gate(ac, threads, kAdmissions, 64);
    EXPECT_EQ(run.counter, std::uint64_t{threads} * kAdmissions)
        << "budget " << budget;
    EXPECT_EQ(run.finished, threads) << "budget " << budget;
    EXPECT_EQ(run.quota_violations, 0) << "budget " << budget;
    EXPECT_EQ(ac.admitted(), 0u) << "budget " << budget;
  }
}

}  // namespace
}  // namespace votm::rac
