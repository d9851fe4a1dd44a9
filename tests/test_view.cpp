// Integration tests of the View layer: execute() retry semantics, typed
// accessors, lock mode (Q = 1), RAC quota behaviour under contention,
// adaptive quota movement, transactional memory management, multi-view
// independence, user-exception handling, and read-only walks under live
// writers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/access.hpp"
#include "core/view.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"

namespace votm::core {
namespace {

ViewConfig basic_config(stm::Algo algo, unsigned threads = 8) {
  ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = threads;
  vc.rac = RacMode::kAdaptive;
  vc.initial_bytes = 1 << 20;
  return vc;
}

class ViewTest : public ::testing::TestWithParam<stm::Algo> {};

TEST_P(ViewTest, ExecutePublishesOnCommit) {
  View view(basic_config(GetParam()));
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 42); });
  stm::Word seen = 0;
  view.execute_read([&] { seen = vread(cell); });
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(view.stats().commits, 2u);
}

TEST_P(ViewTest, ConcurrentIncrementsAreExact) {
  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 1500;
  View view(basic_config(GetParam(), kThreads));
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 0); });

  StartBarrier barrier(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        view.execute([&] { vadd<stm::Word>(cell, 1); });
      }
    });
  }
  for (auto& th : pool) th.join();
  stm::Word final_value = 0;
  view.execute_read([&] { final_value = vread(cell); });
  EXPECT_EQ(final_value, kThreads * static_cast<stm::Word>(kPerThread));
  EXPECT_GE(view.stats().commits, kThreads * static_cast<std::uint64_t>(kPerThread));
}

TEST_P(ViewTest, UserExceptionRollsBackAndPropagates) {
  if (GetParam() == stm::Algo::kTml || GetParam() == stm::Algo::kCgl) {
    GTEST_SKIP() << "in-place engines cannot undo published writes";
  }
  View view(basic_config(GetParam()));
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 7); });
  struct Boom {};
  EXPECT_THROW(view.execute([&] {
    vwrite<stm::Word>(cell, 99);
    throw Boom{};
  }),
               Boom);
  stm::Word seen = 0;
  view.execute_read([&] { seen = vread(cell); });
  EXPECT_EQ(seen, 7u);
  // The view must be reusable after the exception (admission released).
  view.execute([&] { vwrite<stm::Word>(cell, 8); });
}

TEST_P(ViewTest, SubWordAccessors) {
  // Adaptive RAC starts at Q = N, where the view's engine runs the
  // accesses; at a fixed Q = 1 lock mode runs them as plain loads and
  // stores. Both must give the same answers, read-for-write included.
  for (const bool lock_mode : {false, true}) {
    ViewConfig vc = basic_config(GetParam());
    if (lock_mode) {
      vc.rac = RacMode::kFixed;
      vc.fixed_quota = 1;
    }
    View view(vc);
    auto* bytes = static_cast<std::uint8_t*>(view.alloc(64));
    view.execute([&] {
      for (int i = 0; i < 16; ++i) {
        vwrite<std::uint8_t>(&bytes[i], static_cast<std::uint8_t>(i * 3));
      }
      vwrite<std::uint32_t>(reinterpret_cast<std::uint32_t*>(bytes + 32), 0xdeadbeef);
    });
    view.execute_read([&] {
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(vread(&bytes[i]), static_cast<std::uint8_t>(i * 3));
      }
      EXPECT_EQ(vread(reinterpret_cast<std::uint32_t*>(bytes + 32)), 0xdeadbeefu);
    });

    auto* word = reinterpret_cast<stm::Word*>(bytes + 40);
    view.execute([&] { vwrite<stm::Word>(word, 5); });
    view.execute([&] {
      vwrite<stm::Word>(word, vread_for_write(word) * 3);
      vwrite<std::uint8_t>(&bytes[2], vread_for_write(&bytes[2]) + 1);
    });
    EXPECT_EQ(vread(word), 15u) << "lock mode: " << lock_mode;
    EXPECT_EQ(vread(&bytes[2]), 7u) << "lock mode: " << lock_mode;
    EXPECT_EQ(vread(&bytes[3]), 9u) << "lock mode: " << lock_mode;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ViewTest,
                         ::testing::Values(stm::Algo::kNOrec,
                                           stm::Algo::kOrecEagerRedo,
                                           stm::Algo::kOrecLazy,
                                           stm::Algo::kOrecEagerUndo,
                                           stm::Algo::kTml, stm::Algo::kCgl),
                         [](const auto& info) { return to_string(info.param); });

// ---------------- exception-path accounting --------------------------------

TEST(ViewExceptions, ExceptionAbortIsAccountedInStats) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 4);
  vc.rac = RacMode::kFixed;
  vc.fixed_quota = 2;
  View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 1); });

  struct Boom {};
  EXPECT_THROW(view.execute([&] {
    vwrite<stm::Word>(cell, 2);
    throw Boom{};
  }),
               Boom);

  // The thrown-out-of transaction is an abort like any other: its cycles
  // were spent and must show up in the totals, not vanish.
  const stm::StatsSnapshot st = view.stats();
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(st.aborts, 1u);
  EXPECT_GT(st.aborted_cycles, 0u);
  ASSERT_EQ(view.admission().admitted(), 0u);

  // The retry streak died with the exception: no backoff state may leak
  // into this thread's next transaction.
  EXPECT_EQ(thread_ctx().tx.consecutive_aborts, 0u);
  view.execute([&] { vwrite<stm::Word>(cell, 3); });
  EXPECT_EQ(vread(cell), 3u);
}

TEST(ViewExceptions, MisuseLeavesAdmissionExactlyOnce) {
  // Q = 2 runs NOrec; Q = 1 runs lock mode, whose plain barriers must
  // still route a read-only transaction's writes to the misuse check.
  for (const unsigned quota : {2u, 1u}) {
    ViewConfig vc = basic_config(stm::Algo::kNOrec, 2);
    vc.rac = RacMode::kFixed;
    vc.fixed_quota = quota;
    View view(vc);
    auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));

    // A write inside a read-only transaction is a misuse: the engine-side
    // handler leaves the admission controller before the logic_error
    // reaches the exception path, which must then NOT leave a second time
    // (a double leave underflows P and wedges every later admission).
    EXPECT_THROW(view.execute_read([&] { vwrite<stm::Word>(cell, 1); }),
                 std::logic_error)
        << "Q = " << quota;
    ASSERT_EQ(view.admission().admitted(), 0u) << "Q = " << quota;
    EXPECT_THROW(view.execute_read([&] { (void)vread_for_write(cell); }),
                 std::logic_error)
        << "Q = " << quota;
    ASSERT_EQ(view.admission().admitted(), 0u) << "Q = " << quota;

    view.execute([&] { vwrite<stm::Word>(cell, 5); });
    EXPECT_EQ(vread(cell), 5u);
    EXPECT_EQ(view.admission().admitted(), 0u);
  }
}

// ---------------- staged-API misuse ----------------------------------------

TEST(ViewMisuse, NestedAcquireOfSameViewIsDefinedError) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 2);
  vc.rac = RacMode::kFixed;
  vc.fixed_quota = 2;
  View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 1); });

  // Re-entering the view with a transaction already open used to silently
  // overwrite the checkpoint and rollback hooks (UB on the retry path); it
  // must now throw before touching any state.
  try {
    view.execute([&] {
      vwrite<stm::Word>(cell, 2);
      view.enter(thread_ctx(), /*read_only=*/false);
      FAIL() << "nested acquire_view did not throw";
    });
    FAIL() << "logic_error did not propagate";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("nested acquire"),
              std::string::npos)
        << e.what();
  }
  // The guard fired before mutating anything; the exception path unwound
  // the open transaction exactly once and the view stays usable.
  EXPECT_EQ(view.admission().admitted(), 0u);
  EXPECT_EQ(vread(cell), 1u);
  view.execute([&] { vwrite<stm::Word>(cell, 3); });
  EXPECT_EQ(vread(cell), 3u);
}

TEST(ViewMisuse, AcquireWhileOnAnotherViewIsDefinedError) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 2);
  vc.rac = RacMode::kFixed;
  vc.fixed_quota = 2;
  View a(vc), b(vc);
  auto* ca = static_cast<stm::Word*>(a.alloc(sizeof(stm::Word)));
  a.execute([&] { vwrite<stm::Word>(ca, 1); });

  try {
    a.execute([&] {
      vwrite<stm::Word>(ca, 2);
      b.enter(thread_ctx(), /*read_only=*/false);
      FAIL() << "cross-view acquire_view did not throw";
    });
    FAIL() << "logic_error did not propagate";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("another view"), std::string::npos)
        << e.what();
  }
  // View B never admitted (the guard fired first); view A's own exception
  // handler rolled its transaction back and left its admission.
  EXPECT_EQ(a.admission().admitted(), 0u);
  EXPECT_EQ(b.admission().admitted(), 0u);
  EXPECT_EQ(b.stats().commits + b.stats().aborts, 0u);
  EXPECT_EQ(vread(ca), 1u);
  a.execute([&] { vwrite<stm::Word>(ca, 4); });
  b.execute([&] { (void)0; });
}

TEST(ViewMisuse, ReleaseWithoutAcquireIsDefinedError) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 2);
  View view(vc);
  try {
    view.exit(thread_ctx());
    FAIL() << "release_view without acquire did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("without a matching acquire_view"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(view.admission().admitted(), 0u);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 1); });
  EXPECT_EQ(vread(cell), 1u);
}

TEST(ViewMisuse, ReleaseOnWrongViewIsDefinedError) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 2);
  View a(vc), b(vc);
  auto* ca = static_cast<stm::Word*>(a.alloc(sizeof(stm::Word)));
  try {
    a.execute([&] {
      vwrite<stm::Word>(ca, 1);
      b.exit(thread_ctx());
      FAIL() << "cross-view release_view did not throw";
    });
    FAIL() << "logic_error did not propagate";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("different view"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(a.admission().admitted(), 0u);
  EXPECT_EQ(b.admission().admitted(), 0u);
  a.execute([&] { vwrite<stm::Word>(ca, 2); });
  EXPECT_EQ(vread(ca), 2u);
}

// ---------------- RAC-specific behaviour ----------------------------------

TEST(ViewRac, FixedQuotaOneRunsInLockMode) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 8);
  vc.rac = RacMode::kFixed;
  vc.fixed_quota = 1;
  View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));

  constexpr unsigned kThreads = 6;
  constexpr int kPerThread = 800;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        view.execute([&] { vadd<stm::Word>(cell, 1); });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(vread(cell), kThreads * static_cast<stm::Word>(kPerThread));
  // Lock mode: exclusive execution, so no aborts are possible.
  EXPECT_EQ(view.stats().aborts, 0u);
  EXPECT_EQ(view.quota(), 1u);
}

TEST(ViewRac, DisabledModeSkipsAdmission) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 4);
  vc.rac = RacMode::kDisabled;
  View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 1); });
  EXPECT_EQ(view.stats().commits, 1u);
}

TEST(ViewRac, AdaptiveLowersQuotaUnderForcedContention) {
  // A single hot word hammered by writers with OrecEagerRedo and immediate
  // retry generates delta >> 1; adaptive RAC must pull the quota down.
  ViewConfig vc = basic_config(stm::Algo::kOrecEagerRedo, 8);
  vc.adapt_interval = 128;
  View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));

  // Bounds every hold below, so a view that stops counting aborts fails
  // the quota check instead of hanging the test.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  constexpr unsigned kThreads = 8;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        view.execute([&] {
          // Encounter-time lock acquired at the write, then held while
          // every other admitted thread aborts against the held orec — the
          // paper's near-livelock mechanism. Holding for three epochs'
          // worth of aborts makes at least one whole epoch commit-free
          // (delta = inf) at any retry rate; a yield would not, since it
          // does not deschedule the holder while cores are idle. Lock mode
          // (Q = 1) admits no peers to abort, so the hold ends there.
          vadd<stm::Word>(cell, 1);
          const std::uint64_t until =
              view.stats().aborts + 3 * vc.adapt_interval;
          while (view.stats().aborts < until && view.quota() > 1 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(vread(cell), kThreads * 50u);
  EXPECT_LT(view.quota(), 8u) << "quota should have been halved at least once";
  EXPECT_GT(view.stats().aborts, 0u);
}

TEST(ViewRac, AdaptiveKeepsQuotaAtMaxWithoutContention) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 8);
  vc.adapt_interval = 128;
  View view(vc);
  constexpr unsigned kThreads = 4;
  auto* cells = static_cast<stm::Word*>(view.alloc(kThreads * 64 * sizeof(stm::Word)));

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < 600; ++i) {
        view.execute([&] {
          // Disjoint per-thread slots: no conflicts at all.
          vadd<stm::Word>(&cells[t * 64], 1);
        });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(view.quota(), 8u);
}

TEST(ViewRac, ManualQuotaOverride) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 8);
  vc.rac = RacMode::kFixed;
  vc.fixed_quota = 8;
  View view(vc);
  view.set_quota(3);
  EXPECT_EQ(view.quota(), 3u);
  view.set_quota(0);  // clamped
  EXPECT_EQ(view.quota(), 1u);
}

// ---------------- escalation ladder (real threads) -------------------------

TEST(ViewEscalation, SerialRungBoundsStreaksUnderHotContention) {
  // The paper's livelock shape (one hot word, encounter-time locking, a
  // reschedule inside the transaction, no backoff) with the ladder armed:
  // the counter stays exact, and no transaction's consecutive-abort streak
  // can exceed serial_after — past it the serial rung commits irrevocably.
  ViewConfig vc = basic_config(stm::Algo::kOrecEagerRedo, 8);
  vc.rac = RacMode::kFixed;
  vc.fixed_quota = 8;
  vc.backoff = BackoffPolicy::kNone;
  vc.escalation.enabled = true;
  vc.escalation.aging_after = 4;
  vc.escalation.serial_after = 16;
  View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { vwrite<stm::Word>(cell, 0); });

  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 300;
  StartBarrier barrier(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        view.execute([&] {
          vadd<stm::Word>(cell, 1);
          std::this_thread::yield();
        });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(vread(cell), kThreads * static_cast<stm::Word>(kPerThread));
  EXPECT_LE(view.consecutive_abort_hwm(), vc.escalation.serial_after);
  EXPECT_EQ(view.admission().admitted(), 0u);
  EXPECT_EQ(view.admission().serial_holder(), -1);
  // health() mirrors the run's books.
  const WatchdogSample h = view.health();
  EXPECT_EQ(h.commits, view.stats().commits);
  EXPECT_EQ(h.aborts, view.stats().aborts);
  EXPECT_EQ(h.quota, 8u);
  EXPECT_EQ(h.admitted, 0u);
  EXPECT_EQ(h.serial_holder, -1);
}

TEST(ViewEscalation, WatchdogStaysQuietOnHealthyView) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 4);
  View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  LivelockWatchdog::Options opt;
  opt.period = std::chrono::milliseconds(5);
  opt.strikes = 2;
  LivelockWatchdog dog([&] { return view.health(); },
                       [](const WatchdogDiagnostic&) {}, opt);
  for (int i = 0; i < 2000; ++i) {
    view.execute([&] { vadd<stm::Word>(cell, 1); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  dog.stop();
  EXPECT_EQ(dog.alarms_raised(), 0u);
  EXPECT_EQ(vread(cell), 2000u);
}

// ---------------- transactional memory management -------------------------

TEST(ViewMemory, AllocInsideAbortedTransactionIsUndone) {
  View view(basic_config(stm::Algo::kNOrec));
  const std::size_t before = view.arena().allocated();
  struct Boom {};
  EXPECT_THROW(view.execute([&] {
    view.alloc(256);
    view.alloc(512);
    throw Boom{};
  }),
               Boom);
  EXPECT_EQ(view.arena().allocated(), before);
}

TEST(ViewMemory, FreeInsideTransactionIsDeferredToCommit) {
  View view(basic_config(stm::Algo::kNOrec));
  void* block = view.alloc(128);
  const std::size_t with_block = view.arena().allocated();
  struct Boom {};
  // Aborted transaction: the deferred free must NOT happen.
  EXPECT_THROW(view.execute([&] {
    view.free(block);
    throw Boom{};
  }),
               Boom);
  EXPECT_EQ(view.arena().allocated(), with_block);
  // Committed transaction: the block is retired to the limbo list, and a
  // forced reclaim pass (no concurrent pins) hands it back to the arena.
  view.execute([&] { view.free(block); });
  EXPECT_EQ(view.limbo_depth(), 1u);
  EXPECT_EQ(view.reclaim_garbage(), 1u);
  EXPECT_LT(view.arena().allocated(), with_block);
}

TEST(ViewMemory, AllocCommitPersists) {
  View view(basic_config(stm::Algo::kNOrec));
  stm::Word* cell = nullptr;
  view.execute([&] {
    cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
    vwrite<stm::Word>(cell, 31337);
  });
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(vread(cell), 31337u);
  EXPECT_TRUE(view.arena().owns(cell));
}

// ---------------- multi-view independence ---------------------------------

TEST(MultiView, IndependentViewsDoNotShareQuotaOrStats) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 4);
  View a(vc), b(vc);
  auto* ca = static_cast<stm::Word*>(a.alloc(sizeof(stm::Word)));
  auto* cb = static_cast<stm::Word*>(b.alloc(sizeof(stm::Word)));
  a.execute([&] { vwrite<stm::Word>(ca, 1); });
  a.execute([&] { vwrite<stm::Word>(ca, 2); });
  b.execute([&] { vwrite<stm::Word>(cb, 1); });
  EXPECT_EQ(a.stats().commits, 2u);
  EXPECT_EQ(b.stats().commits, 1u);
  a.set_quota(1);
  EXPECT_EQ(a.quota(), 1u);
  EXPECT_EQ(b.quota(), 4u);
}

TEST(MultiView, ThreadsAlternateBetweenViews) {
  ViewConfig vc = basic_config(stm::Algo::kOrecEagerRedo, 6);
  View a(vc), b(vc);
  auto* ca = static_cast<stm::Word*>(a.alloc(sizeof(stm::Word)));
  auto* cb = static_cast<stm::Word*>(b.alloc(sizeof(stm::Word)));
  constexpr unsigned kThreads = 6;
  constexpr int kRounds = 500;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        a.execute([&] { vadd<stm::Word>(ca, 1); });
        b.execute([&] { vadd<stm::Word>(cb, 1); });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(vread(ca), kThreads * static_cast<stm::Word>(kRounds));
  EXPECT_EQ(vread(cb), kThreads * static_cast<stm::Word>(kRounds));
}

TEST(MultiView, LockModeOnOneViewDoesNotBlockTheOther) {
  ViewConfig vc = basic_config(stm::Algo::kNOrec, 4);
  View hot(vc), cold(vc);
  hot.set_quota(1);
  auto* ch = static_cast<stm::Word*>(hot.alloc(sizeof(stm::Word)));
  auto* cc = static_cast<stm::Word*>(cold.alloc(sizeof(stm::Word)));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        hot.execute([&] { vadd<stm::Word>(ch, 1); });
        cold.execute([&] { vadd<stm::Word>(cc, 1); });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(vread(ch), 1600u);
  EXPECT_EQ(vread(cc), 1600u);
  EXPECT_EQ(hot.stats().aborts, 0u);  // exclusive lock mode
}

// Writers keep every cell of an array equal through View::execute while a
// reader sweeps it through View::run_read (the container read path): any
// torn walk is a consistency failure. Covers all engines, including the
// non-speculative TML/CGL.
void run_view_walks(stm::Algo algo) {
  SCOPED_TRACE(stm::to_string(algo));
  ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = 4;
  vc.rac = RacMode::kFixed;
  vc.fixed_quota = 4;
  View view(vc);
  constexpr unsigned kCells = 12;
  constexpr unsigned kWriterTxs = 800;
  constexpr unsigned kReads = 800;
  auto* cells = static_cast<stm::Word*>(view.alloc(kCells * sizeof(stm::Word)));
  view.execute([&] {
    for (unsigned i = 0; i < kCells; ++i) vwrite<stm::Word>(&cells[i], 0);
  });

  std::atomic<std::uint64_t> torn{0};
  std::thread writer([&] {
    for (unsigned j = 1; j <= kWriterTxs; ++j) {
      view.execute([&] {
        for (unsigned i = 0; i < kCells; ++i) vwrite<stm::Word>(&cells[i], j);
      });
    }
  });
  std::thread reader([&] {
    for (unsigned j = 0; j < kReads; ++j) {
      const bool consistent = view.run_read([&] {
        const stm::Word first = vread(&cells[0]);
        for (unsigned i = 1; i < kCells; ++i) {
          if (vread(&cells[i]) != first) return false;
        }
        return true;
      });
      if (!consistent) torn.fetch_add(1, std::memory_order_relaxed);
    }
  });
  writer.join();
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  const bool final_ok = view.run_read([&] {
    for (unsigned i = 0; i < kCells; ++i) {
      if (vread(&cells[i]) != kWriterTxs) return false;
    }
    return true;
  });
  EXPECT_TRUE(final_ok);
}

TEST(ViewReadWalks, RunReadStaysConsistentUnderWriters) {
  constexpr stm::Algo kAll[] = {
      stm::Algo::kNOrec,        stm::Algo::kOrecEagerRedo,
      stm::Algo::kOrecLazy,     stm::Algo::kOrecEagerUndo,
      stm::Algo::kTml,          stm::Algo::kCgl,
  };
  for (stm::Algo algo : kAll) run_view_walks(algo);
}

}  // namespace
}  // namespace votm::core
