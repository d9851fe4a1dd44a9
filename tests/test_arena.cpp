// Unit tests for the per-view arena allocator: alignment, reuse,
// coalescing, bin flushes, double-free detection, extension (brk_view),
// exhaustion, and a multi-thread stress test (ctest -L stress runs this
// file, also under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "util/rng.hpp"

namespace votm::core {
namespace {

// Allocates `size`-byte blocks until the arena throws bad_alloc.
std::vector<void*> fill_until_exhausted(Arena& arena, std::size_t size) {
  std::vector<void*> blocks;
  try {
    for (;;) blocks.push_back(arena.alloc(size));
  } catch (const std::bad_alloc&) {
  }
  return blocks;
}

TEST(Arena, AllocationsAreAligned) {
  Arena arena(1 << 16);
  for (std::size_t size : {1u, 7u, 8u, 15u, 64u, 1000u}) {
    void* p = arena.alloc(size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment, 0u)
        << "size " << size;
  }
}

TEST(Arena, AllocationsDoNotOverlap) {
  Arena arena(1 << 16);
  std::vector<std::pair<char*, std::size_t>> blocks;
  for (int i = 0; i < 50; ++i) {
    const std::size_t size = 16 + 8 * static_cast<std::size_t>(i % 7);
    auto* p = static_cast<char*>(arena.alloc(size));
    std::memset(p, i, size);
    blocks.emplace_back(p, size);
  }
  // Every block still holds its fill pattern -> no overlap.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t b = 0; b < blocks[i].second; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(blocks[i].first[b]),
                static_cast<unsigned char>(i));
    }
  }
}

TEST(Arena, FreeMakesMemoryReusable) {
  Arena arena(4096);
  void* a = arena.alloc(1024);
  arena.free(a);
  void* b = arena.alloc(1024);
  EXPECT_EQ(a, b);  // first-fit must reuse the freed region
  arena.free(b);
}

TEST(Arena, CoalescingAllowsFullSizeRealloc) {
  Arena arena(8192);
  // Fragment the arena, then free everything; a subsequent allocation of
  // nearly the full capacity must succeed only if neighbours coalesced.
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(arena.alloc(128));
  for (void* b : blocks) arena.free(b);
  EXPECT_NO_THROW(arena.alloc(4096));
}

TEST(Arena, AllocatedAccounting) {
  Arena arena(1 << 16);
  EXPECT_EQ(arena.allocated(), 0u);
  void* a = arena.alloc(100);
  EXPECT_GE(arena.allocated(), 100u);
  arena.free(a);
  EXPECT_EQ(arena.allocated(), 0u);
}

TEST(Arena, ThrowsOnExhaustion) {
  Arena arena(1024);
  EXPECT_THROW(arena.alloc(1 << 20), std::bad_alloc);
  // Sizes whose round-up to kAlignment would wrap past SIZE_MAX.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(arena.alloc(kMax), std::bad_alloc);
  EXPECT_THROW(arena.alloc(kMax - 7), std::bad_alloc);
  EXPECT_EQ(arena.allocated(), 0u);
}

TEST(Arena, ExtendAddsCapacity) {
  Arena arena(1024);
  EXPECT_THROW(arena.alloc(4096), std::bad_alloc);
  arena.extend(16384);
  EXPECT_NO_THROW(arena.alloc(4096));
}

TEST(Arena, DoubleFreeDetected) {
  Arena arena(4096);
  void* a = arena.alloc(64);
  arena.free(a);
  EXPECT_THROW(arena.free(a), std::invalid_argument);
}

TEST(Arena, FreeNullIsNoop) {
  Arena arena(4096);
  EXPECT_NO_THROW(arena.free(nullptr));
}

TEST(Arena, OwnsIdentifiesResidentPointers) {
  Arena arena(4096);
  void* a = arena.alloc(64);
  int local = 0;
  EXPECT_TRUE(arena.owns(a));
  EXPECT_FALSE(arena.owns(&local));
  arena.free(a);
}

TEST(Arena, RandomAllocFreeStress) {
  Arena arena(1 << 18);
  Xoshiro256 rng(123);
  std::vector<std::pair<void*, std::size_t>> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.chance(3, 5)) {
      const std::size_t size = 8 + rng.below(256);
      try {
        void* p = arena.alloc(size);
        std::memset(p, 0xAB, size);
        live.emplace_back(p, size);
      } catch (const std::bad_alloc&) {
        // Free half and continue.
        for (std::size_t i = 0; i < live.size() / 2; ++i) {
          arena.free(live.back().first);
          live.pop_back();
        }
      }
    } else {
      const auto idx = static_cast<std::size_t>(rng.below(live.size()));
      arena.free(live[idx].first);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (auto& [p, s] : live) arena.free(p);
  EXPECT_EQ(arena.allocated(), 0u);
  // After releasing everything, a large allocation must succeed again.
  EXPECT_NO_THROW(arena.alloc(1 << 17));
}

TEST(Arena, ManySmallBlocksFillCapacityReasonably) {
  Arena arena(1 << 16);
  std::size_t count = 0;
  try {
    for (;;) {
      arena.alloc(16);
      ++count;
    }
  } catch (const std::bad_alloc&) {
  }
  // 16-byte payload + 16-byte header = 32 bytes per block; expect at least
  // 80% utilisation of the 64 KiB segment.
  EXPECT_GE(count, (std::size_t{1} << 16) / 32 * 8 / 10);
}

TEST(Arena, FlushCoalescesBinnedBlocks) {
  // Every freed 16-byte block waits in one bin; only a flush that merges
  // them back into the list can serve a request for nearly the whole arena.
  Arena arena(1 << 16);
  for (void* b : fill_until_exhausted(arena, 16)) arena.free(b);
  EXPECT_EQ(arena.allocated(), 0u);
  EXPECT_NO_THROW(arena.alloc(arena.capacity() - 64));
}

TEST(Arena, FreedBinRefillsAnotherSize) {
  // Space freed as 48-byte blocks must serve 16-byte requests as well as a
  // fresh arena does (ManySmallBlocksFillCapacityReasonably's 80% rule).
  Arena arena(1 << 16);
  for (void* b : fill_until_exhausted(arena, 48)) arena.free(b);
  EXPECT_GE(fill_until_exhausted(arena, 16).size(),
            (std::size_t{1} << 16) / 32 * 8 / 10);
  // The flush emptied the 48-byte bin into the list and the 16-byte blocks
  // now cover it, so no 48-byte block may come back.
  EXPECT_THROW(arena.alloc(48), std::bad_alloc);
}

TEST(Arena, ConcurrentMixedSizesStayDisjoint) {
  // Four threads share one small arena through binned sizes (up to 2 KiB)
  // and list sizes above that. Each thread's binned sizes drift through
  // four 512-byte bands, so the bins fill with sizes no longer asked for,
  // the list runs dry and alloc flushes mid-run, under contention. Each
  // block carries its own fill byte, checked before the block is freed, so
  // an overlap or an early reuse shows up as a mismatch. At most 4 x 8
  // blocks of under 3.2 KiB are live, so after a flush the 256 KiB arena
  // always has a free gap that fits the next request.
  constexpr int kThreads = 4;
  constexpr int kSteps = 10000;
  constexpr std::size_t kMaxLive = 8;
  Arena arena(std::size_t{256} << 10);
  // A worker stops at its first failure and records it here.
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&arena, &errors, t] {
      struct Block {
        unsigned char* p;
        std::size_t size;
        unsigned char fill;
      };
      Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
      std::vector<Block> live;
      auto release = [&arena](const Block& b) {
        if (std::any_of(b.p, b.p + b.size,
                        [&b](unsigned char c) { return c != b.fill; })) {
          throw std::runtime_error("a live block lost its fill byte");
        }
        arena.free(b.p);
      };
      try {
        for (int step = 0; step < kSteps; ++step) {
          if (live.empty() || (live.size() < kMaxLive && rng.chance(1, 2))) {
            const auto band = static_cast<std::size_t>(step / 1000 + t) % 4;
            const std::size_t size = rng.chance(1, 8)
                                         ? 2049 + rng.below(1024)
                                         : band * 512 + 1 + rng.below(512);
            const auto fill = static_cast<unsigned char>(t * 64 + step % 64);
            auto* p = static_cast<unsigned char*>(arena.alloc(size));
            std::memset(p, fill, size);
            live.push_back({p, size, fill});
          } else {
            const auto idx = static_cast<std::size_t>(rng.below(live.size()));
            release(live[idx]);
            live[idx] = live.back();
            live.pop_back();
          }
        }
        for (const Block& b : live) release(b);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[static_cast<std::size_t>(t)], "") << "thread " << t;
  }
  EXPECT_EQ(arena.allocated(), 0u);
  EXPECT_NO_THROW(arena.alloc(arena.capacity() - 64));
}

}  // namespace
}  // namespace votm::core
