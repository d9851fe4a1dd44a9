// Orec-table metadata knobs (stm/orec_table.hpp): size/granularity
// config semantics, factory sanitization, the default table's packed
// footprint and stripe spread, the packed-word lock round-trip,
// index_for aliasing shape, stripe-map agreement between the table and
// the read-log dedup, and votm-check walks over the granularity knob.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stm/engine.hpp"
#include "stm/factory.hpp"
#include "stm/logs.hpp"
#include "stm/orec_eager_redo.hpp"
#include "stm/orec_table.hpp"

namespace votm {
namespace {

using stm::Orec;
using stm::OrecTable;
using stm::OrecTableConfig;

OrecTableConfig make_config(std::size_t size, unsigned shift) {
  OrecTableConfig cfg;
  cfg.size = size;
  cfg.granularity_shift = shift;
  return cfg;
}

TEST(OrecTableConfigUnit, ImplicitFromSizeKeepsLegacyMeaning) {
  // `OrecTable(1 << 10)` must keep meaning what it always meant: that
  // size, with every other knob at its historical default.
  const OrecTableConfig cfg = std::size_t{1} << 10;
  EXPECT_EQ(cfg.size, std::size_t{1} << 10);
  EXPECT_EQ(cfg.granularity_shift, OrecTableConfig::kDefaultGranularityShift);
}

TEST(OrecTableConfigUnit, DirectConstructionStaysStrict) {
  // The factory sanitizes; direct construction throws. Both halves of
  // that contract are pinned.
  EXPECT_THROW(OrecTable(OrecTableConfig{std::size_t{0}}),
               std::invalid_argument);
  EXPECT_THROW(OrecTable(OrecTableConfig{std::size_t{1000}}),
               std::invalid_argument);
  EXPECT_THROW(OrecTable(make_config(64, 2)), std::invalid_argument);
  EXPECT_THROW(OrecTable(make_config(64, 13)), std::invalid_argument);
  // Size 1 is a legal power of two: every address aliases one orec.
  OrecTable tiny{OrecTableConfig{std::size_t{1}}};
  int a = 0;
  int b = 0;
  EXPECT_EQ(&tiny.for_address(&a), &tiny.for_address(&b));
}

TEST(FactorySanitize, RoundsSizeUpAndCountsIt) {
  const auto before = stm::factory_stats();
  stm::EngineConfig cfg;
  cfg.orec_table_size = 1000;
  const OrecTableConfig t = stm::sanitized_orec_table_config(cfg);
  EXPECT_EQ(t.size, 1024u);
  EXPECT_EQ(stm::factory_stats().orec_size_roundups,
            before.orec_size_roundups + 1);

  // The 0 edge rounds up to 1 instead of masking with size_t(-1).
  cfg.orec_table_size = 0;
  EXPECT_EQ(stm::sanitized_orec_table_config(cfg).size, 1u);
  // The 1 edge is already a power of two: untouched, not counted.
  cfg.orec_table_size = 1;
  const auto mid = stm::factory_stats();
  EXPECT_EQ(stm::sanitized_orec_table_config(cfg).size, 1u);
  EXPECT_EQ(stm::factory_stats().orec_size_roundups, mid.orec_size_roundups);
}

TEST(FactorySanitize, ClampsGranularityAndCountsIt) {
  const auto before = stm::factory_stats();
  stm::EngineConfig cfg;
  cfg.orec_granularity_shift = 0;
  EXPECT_EQ(stm::sanitized_orec_table_config(cfg).granularity_shift,
            OrecTableConfig::kMinGranularityShift);
  cfg.orec_granularity_shift = 20;
  EXPECT_EQ(stm::sanitized_orec_table_config(cfg).granularity_shift,
            OrecTableConfig::kMaxGranularityShift);
  EXPECT_EQ(stm::factory_stats().orec_granularity_clamps,
            before.orec_granularity_clamps + 2);
  // In-range shifts pass through untouched.
  cfg.orec_granularity_shift = 6;
  const auto mid = stm::factory_stats();
  EXPECT_EQ(stm::sanitized_orec_table_config(cfg).granularity_shift, 6u);
  EXPECT_EQ(stm::factory_stats().orec_granularity_clamps,
            mid.orec_granularity_clamps);
}

TEST(FactorySanitize, NonPow2SizeStillYieldsAWorkingEngine) {
  stm::EngineConfig cfg;
  cfg.orec_table_size = 100;  // rounds to 128 inside make_engine
  cfg.orec_granularity_shift = 6;
  auto engine = stm::make_engine(stm::Algo::kOrecEagerRedo, cfg);
  stm::TxThread tx;
  stm::Word cell = 0;
  for (int i = 0; i < 10; ++i) {
    stm::atomically(*engine, tx, [&](stm::TxThread& t) {
      engine->write(t, &cell, engine->read(t, &cell) + 1);
    });
  }
  EXPECT_EQ(cell, 10u);
}

// The test name predates the single packed layout; it is kept so the
// suite's test IDs stay stable.
TEST(OrecPacking, LockRoundTripAtBothLayouts) {
  // pack_owner steals the LSB as the lock tag; alignof(TxThread) >= 2 is
  // statically asserted in engine.hpp, checked live here against a real
  // thread descriptor's address, on line-mates and across lines.
  EXPECT_GE(alignof(stm::TxThread), 2u);
  stm::TxThread tx;
  OrecTable table(make_config(64, 3));
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{63}}) {
    Orec& o = table.at(i);
    ASSERT_TRUE(o.try_lock(Orec::pack_version(0), &tx));
    const Orec::Packed locked = o.load();
    EXPECT_TRUE(Orec::is_locked(locked));
    EXPECT_EQ(Orec::owner_of(locked), &tx) << "orec " << i;
    o.unlock_to_version(7);
    const Orec::Packed unlocked = o.load();
    EXPECT_FALSE(Orec::is_locked(unlocked));
    EXPECT_EQ(Orec::version_of(unlocked), 7u);
  }
  // Version payloads survive the shift round-trip well past 32 bits.
  const std::uint64_t big = std::uint64_t{1} << 40;
  EXPECT_EQ(Orec::version_of(Orec::pack_version(big)), big);
  EXPECT_FALSE(Orec::is_locked(Orec::pack_version(big)));
}

TEST(OrecTableFootprint, DefaultPacksEightTimesTheStripesInto256KiB) {
  // 2^15 one-word orecs, eight per cache line: the 256 KiB that 4,096
  // cache-line-padded orecs used to take.
  OrecTable table;
  EXPECT_EQ(table.size(), std::size_t{1} << 15);
  EXPECT_EQ(table.backing_bytes(), std::size_t{256} << 10);
  EXPECT_EQ(table.backing_bytes(), std::size_t{4096} * 64);
  EXPECT_EQ(&table.at(1) - &table.at(0), 1);
  // Line-aligned base: each line holds exactly eight whole orecs.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&table.at(0)) % 64, 0u);
  // Value-initialized: every stripe starts unlocked at version 0.
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, table.size() - 1}) {
    EXPECT_EQ(table.at(i).load(), Orec::pack_version(0)) << "orec " << i;
  }
}

TEST(OrecTableFootprint, DefaultSpreadsAColdEigenViewOverDistinctStripes) {
  // The cold Eigenbench view (eigen::paper_view2) spans a1+a2+a3 = 40,960
  // contiguous words. A well-mixed hash into 32,768 stripes leaves about
  // 32,768 * (1 - e^-1.25) ~ 23,400 of them in use; a 4,096-stripe table
  // could never exceed 4,096, so nearly every pair of cold transactions
  // aliased somewhere.
  constexpr std::size_t kWords = 40960;
  std::vector<stm::Word> heap(kWords + 2 * 4099);
  OrecTable table;
  for (std::size_t skew : {std::size_t{0}, std::size_t{4097},
                           std::size_t{2 * 4099}}) {
    std::set<std::size_t> stripes;
    for (std::size_t i = 0; i < kWords; ++i) {
      stripes.insert(table.index_for(&heap[skew + i]));
    }
    EXPECT_GE(stripes.size(), 20000u) << "base skew " << skew << " words";
  }
}

TEST(OrecIndexing, AddressesInOneBlockShareAStripe) {
  // The granularity shift folds a 2^shift-byte block onto one stripe key
  // BEFORE the mix, so intra-block aliasing is exact, not probabilistic.
  alignas(4096) static std::byte block[8192];
  for (unsigned shift : {3u, 6u, 12u}) {
    OrecTable table(make_config(256, shift));
    const std::size_t bytes = std::size_t{1} << shift;
    const std::size_t base_idx = table.index_for(&block[0]);
    for (std::size_t off = 0; off < bytes; off += 8) {
      EXPECT_EQ(table.index_for(&block[off]), base_idx)
          << "shift=" << shift << " off=" << off;
    }
    // The next block is free to land anywhere — but index_for must still
    // be a pure function of the block id.
    EXPECT_EQ(table.index_for(&block[bytes]),
              table.index_for(&block[bytes + 8 % bytes]));
  }
}

std::size_t distinct_stripes(OrecTable& table, const std::byte* base,
                             std::size_t count, std::size_t step) {
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < count; ++i) {
    seen.insert(table.index_for(base + i * step));
  }
  return seen.size();
}

TEST(OrecIndexing, AliasingHistogramsMatchGranularity) {
  alignas(64) static std::byte arena[1 << 15];  // 32 KiB
  OrecTable g3(make_config(4096, 3));
  OrecTable g6(make_config(4096, 6));

  // Sequential word walk: 4096 words are 4096 distinct g3 keys but only
  // 512 distinct cache-line blocks, so g6 folds them 8:1 by construction.
  const std::size_t seq3 = distinct_stripes(g3, arena, 4096, 8);
  const std::size_t seq6 = distinct_stripes(g6, arena, 4096, 8);
  EXPECT_GT(seq3, 2000u);  // ~4096*(1-1/e) for a well-mixed hash
  EXPECT_LE(seq6, 512u);   // hard cap: one stripe key per block
  EXPECT_GT(seq6, 300u);   // ...but the 512 keys still spread

  // Strided walk, one word per cache line: both granularities see one key
  // per sample, so the spread must be comparable — the knob changes which
  // addresses collide, not how well the hash mixes.
  const std::size_t strided3 = distinct_stripes(g3, arena, 512, 64);
  const std::size_t strided6 = distinct_stripes(g6, arena, 512, 64);
  EXPECT_GT(strided3, 300u);
  EXPECT_GT(strided6, 300u);

  // Heap-like scatter: random 8-aligned addresses over a wide range must
  // not pile up on a few stripes at any granularity.
  std::mt19937_64 rng(0xA11A5);
  for (OrecTable* table : {&g3, &g6}) {
    std::vector<std::size_t> load(table->size(), 0);
    std::size_t max_load = 0;
    for (int i = 0; i < 4096; ++i) {
      const std::uintptr_t addr = (rng() & ((std::uintptr_t{1} << 40) - 1)) & ~std::uintptr_t{7};
      const std::size_t idx =
          table->index_for(reinterpret_cast<const void*>(addr));
      ASSERT_LT(idx, table->size());
      max_load = std::max(max_load, ++load[idx]);
    }
    // 4096 balls in 4096 bins: expected max load ~ log n / log log n ≈ 6.
    EXPECT_LE(max_load, 16u);
  }
}

TEST(StripeMapConsistency, DedupAgreesWithTheTableAtEveryKnob) {
  // The read-log dedup keys on Orec POINTERS, so it collapses exactly the
  // reads the table maps to one stripe — at every granularity. A mismatch
  // would make validation scan length diverge from the conflict map.
  alignas(64) static std::byte arena[1 << 12];
  for (unsigned shift : {3u, 6u}) {
    OrecTable table(make_config(256, shift));
    stm::OrecReadLog rlog;
    rlog.set_dedup(true);
    std::set<std::size_t> stripes;
    for (std::size_t off = 0; off < (1u << 12); off += 8) {
      stripes.insert(table.index_for(&arena[off]));
      rlog.push(&table.for_address(&arena[off]));
    }
    EXPECT_EQ(rlog.size(), stripes.size()) << "g" << shift;
    rlog.clear();
  }
}

TEST(StripeMapConsistency, PackedNeighborsStayDistinctInTheDedupHash) {
  // Regression for the old `>> 6` orec_hash: at the packed 8 B stride it
  // hashed all eight line-mates identically, degenerating the dedup's
  // signature filter and probe chain. Consecutive packed orecs must log
  // as distinct entries.
  OrecTable packed(make_config(64, 3));
  stm::OrecReadLog rlog;
  rlog.set_dedup(true);
  std::set<std::size_t> hashes;
  for (std::size_t i = 0; i < 8; ++i) {
    hashes.insert(stm::OrecReadLog::orec_hash(&packed.at(i)));
    rlog.push(&packed.at(i));
  }
  EXPECT_EQ(hashes.size(), 8u);
  EXPECT_EQ(rlog.size(), 8u);
  rlog.clear();
}

// Real-thread smoke over the knob matrix: exact counters under concurrent
// increments, including the stripe-sharing configurations where every
// conflict is a false one the engine must still resolve correctly.
TEST(GranularityStress, CountersStayExactAcrossTheKnobMatrix) {
  for (unsigned shift : {3u, 6u}) {
    stm::EngineConfig cfg;
    cfg.orec_granularity_shift = shift;
    auto engine = stm::make_engine(stm::Algo::kOrecEagerRedo, cfg);
    constexpr unsigned kThreads = 3;
    constexpr unsigned kTxs = 400;
    // Adjacent words: disjoint stripes at g3, one shared stripe at g6.
    alignas(64) stm::Word cells[kThreads] = {};
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < kThreads; ++i) {
      pool.emplace_back([&, i] {
        stm::TxThread tx;
        for (unsigned j = 0; j < kTxs; ++j) {
          stm::atomically(*engine, tx, [&](stm::TxThread& t) {
            engine->write(t, &cells[i], engine->read(t, &cells[i]) + 1);
          });
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (unsigned i = 0; i < kThreads; ++i) {
      EXPECT_EQ(cells[i], kTxs) << "g" << shift;
    }
  }
}

}  // namespace
}  // namespace votm

// --- votm-check: knob-matrix exploration (harness builds only) -------------

#include "check/sched_point.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include "check/explore.hpp"
#include "check/scenarios.hpp"

namespace votm::check {
namespace {

constexpr stm::Algo kOrecAlgos[] = {
    stm::Algo::kOrecEagerRedo,
    stm::Algo::kOrecLazy,
    stm::Algo::kOrecEagerUndo,
};

// Coarse stripes change the SHAPE of the explored conflict graph (distinct
// variables collide), not just its weights; opacity must hold at every
// granularity on every orec engine.
TEST(GranularityWalks, OpacityHoldsAcrossKnobMatrix) {
  for (stm::Algo algo : kOrecAlgos) {
    for (unsigned shift : {3u, 6u}) {
      StmRandomConfig cfg;
      cfg.algo = algo;
      cfg.orec_granularity_shift = shift;
      cfg.reread_pct = 30;  // drive the dedup under stripe sharing too
      StmRandomScenario scenario(cfg);
      const auto report = explore_random(scenario, 15, 0x6A51);
      EXPECT_TRUE(report.clean()) << report.repro;
      EXPECT_EQ(report.runs, 15u);
    }
  }
}

TEST(GranularityWalks, SnapshotConsistencyHoldsUnderStripeSharing) {
  for (stm::Algo algo : kOrecAlgos) {
    StmSnapshotConfig cfg;
    cfg.algo = algo;
    cfg.orec_granularity_shift = 6;  // both vars share one stripe
    StmSnapshotScenario scenario(cfg);
    const auto report = explore_random(scenario, 15, 0x6A52);
    EXPECT_TRUE(report.clean()) << report.repro;
  }
}

// The GV6 clock composed with coarse stripes, under exploration.
TEST(GranularityWalks, Gv6ComposesWithCoarseStripes) {
  StmSnapshotConfig snap;
  snap.algo = stm::Algo::kOrecLazy;
  snap.orec_granularity_shift = 6;
  snap.clock_policy = stm::ClockPolicy::kGv6;
  StmSnapshotScenario snap_scenario(snap);
  const auto snap_report = explore_random(snap_scenario, 20, 0x6A54);
  EXPECT_TRUE(snap_report.clean()) << snap_report.repro;
}

}  // namespace
}  // namespace votm::check

#endif  // VOTM_SCHED_POINTS
