// Unit tests for the transaction-private logs (src/stm/logs.hpp):
// WriteSet's open-addressing index, the adjacent-duplicate collapse of
// ValueReadLog and OrecReadLog, and the shrink-with-hysteresis policy all
// three share.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "stm/logs.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {
namespace {

TEST(WriteSetTest, LookupFindsInsertedAndMissesAbsent) {
  WriteSet ws;
  Word a = 0, b = 0;
  ws.insert(&a, 11);
  ASSERT_NE(ws.lookup(&a), nullptr);
  EXPECT_EQ(*ws.lookup(&a), 11u);
  EXPECT_EQ(ws.lookup(&b), nullptr);
}

TEST(WriteSetTest, OverwriteUpdatesInPlace) {
  WriteSet ws;
  Word a = 0;
  ws.insert(&a, 1);
  ws.insert(&a, 2);
  ws.insert(&a, 3);
  EXPECT_EQ(ws.size(), 1u);
  EXPECT_EQ(*ws.lookup(&a), 3u);
}

TEST(WriteSetTest, GrowPreservesInsertionOrderAndLookups) {
  WriteSet ws;
  // Well past the initial index size so the open-addressing table rebuilds
  // several times; write-back order must stay exactly insertion order.
  std::vector<Word> words(1000);
  for (std::size_t i = 0; i < words.size(); ++i) {
    ws.insert(&words[i], i);
  }
  ASSERT_EQ(ws.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(ws.entries()[i].addr, &words[i]);
    EXPECT_EQ(ws.entries()[i].value, i);
    ASSERT_NE(ws.lookup(&words[i]), nullptr);
    EXPECT_EQ(*ws.lookup(&words[i]), i);
  }
}

TEST(WriteSetTest, ClearKeepsModestCapacity) {
  WriteSet ws;
  std::vector<Word> words(100);
  for (std::size_t i = 0; i < words.size(); ++i) ws.insert(&words[i], i);
  ws.clear();
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.lookup(&words[0]), nullptr);
  EXPECT_GE(ws.entries().capacity(), 100u);  // below the shrink threshold
  ws.insert(&words[1], 7);
  EXPECT_EQ(*ws.lookup(&words[1]), 7u);
}

TEST(ValueReadLogTest, ReReadLoopStaysBounded) {
  ValueReadLog log;
  Word a = 42;
  for (int i = 0; i < 10000; ++i) log.push(&a, a);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.values_match());
}

TEST(ValueReadLogTest, ChangedValueIsNotDeduped) {
  ValueReadLog log;
  Word a = 1;
  log.push(&a, 1);
  a = 2;
  log.push(&a, 2);  // same addr, different observed value: both stay
  EXPECT_EQ(log.size(), 2u);
  // The log now holds a torn pair; validation must see it.
  EXPECT_FALSE(log.values_match());
}

TEST(ValueReadLogTest, NonAdjacentDuplicateIsKept) {
  // Only ADJACENT duplicates collapse — an a,b,a pattern logs three
  // entries, preserving the old behaviour for interleaved reads.
  ValueReadLog log;
  Word a = 1, b = 2;
  log.push(&a, 1);
  log.push(&b, 2);
  log.push(&a, 1);
  EXPECT_EQ(log.size(), 3u);
}

TEST(OrecReadLogTest, OnlyAdjacentRepeatsCollapse) {
  // A tight re-read loop of one stripe logs it once; a stripe read again
  // after another one is logged again, as ValueReadLog does.
  OrecTable table(64);
  Orec* a = &table.at(0);
  Orec* b = &table.at(1);
  OrecReadLog log;
  for (int i = 0; i < 5000; ++i) log.push(a);
  EXPECT_EQ(log.size(), 1u);
  log.push(b);
  log.push(a);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.entries()[0], a);
  EXPECT_EQ(log.entries()[1], b);
  EXPECT_EQ(log.entries()[2], a);
  log.clear();
  EXPECT_TRUE(log.empty());
}

TEST(ShrinkHysteresisTest, ShrinksOnlyAfterSustainedLowUse) {
  std::vector<int> v;
  unsigned clears = 0;
  v.reserve(kLogShrinkCapacity * 8);
  const std::size_t big_cap = v.capacity();
  ASSERT_GT(big_cap, kLogShrinkCapacity);

  // One small transaction after a big one must NOT shrink (hysteresis).
  EXPECT_FALSE(maybe_shrink_log(v, /*last_used=*/4, clears));
  EXPECT_EQ(v.capacity(), big_cap);

  // An intervening big transaction resets the countdown.
  for (unsigned i = 0; i < kLogShrinkClears / 2; ++i) {
    EXPECT_FALSE(maybe_shrink_log(v, 4, clears));
  }
  EXPECT_FALSE(maybe_shrink_log(v, big_cap / 2, clears));  // high use
  for (unsigned i = 0; i < kLogShrinkClears - 1; ++i) {
    EXPECT_FALSE(maybe_shrink_log(v, 4, clears));
    EXPECT_EQ(v.capacity(), big_cap);
  }
  // The kLogShrinkClears-th consecutive low-use clear finally releases.
  EXPECT_TRUE(maybe_shrink_log(v, 4, clears));
  EXPECT_LT(v.capacity(), big_cap);
  EXPECT_GE(v.capacity(), kLogShrinkCapacity);
}

TEST(ShrinkHysteresisTest, ModestCapacityNeverShrinks) {
  std::vector<int> v;
  unsigned clears = 0;
  v.reserve(kLogShrinkCapacity / 2);
  const std::size_t cap = v.capacity();
  for (unsigned i = 0; i < kLogShrinkClears * 2; ++i) {
    EXPECT_FALSE(maybe_shrink_log(v, 0, clears));
  }
  EXPECT_EQ(v.capacity(), cap);
}

TEST(ShrinkHysteresisTest, WriteSetShrinkKeepsIndexConsistent) {
  WriteSet ws;
  std::vector<Word> words(kLogShrinkCapacity * 4);
  for (std::size_t i = 0; i < words.size(); ++i) ws.insert(&words[i], i);
  ws.clear();
  for (unsigned c = 0; c < kLogShrinkClears + 2; ++c) {
    ws.insert(&words[0], c);
    ws.clear();
  }
  // Post-shrink the index was rebuilt at its initial size; inserts and
  // lookups must still behave.
  for (std::size_t i = 0; i < 64; ++i) ws.insert(&words[i], i + 1);
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_NE(ws.lookup(&words[i]), nullptr);
    EXPECT_EQ(*ws.lookup(&words[i]), i + 1);
  }
}

}  // namespace
}  // namespace votm::stm
