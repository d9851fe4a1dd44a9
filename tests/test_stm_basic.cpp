// Single-threaded behavioural tests of each STM engine: commit visibility,
// read-after-write, rollback on abort, read-only commits, write-set
// semantics, orec packing, log structures.
#include <gtest/gtest.h>

#include <memory>

#include "stm/access.hpp"
#include "stm/cgl.hpp"
#include "stm/factory.hpp"
#include "stm/logs.hpp"
#include "stm/norec.hpp"
#include "stm/orec_eager_redo.hpp"
#include "stm/orec_eager_undo.hpp"
#include "stm/orec_lazy.hpp"
#include "stm/orec_table.hpp"
#include "stm/tml.hpp"

namespace votm::stm {
namespace {

class StmBasic : public ::testing::TestWithParam<Algo> {
 protected:
  void SetUp() override { engine_ = make_engine(GetParam()); }
  std::unique_ptr<TxEngine> engine_;
  TxThread tx_;
};

TEST_P(StmBasic, CommitPublishesWrites) {
  Word data[4] = {0, 0, 0, 0};
  atomically(*engine_, tx_, [&](TxThread& tx) {
    engine_->write(tx, &data[0], 11);
    engine_->write(tx, &data[2], 22);
  });
  EXPECT_EQ(data[0], 11u);
  EXPECT_EQ(data[1], 0u);
  EXPECT_EQ(data[2], 22u);
}

TEST_P(StmBasic, ReadSeesPriorCommit) {
  Word cell = 123;
  Word seen = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) { seen = engine_->read(tx, &cell); });
  EXPECT_EQ(seen, 123u);
}

TEST_P(StmBasic, ReadAfterWriteReturnsBufferedValue) {
  Word cell = 1;
  Word seen = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) {
    engine_->write(tx, &cell, 77);
    seen = engine_->read(tx, &cell);
  });
  EXPECT_EQ(seen, 77u);
  EXPECT_EQ(cell, 77u);
}

TEST_P(StmBasic, OverwriteKeepsLastValue) {
  Word cell = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) {
    for (Word v = 1; v <= 10; ++v) engine_->write(tx, &cell, v);
  });
  EXPECT_EQ(cell, 10u);
}

TEST_P(StmBasic, UserExceptionRollsBack) {
  if (!engine_->speculative()) GTEST_SKIP() << "CGL writes in place";
  if (GetParam() == Algo::kTml) GTEST_SKIP() << "TML writers are irrevocable";
  Word cell = 5;
  struct Boom {};
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& tx) {
                            engine_->write(tx, &cell, 99);
                            throw Boom{};
                          }),
               Boom);
  EXPECT_EQ(cell, 5u);  // speculative write never published
  EXPECT_FALSE(tx_.in_tx);
}

TEST_P(StmBasic, ReadOnlyTransactionCommits) {
  Word cell = 42;
  tx_.read_only = true;
  Word seen = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) { seen = engine_->read(tx, &cell); });
  tx_.read_only = false;
  EXPECT_EQ(seen, 42u);
}

TEST_P(StmBasic, WriteInReadOnlyTransactionIsMisuse) {
  Word cell = 1;
  tx_.read_only = true;
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& tx) { engine_->write(tx, &cell, 2); }),
               std::logic_error);
  tx_.read_only = false;
  EXPECT_EQ(cell, 1u);
  EXPECT_FALSE(tx_.in_tx);
}

TEST_P(StmBasic, SequentialTransactionsAccumulate) {
  Word counter = 0;
  for (int i = 0; i < 100; ++i) {
    atomically(*engine_, tx_, [&](TxThread& tx) {
      engine_->write(tx, &counter, engine_->read(tx, &counter) + 1);
    });
  }
  EXPECT_EQ(counter, 100u);
}

TEST_P(StmBasic, ManyDistinctWritesInOneTransaction) {
  constexpr int kWords = 500;  // exceeds the write-set growth threshold
  std::vector<Word> data(kWords, 0);
  atomically(*engine_, tx_, [&](TxThread& tx) {
    for (int i = 0; i < kWords; ++i) {
      engine_->write(tx, &data[i], static_cast<Word>(i + 1));
    }
  });
  for (int i = 0; i < kWords; ++i) EXPECT_EQ(data[i], static_cast<Word>(i + 1));
}

TEST_P(StmBasic, StatsAccumulateCommits) {
  StripedEpochStats stats;
  tx_.stats = &stats;
  Word cell = 0;
  for (int i = 0; i < 5; ++i) {
    atomically(*engine_, tx_, [&](TxThread& tx) { engine_->write(tx, &cell, 1); });
  }
  tx_.stats = nullptr;
  const StatsSnapshot total = stats.fold();
  EXPECT_EQ(total.commits, 5u);
  EXPECT_EQ(total.aborts, 0u);
  EXPECT_GT(total.committed_cycles, 0u);
}

// ---- read-for-write (the TM ABI's RfW barrier) -----------------------------

bool locks_at_encounter(Algo algo) {
  return algo == Algo::kOrecEagerRedo || algo == Algo::kOrecEagerUndo;
}

TEST_P(StmBasic, ReadForWriteReturnsValueAndCommitPublishes) {
  Word cell = 5;
  Word seen = 0;
  std::size_t locks = 99;
  atomically(*engine_, tx_, [&](TxThread& tx) {
    seen = engine_->read_for_write(tx, &cell);
    locks = tx.wlocks.size();
    engine_->write(tx, &cell, seen + 1);
  });
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(cell, 6u);
  // Only the encounter-time engines lock at RfW; the rest read as read()
  // does (NOrec, TML and OrecLazy lock later, CGL holds its mutex).
  EXPECT_EQ(locks, locks_at_encounter(GetParam()) ? 1u : 0u);
}

TEST_P(StmBasic, ReadForWriteSeesOwnEarlierWrite) {
  Word cell = 1;
  Word seen = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) {
    engine_->write(tx, &cell, 9);
    seen = engine_->read_for_write(tx, &cell);
  });
  EXPECT_EQ(seen, 9u);
  EXPECT_EQ(cell, 9u);
}

TEST_P(StmBasic, ReadForWriteInReadOnlyTransactionIsMisuse) {
  Word cell = 1;
  tx_.read_only = true;
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& tx) {
                            engine_->read_for_write(tx, &cell);
                          }),
               std::logic_error);
  tx_.read_only = false;
  EXPECT_EQ(cell, 1u);
  EXPECT_FALSE(tx_.in_tx);
  EXPECT_TRUE(tx_.wlocks.empty());
}

TEST_P(StmBasic, ReadForWriteRollsBackWithTheTransaction) {
  if (!engine_->speculative()) GTEST_SKIP() << "CGL writes in place";
  if (GetParam() == Algo::kTml) GTEST_SKIP() << "TML writers are irrevocable";
  Word cell = 5;
  struct Boom {};
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& tx) {
                            const Word v = engine_->read_for_write(tx, &cell);
                            engine_->write(tx, &cell, v + 10);
                            throw Boom{};
                          }),
               Boom);
  EXPECT_EQ(cell, 5u);
  // A later transaction takes the word again: nothing was left locked.
  atomically(*engine_, tx_, [&](TxThread& tx) {
    engine_->write(tx, &cell, engine_->read_for_write(tx, &cell) + 1);
  });
  EXPECT_EQ(cell, 6u);
}

TEST_P(StmBasic, ReadForWriteInSerialModeIsAPlainLoad) {
  Word cell = 3;
  engine_->begin_serial(tx_);
  const Word seen = engine_->read_for_write(tx_, &cell);
  const std::size_t locks = tx_.wlocks.size();
  const std::size_t reads = tx_.rlog.size() + tx_.vlog.size();
  engine_->write(tx_, &cell, seen * 2);
  engine_->end_serial(tx_);
  end_common(tx_);
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(locks, 0u);
  EXPECT_EQ(reads, 0u);
  EXPECT_EQ(cell, 6u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StmBasic,
                         ::testing::Values(Algo::kNOrec, Algo::kOrecEagerRedo,
                                           Algo::kOrecLazy,
                                           Algo::kOrecEagerUndo, Algo::kTml,
                                           Algo::kCgl),
                         [](const auto& info) { return to_string(info.param); });

TEST(WriteSetTest, InsertLookupOverwrite) {
  WriteSet ws;
  Word a = 0, b = 0;
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.lookup(&a), nullptr);
  ws.insert(&a, 1);
  ws.insert(&b, 2);
  ws.insert(&a, 3);
  ASSERT_NE(ws.lookup(&a), nullptr);
  EXPECT_EQ(*ws.lookup(&a), 3u);
  EXPECT_EQ(*ws.lookup(&b), 2u);
  EXPECT_EQ(ws.size(), 2u);
}

TEST(WriteSetTest, ClearKeepsCapacityAndEmpties) {
  WriteSet ws;
  std::vector<Word> cells(100);
  for (auto& c : cells) ws.insert(&c, 1);
  ws.clear();
  EXPECT_TRUE(ws.empty());
  for (auto& c : cells) EXPECT_EQ(ws.lookup(&c), nullptr);
}

TEST(WriteSetTest, GrowthPreservesEntries) {
  WriteSet ws;
  std::vector<Word> cells(1000);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ws.insert(&cells[i], static_cast<Word>(i));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_NE(ws.lookup(&cells[i]), nullptr);
    EXPECT_EQ(*ws.lookup(&cells[i]), static_cast<Word>(i));
  }
  // Insertion order is preserved for write-back.
  const auto& entries = ws.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].addr, &cells[i]);
  }
}

TEST(ValueReadLogTest, DetectsChangedValue) {
  ValueReadLog log;
  Word cell = 7;
  log.push(&cell, 7);
  EXPECT_TRUE(log.values_match());
  cell = 8;
  EXPECT_FALSE(log.values_match());
}

TEST(OrecTest, PackUnpackRoundTrip) {
  EXPECT_FALSE(Orec::is_locked(Orec::pack_version(41)));
  EXPECT_EQ(Orec::version_of(Orec::pack_version(41)), 41u);
  TxThread tx;
  const auto locked = Orec::pack_owner(&tx);
  EXPECT_TRUE(Orec::is_locked(locked));
  EXPECT_EQ(Orec::owner_of(locked), &tx);
}

TEST(OrecTableTest, SameAddressSameOrec) {
  OrecTable table(1024);
  Word cell = 0;
  EXPECT_EQ(&table.for_address(&cell), &table.for_address(&cell));
}

TEST(OrecTableTest, RejectsNonPowerOfTwo) {
  EXPECT_THROW(OrecTable(1000), std::invalid_argument);
  EXPECT_THROW(OrecTable(0), std::invalid_argument);
}

TEST(OrecTableTest, SpreadsAddresses) {
  OrecTable table(4096);
  std::vector<Word> cells(2048);
  std::set<const Orec*> used;
  for (const auto& c : cells) used.insert(&table.for_address(&c));
  // The direct map gives 2048 consecutive words 2048 distinct orecs of
  // 4096; a constant map would collapse to 1.
  EXPECT_EQ(used.size(), 2048u);
}

TEST(FactoryTest, NamesRoundTrip) {
  for (Algo algo : {Algo::kNOrec, Algo::kOrecEagerRedo, Algo::kOrecLazy,
                    Algo::kTml, Algo::kCgl}) {
    EXPECT_EQ(algo_from_string(to_string(algo)), algo);
  }
  EXPECT_EQ(algo_from_string("oer"), Algo::kOrecEagerRedo);
  EXPECT_EQ(algo_from_string("lazy"), Algo::kOrecLazy);
  EXPECT_EQ(algo_from_string("lock"), Algo::kCgl);
  EXPECT_THROW(algo_from_string("bogus"), std::invalid_argument);
}

TEST(OrecLazyTest, AliasedWritesCommitThroughOneOrec) {
  // Two addresses hashing to the same orec must not deadlock the lazy
  // commit-time acquisition (second acquisition sees "locked by me").
  EngineConfig config;
  config.orec_table_size = 1;  // every address aliases the single orec
  auto engine = make_engine(Algo::kOrecLazy, config);
  TxThread tx;
  Word a = 0, b = 0;
  atomically(*engine, tx, [&](TxThread& t) {
    engine->write(t, &a, 1);
    engine->write(t, &b, 2);
  });
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
}

TEST(OrecEagerTest, AliasedWritesLockOnce) {
  EngineConfig config;
  config.orec_table_size = 1;
  auto engine = make_engine(Algo::kOrecEagerRedo, config);
  TxThread tx;
  Word a = 0, b = 0;
  atomically(*engine, tx, [&](TxThread& t) {
    engine->write(t, &a, 1);
    engine->write(t, &b, 2);   // same orec, already owned
    EXPECT_EQ(engine->read(t, &a), 1u);
    EXPECT_EQ(engine->read(t, &b), 2u);
  });
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
}

TEST(OrecEagerTest, ReadOnePeriodAwayFromAnOwnedOrecSeesMemory) {
  // At the default table, a word 512 KiB past a written one shares its
  // orec (the direct map's aliasing period). Reading it after the write
  // finds the orec locked by this transaction but the word absent from
  // the redo log: the read must return memory's value without logging,
  // and the commit must leave that word untouched.
  constexpr std::size_t kPeriodWords =
      (OrecTable::kDefaultSize << OrecTable::kDefaultGranularityShift) /
      sizeof(Word);
  std::vector<Word> heap(kPeriodWords + 1, 0);
  Word* const a = &heap[0];
  Word* const far = &heap[kPeriodWords];
  *far = 0xFA12;
  const OrecTable table;
  ASSERT_EQ(table.index_for(a), table.index_for(far));
  auto engine = make_engine(Algo::kOrecEagerRedo);
  StripedEpochStats stats;
  TxThread tx;
  tx.stats = &stats;
  Word seen = 0;
  std::size_t logged = 1;
  atomically(*engine, tx, [&](TxThread& t) {
    engine->write(t, a, 7);
    seen = engine->read(t, far);
    logged = t.rlog.size();
  });
  tx.stats = nullptr;
  EXPECT_EQ(seen, 0xFA12u);
  EXPECT_EQ(logged, 0u);
  EXPECT_EQ(*a, 7u);
  EXPECT_EQ(*far, 0xFA12u);
  const StatsSnapshot total = stats.fold();
  EXPECT_EQ(total.commits, 1u);
  EXPECT_EQ(total.aborts, 0u);
}

// The orec table and the clock of one of the three orec engines.
OrecTable& orecs_of(TxEngine& engine) {
  if (auto* e = dynamic_cast<OrecEagerRedoEngine*>(&engine)) {
    return e->orec_table();
  }
  if (auto* e = dynamic_cast<OrecEagerUndoEngine*>(&engine)) {
    return e->orec_table();
  }
  return dynamic_cast<OrecLazyEngine&>(engine).orec_table();
}

std::uint64_t clock_of(const TxEngine& engine) {
  if (auto* e = dynamic_cast<const OrecEagerRedoEngine*>(&engine)) {
    return e->clock();
  }
  if (auto* e = dynamic_cast<const OrecEagerUndoEngine*>(&engine)) {
    return e->clock();
  }
  return dynamic_cast<const OrecLazyEngine&>(engine).clock();
}

// The encounter-time engines' RfW: the orec is taken at the read, the
// read is not logged, and rollback/commit treat the orec as a write lock.
class RfwEager : public ::testing::TestWithParam<Algo> {
 protected:
  void SetUp() override { engine_ = make_engine(GetParam()); }
  OrecTable& orecs() { return orecs_of(*engine_); }
  std::unique_ptr<TxEngine> engine_;
  TxThread tx_;
};

TEST_P(RfwEager, TakesTheOrecAndLogsNoRead) {
  Word cell = 40;
  Orec& o = orecs().for_address(&cell);
  atomically(*engine_, tx_, [&](TxThread& tx) {
    EXPECT_EQ(engine_->read_for_write(tx, &cell), 40u);
    const Orec::Packed p = o.load();
    EXPECT_TRUE(Orec::is_locked(p));
    EXPECT_EQ(Orec::owner_of(p), &tx);
    EXPECT_EQ(tx.wlocks.size(), 1u);
    EXPECT_TRUE(tx.rlog.empty());
    EXPECT_TRUE(tx.wset.empty());
    EXPECT_TRUE(tx.vlog.empty());
  });
  EXPECT_FALSE(Orec::is_locked(o.load()));
}

TEST_P(RfwEager, LaterWriteDoesNotRelockAndUndoStillLogs) {
  Word cell = 40;
  atomically(*engine_, tx_, [&](TxThread& tx) {
    const Word v = engine_->read_for_write(tx, &cell);
    engine_->write(tx, &cell, v + 2);
    EXPECT_EQ(tx.wlocks.size(), 1u);
    if (GetParam() == Algo::kOrecEagerUndo) {
      // Write-through: the old value is undo-logged at the write, since
      // RfW logged nothing.
      ASSERT_EQ(tx.vlog.size(), 1u);
      EXPECT_EQ(tx.vlog.entries()[0].value, 40u);
      EXPECT_EQ(cell, 42u);
    } else {
      EXPECT_EQ(tx.wset.size(), 1u);
      EXPECT_EQ(cell, 40u);  // redo: memory waits for commit
    }
    EXPECT_EQ(engine_->read_for_write(tx, &cell), 42u);
    EXPECT_EQ(tx.wlocks.size(), 1u);
  });
  EXPECT_EQ(cell, 42u);
}

TEST_P(RfwEager, RollbackRestoresThePreLockVersion) {
  Word cell = 1;
  Orec& o = orecs().for_address(&cell);
  atomically(*engine_, tx_, [&](TxThread& tx) { engine_->write(tx, &cell, 2); });
  const Orec::Packed committed = o.load();
  ASSERT_FALSE(Orec::is_locked(committed));
  ASSERT_GT(Orec::version_of(committed), 0u);
  struct Boom {};
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& tx) {
                            const Word v = engine_->read_for_write(tx, &cell);
                            engine_->write(tx, &cell, v + 5);
                            throw Boom{};
                          }),
               Boom);
  EXPECT_EQ(o.load(), committed);
  EXPECT_EQ(cell, 2u);
}

TEST_P(RfwEager, CommitPublishesANewVersion) {
  Word cell = 1;
  Orec& o = orecs().for_address(&cell);
  const std::uint64_t before = Orec::version_of(o.load());
  // An RfW with no write still commits as a writer: the orec was a write
  // lock, and its release publishes a new version over unchanged memory.
  atomically(*engine_, tx_,
             [&](TxThread& tx) { engine_->read_for_write(tx, &cell); });
  const Orec::Packed p = o.load();
  EXPECT_FALSE(Orec::is_locked(p));
  EXPECT_GT(Orec::version_of(p), before);
  EXPECT_EQ(cell, 1u);
}

TEST_P(RfwEager, ForeignLockTimesOutAsWriteLocked) {
  // Another transaction holds the word and never finishes: the first-touch
  // wait is bounded, and its timeout is the ordinary write-lock abort.
  Word cell = 7;
  TxThread holder;
  engine_->begin(holder);
  engine_->write(holder, &cell, 8);
  engine_->begin(tx_);
  ConflictKind kind = ConflictKind::kExplicit;
  try {
    engine_->read_for_write(tx_, &cell);
    ADD_FAILURE() << "read_for_write returned under a foreign lock";
  } catch (const TxConflict& c) {
    kind = c.kind;
  }
  EXPECT_EQ(kind, ConflictKind::kWriteLocked);
  EXPECT_FALSE(tx_.in_tx);
  EXPECT_TRUE(tx_.wlocks.empty());
  engine_->commit(holder);
  EXPECT_EQ(cell, 8u);
}

// The orec engines' shared snapshot rules (stm/orec_snapshot.hpp): under
// GV1 an extension with an empty read log adopts the version it met, and
// an orec the transaction holds is not read again.

// Two peer commits after a transaction began: the first moves `a`'s orec
// to a new version v, the second moves the clock past it. Returns v.
std::uint64_t commit_a_then_b(TxEngine& engine, Word* a, Word* b) {
  TxThread peer;
  atomically(engine, peer, [&](TxThread& t) { engine.write(t, a, 5); });
  atomically(engine, peer, [&](TxThread& t) { engine.write(t, b, 6); });
  return Orec::version_of(orecs_of(engine).for_address(a).load());
}

TEST_P(RfwEager, FirstTouchAdoptsTheVersionItMet) {
  Word a = 1, b = 2;
  engine_->begin(tx_);
  const std::uint64_t v = commit_a_then_b(*engine_, &a, &b);
  ASSERT_EQ(clock_of(*engine_), v + 1);
  EXPECT_EQ(engine_->read_for_write(tx_, &a), 5u);
  EXPECT_EQ(tx_.start_time, v);
  engine_->write(tx_, &a, 7);
  engine_->commit(tx_);
  end_common(tx_);
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 6u);
  EXPECT_EQ(clock_of(*engine_), v + 2);
}

TEST_P(RfwEager, FirstReadAdoptsTheVersionItMet) {
  Word a = 1, b = 2, c = 3;
  engine_->begin(tx_);
  const std::uint64_t v = commit_a_then_b(*engine_, &a, &b);
  EXPECT_EQ(engine_->read(tx_, &a), 5u);
  EXPECT_EQ(tx_.start_time, v);
  engine_->write(tx_, &c, 8);
  engine_->commit(tx_);
  end_common(tx_);
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(c, 8u);
}

TEST_P(RfwEager, LoggedReadStillValidatesToTheClock) {
  Word a = 1, b = 2, c = 3;
  engine_->begin(tx_);
  EXPECT_EQ(engine_->read(tx_, &c), 3u);
  ASSERT_FALSE(tx_.rlog.empty());
  commit_a_then_b(*engine_, &a, &b);
  EXPECT_EQ(engine_->read_for_write(tx_, &a), 5u);
  EXPECT_EQ(tx_.start_time, clock_of(*engine_));
  engine_->write(tx_, &a, 9);
  engine_->commit(tx_);
  end_common(tx_);
  EXPECT_EQ(a, 9u);
}

TEST_P(RfwEager, ChangedLoggedReadStillAborts) {
  Word a = 1, b = 2;
  engine_->begin(tx_);
  EXPECT_EQ(engine_->read(tx_, &b), 2u);
  commit_a_then_b(*engine_, &a, &b);  // b's orec moves past the snapshot
  ConflictKind kind = ConflictKind::kExplicit;
  try {
    engine_->read_for_write(tx_, &a);
    ADD_FAILURE() << "extension validated a changed read";
  } catch (const TxConflict& c) {
    kind = c.kind;
  }
  EXPECT_EQ(kind, ConflictKind::kValidationFail);
  EXPECT_FALSE(tx_.in_tx);
}

TEST_P(RfwEager, OtherClocksExtendThroughExtensionBound) {
  // GV5 and GV6 may publish versions ahead of the global clock, so only
  // GV1 adopts the version it met; the others read the clock through
  // extension_bound(), which lands on the second peer commit here.
  for (const ClockPolicy policy :
       {ClockPolicy::kGv4, ClockPolicy::kGv5, ClockPolicy::kGv6}) {
    EngineConfig config;
    config.clock_policy = policy;
    auto engine = make_engine(GetParam(), config);
    TxThread tx;
    Word a = 1, b = 2;
    engine->begin(tx);
    const std::uint64_t v = commit_a_then_b(*engine, &a, &b);
    EXPECT_EQ(engine->read_for_write(tx, &a), 5u) << to_string(policy);
    EXPECT_GT(tx.start_time, v) << to_string(policy);
    EXPECT_EQ(tx.start_time, clock_of(*engine)) << to_string(policy);
    engine->write(tx, &a, 7);
    engine->commit(tx);
    end_common(tx);
    EXPECT_EQ(a, 7u) << to_string(policy);
  }
}

TEST_P(RfwEager, WriteAfterRfwKeepsOneLock) {
  Word a = 1, b = 2;
  atomically(*engine_, tx_, [&](TxThread& tx) {
    const Word v = engine_->read_for_write(tx, &a);
    engine_->write(tx, &a, v + 1);
    EXPECT_EQ(tx.wlocks.size(), 1u);
    // An orec taken before the last one is found through its owner word.
    engine_->write(tx, &b, 4);
    engine_->write(tx, &a, v + 2);
    EXPECT_EQ(tx.wlocks.size(), 2u);
  });
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 4u);
}

INSTANTIATE_TEST_SUITE_P(EncounterTime, RfwEager,
                         ::testing::Values(Algo::kOrecEagerRedo,
                                           Algo::kOrecEagerUndo),
                         [](const auto& info) { return to_string(info.param); });

TEST(OrecLazyTest, EmptyLogReadAdoptsTheVersionItMet) {
  auto engine = make_engine(Algo::kOrecLazy);
  TxThread tx;
  Word a = 1, b = 2, c = 3;
  engine->begin(tx);
  const std::uint64_t v = commit_a_then_b(*engine, &a, &b);
  EXPECT_EQ(engine->read(tx, &a), 5u);
  EXPECT_EQ(tx.start_time, v);
  // The read is logged now, so the next extension validates it and moves
  // the snapshot to the clock.
  engine->write(tx, &c, 8);
  TxThread peer;
  atomically(*engine, peer, [&](TxThread& t) { engine->write(t, &b, 9); });
  EXPECT_EQ(engine->read(tx, &b), 9u);
  EXPECT_EQ(tx.start_time, clock_of(*engine));
  engine->commit(tx);
  end_common(tx);
  EXPECT_EQ(c, 8u);
}

TEST(FactoryTest, EngineNamesMatch) {
  EXPECT_STREQ(make_engine(Algo::kNOrec)->name(), "NOrec");
  EXPECT_STREQ(make_engine(Algo::kOrecEagerRedo)->name(), "OrecEagerRedo");
  EXPECT_STREQ(make_engine(Algo::kTml)->name(), "TML");
  EXPECT_STREQ(make_engine(Algo::kCgl)->name(), "CGL");
  EXPECT_FALSE(make_engine(Algo::kCgl)->speculative());
  EXPECT_TRUE(make_engine(Algo::kNOrec)->speculative());
}

}  // namespace
}  // namespace votm::stm
