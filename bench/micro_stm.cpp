// Microbenchmarks of raw STM primitive costs per algorithm: read-only
// transactions, write transactions, read-modify-write, and read-after-write
// lookups. Single-threaded — these numbers isolate instrumentation
// overhead (the thing RAC's Q = 1 lock mode removes) from contention.
// BM_LockModeRead prices what lock mode leaves of it: a vread against the
// plain load it ends in.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/access.hpp"
#include "core/view.hpp"
#include "stm/factory.hpp"

namespace {

using namespace votm::stm;

Algo algo_of(const benchmark::State& state) {
  return static_cast<Algo>(state.range(0));
}

void set_label(benchmark::State& state) {
  state.SetLabel(to_string(algo_of(state)));
}

void BM_ReadOnlyTx(benchmark::State& state) {
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  std::vector<Word> data(1024, 7);
  const auto reads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    Word acc = 0;
    atomically(*engine, tx, [&](TxThread& t) {
      for (std::size_t i = 0; i < reads; ++i) {
        acc += engine->read(t, &data[i * 37 % data.size()]);
      }
    });
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reads));
  set_label(state);
}
BENCHMARK(BM_ReadOnlyTx)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {1, 16, 100}})
    ->ArgNames({"algo", "reads"});

void BM_WriteTx(benchmark::State& state) {
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  std::vector<Word> data(1024, 0);
  const auto writes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    atomically(*engine, tx, [&](TxThread& t) {
      for (std::size_t i = 0; i < writes; ++i) {
        engine->write(t, &data[i * 61 % data.size()], i);
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(writes));
  set_label(state);
}
BENCHMARK(BM_WriteTx)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {1, 20}})
    ->ArgNames({"algo", "writes"});

void BM_ReadModifyWrite(benchmark::State& state) {
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  Word cell = 0;
  for (auto _ : state) {
    atomically(*engine, tx, [&](TxThread& t) {
      engine->write(t, &cell, engine->read(t, &cell) + 1);
    });
  }
  set_label(state);
}
BENCHMARK(BM_ReadModifyWrite)->DenseRange(0, 5)->ArgName("algo");

void BM_ReadAfterWrite(benchmark::State& state) {
  // Stresses the write-set lookup path: every read hits the redo log.
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  std::vector<Word> data(64, 0);
  for (auto _ : state) {
    Word acc = 0;
    atomically(*engine, tx, [&](TxThread& t) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        engine->write(t, &data[i], i);
      }
      for (std::size_t i = 0; i < data.size(); ++i) {
        acc += engine->read(t, &data[i]);
      }
    });
    benchmark::DoNotOptimize(acc);
  }
  set_label(state);
}
BENCHMARK(BM_ReadAfterWrite)->DenseRange(0, 5)->ArgName("algo");

void BM_WriteSetLookupMiss(benchmark::State& state) {
  // Reads with a populated but non-matching write set: every read probes
  // the write-set index and misses.
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  std::vector<Word> written(32, 0), read_only(1024, 1);
  for (auto _ : state) {
    Word acc = 0;
    atomically(*engine, tx, [&](TxThread& t) {
      for (std::size_t i = 0; i < written.size(); ++i) {
        engine->write(t, &written[i], i);
      }
      for (std::size_t i = 0; i < 256; ++i) {
        acc += engine->read(t, &read_only[i * 3 % read_only.size()]);
      }
    });
    benchmark::DoNotOptimize(acc);
  }
  set_label(state);
}
BENCHMARK(BM_WriteSetLookupMiss)->DenseRange(0, 1)->ArgName("algo");

void BM_LockModeRead(benchmark::State& state) {
  // 100 reads of the same words per iteration, all inside one View::execute
  // at a fixed Q = 1, so the admission and begin/commit stay out of the
  // timed loop: vread (the barrier byte, one branch, then load_word) vs
  // load_word alone. ROADMAP item 2 asks for at most 1.5x.
  votm::core::ViewConfig vc;
  vc.algo = Algo::kOrecEagerRedo;
  vc.rac = votm::core::RacMode::kFixed;
  vc.fixed_quota = 1;
  votm::core::View view(vc);
  constexpr std::size_t kReads = 100;
  auto* words = static_cast<Word*>(view.alloc(kReads * sizeof(Word)));
  for (std::size_t i = 0; i < kReads; ++i) words[i] = i;
  const bool barrier = state.range(0) != 0;
  view.execute([&] {
    for (auto _ : state) {
      Word acc = 0;
      if (barrier) {
        for (std::size_t i = 0; i < kReads; ++i) {
          acc += votm::core::vread(&words[i]);
        }
      } else {
        for (std::size_t i = 0; i < kReads; ++i) acc += load_word(&words[i]);
      }
      benchmark::DoNotOptimize(acc);
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReads));
  state.SetLabel(barrier ? "vread" : "load_word");
}
BENCHMARK(BM_LockModeRead)->DenseRange(0, 1)->ArgName("barrier");

}  // namespace

BENCHMARK_MAIN();
