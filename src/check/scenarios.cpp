#include "check/scenarios.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "check/fault.hpp"
#include "core/access.hpp"
#include "core/view.hpp"
#include "rac/admission.hpp"
#include "util/rng.hpp"
#include "util/thread_ordinal.hpp"

namespace votm::check {

namespace {

// Expands (scenario seed, thread, tx index) into an attempt-stable stream
// seed: every retry of the same logical transaction replays the identical
// op sequence, so the workload is a function of the schedule alone.
std::uint64_t stream_seed(std::uint64_t seed, unsigned thread, unsigned tx) {
  SplitMix64 sm(seed ^ (std::uint64_t{thread} * 0x9e3779b97f4a7c15ULL) ^
                (std::uint64_t{tx} * 0xc2b2ae3d27d4eb4fULL));
  return sm.next();
}

// First-violation-wins sink, safe in the free-run fallback.
class ViolationSink {
 public:
  void note(std::string what) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!violation_) violation_ = Violation{std::move(what)};
  }
  void note(std::optional<Violation> v) {
    if (v) note(std::move(v->what));
  }
  std::optional<Violation> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(violation_);
  }

 private:
  std::mutex mu_;
  std::optional<Violation> violation_;
};

// Commit epilogue mirroring stm::atomically (the scenarios drive engines
// directly so each attempt can be recorded).
void finish_commit(stm::TxThread& tx) {
  tx.last_tx_cycles = stm::tx_elapsed_cycles(tx);
  stm::end_common(tx);
  tx.consecutive_aborts = 0;
  tx.backoff.reset();
  tx.cm.end_run();  // victim-choice priority ends with the run (§20)
}

// Per-attempt own-write tracking: a read satisfied from the transaction's
// own write set must return exactly the value it wrote, checked right here
// at record time (the oracle only reasons about shared reads).
class OwnWrites {
 public:
  void put(unsigned var, stm::Word value) {
    for (auto& [v, val] : vals_) {
      if (v == var) {
        val = value;
        return;
      }
    }
    vals_.emplace_back(var, value);
  }
  const stm::Word* find(unsigned var) const {
    for (const auto& [v, val] : vals_) {
      if (v == var) return &val;
    }
    return nullptr;
  }
  void clear() { vals_.clear(); }

 private:
  std::vector<std::pair<unsigned, stm::Word>> vals_;
};

}  // namespace

// ---------------------------------------------------------------------------
// StmRandomScenario
// ---------------------------------------------------------------------------

std::string StmRandomScenario::name() const {
  std::ostringstream os;
  os << "stm-random/" << stm::to_string(cfg_.algo) << "/t" << cfg_.threads
     << "v" << cfg_.vars << "x" << cfg_.txs_per_thread << "o"
     << cfg_.ops_per_tx << "w" << cfg_.write_pct;
  if (cfg_.reread_pct != 0) os << "d" << cfg_.reread_pct;
  if (cfg_.clock_policy != stm::ClockPolicy::kGv1) {
    os << "/" << stm::to_string(cfg_.clock_policy);
  }
  if (cfg_.orec_granularity_shift != stm::OrecTable::kDefaultGranularityShift) {
    os << "+g" << cfg_.orec_granularity_shift;
  }
  if (cfg_.contention_mode != stm::ContentionMode::kAbortRetry) os << "+wait";
  if (cfg_.cm_policy != stm::CmPolicy::kAbortSelf) {
    os << "+" << stm::to_string(cfg_.cm_policy);
  }
  os << "s" << cfg_.workload_seed;
  return os.str();
}

Scenario::Outcome StmRandomScenario::run_once(const SchedOptions& opts) {
  stm::EngineConfig engine_cfg;
  engine_cfg.clock_policy = cfg_.clock_policy;
  engine_cfg.orec_granularity_shift = cfg_.orec_granularity_shift;
  engine_cfg.contention_mode = cfg_.contention_mode;
  engine_cfg.cm_policy = cfg_.cm_policy;
  auto engine = stm::make_engine(cfg_.algo, engine_cfg);
  std::vector<stm::Word> mem(cfg_.vars, 0);
  const std::vector<stm::Word> initial = mem;
  HistoryRecorder rec(cfg_.threads);
  ViolationSink sink;

  CoopScheduler sched(cfg_.threads, opts);
  SchedResult res = sched.run([&](unsigned t) {
    stm::TxThread tx;
    OwnWrites own;
    for (unsigned j = 0; j < cfg_.txs_per_thread; ++j) {
      for (unsigned attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
        Xoshiro256 rng(stream_seed(cfg_.workload_seed, t, j));
        own.clear();
        rec.begin(t);
        tx.read_only = false;
        engine->begin(tx);
        try {
          unsigned prev_var = 0;
          for (unsigned op = 0; op < cfg_.ops_per_tx; ++op) {
            // The extra rng draw is gated so reread_pct == 0 replays the
            // exact legacy op stream (seed-stable schedules).
            const unsigned var =
                (cfg_.reread_pct != 0 && op != 0 &&
                 rng.below(100) < cfg_.reread_pct)
                    ? prev_var
                    : static_cast<unsigned>(rng.below(cfg_.vars));
            prev_var = var;
            if (rng.below(100) < cfg_.write_pct) {
              // Unique over (thread, tx, attempt, op) and never the
              // initial 0, so snapshot matching is unambiguous.
              const stm::Word value = (stm::Word{t + 1} << 48) |
                                      (stm::Word{j + 1} << 32) |
                                      (stm::Word{attempt} << 8) | (op + 1);
              engine->write(tx, &mem[var], value);
              rec.write(t, var, value);
              own.put(var, value);
            } else {
              const stm::Word seen = engine->read(tx, &mem[var]);
              const stm::Word* mine = own.find(var);
              if (mine != nullptr && *mine != seen) {
                std::ostringstream os;
                os << "own-read mismatch: thread " << t << " tx " << j
                   << " wrote v" << var << "=" << *mine << " but read back "
                   << seen;
                sink.note(os.str());
              }
              rec.read(t, var, seen, mine != nullptr);
            }
          }
          engine->commit(tx);
        } catch (const stm::TxConflict&) {
          rec.abort(t);
          continue;
        }
        finish_commit(tx);
        rec.commit(t);
        break;
      }
    }
  });

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  sink.note(check_opacity(rec.records(), initial, mem));
  return Outcome{std::move(res), sink.take()};
}

// ---------------------------------------------------------------------------
// StmSnapshotScenario
// ---------------------------------------------------------------------------

std::string StmSnapshotScenario::name() const {
  std::ostringstream os;
  os << "stm-snapshot/" << stm::to_string(cfg_.algo) << "/w" << cfg_.writers
     << "v" << cfg_.vars << "r" << cfg_.reads_per_reader << "x"
     << cfg_.txs_per_writer;
  if (cfg_.clock_policy != stm::ClockPolicy::kGv1) {
    os << "/" << stm::to_string(cfg_.clock_policy);
  }
  if (cfg_.orec_granularity_shift != stm::OrecTable::kDefaultGranularityShift) {
    os << "+g" << cfg_.orec_granularity_shift;
  }
  return os.str();
}

Scenario::Outcome StmSnapshotScenario::run_once(const SchedOptions& opts) {
  const unsigned n = cfg_.writers + 1;
  stm::EngineConfig engine_cfg;
  engine_cfg.clock_policy = cfg_.clock_policy;
  engine_cfg.orec_granularity_shift = cfg_.orec_granularity_shift;
  auto engine = stm::make_engine(cfg_.algo, engine_cfg);
  std::vector<stm::Word> mem(cfg_.vars, 0);
  const std::vector<stm::Word> initial = mem;
  HistoryRecorder rec(n);
  ViolationSink sink;

  CoopScheduler sched(n, opts);
  SchedResult res = sched.run([&](unsigned t) {
    stm::TxThread tx;
    if (t == 0) {
      // Reader: one read-only transaction sweeps every variable. All
      // writers write all variables per transaction, so a consistent
      // snapshot has every variable equal — a torn read set cannot hide.
      for (unsigned j = 0; j < cfg_.reads_per_reader; ++j) {
        for (unsigned attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
          rec.begin(0);
          tx.read_only = true;
          engine->begin(tx);
          try {
            for (unsigned v = 0; v < cfg_.vars; ++v) {
              const stm::Word seen = engine->read(tx, &mem[v]);
              rec.read(0, v, seen, false);
            }
            engine->commit(tx);
          } catch (const stm::TxConflict&) {
            rec.abort(0);
            continue;
          }
          finish_commit(tx);
          rec.commit(0);
          break;
        }
      }
    } else {
      for (unsigned j = 0; j < cfg_.txs_per_writer; ++j) {
        for (unsigned attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
          const stm::Word value = (stm::Word{t} << 48) |
                                  (stm::Word{j + 1} << 32) |
                                  (stm::Word{attempt} << 8) | 1u;
          rec.begin(t);
          tx.read_only = false;
          engine->begin(tx);
          try {
            for (unsigned v = 0; v < cfg_.vars; ++v) {
              engine->write(tx, &mem[v], value);
              rec.write(t, v, value);
            }
            engine->commit(tx);
          } catch (const stm::TxConflict&) {
            rec.abort(t);
            continue;
          }
          finish_commit(tx);
          rec.commit(t);
          break;
        }
      }
    }
  });

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  sink.note(check_opacity(rec.records(), initial, mem));
  return Outcome{std::move(res), sink.take()};
}

// ---------------------------------------------------------------------------
// StmQueuePopScenario
// ---------------------------------------------------------------------------

std::string StmQueuePopScenario::name() const {
  std::ostringstream os;
  os << "stm-queue-pop/" << stm::to_string(cfg_.algo) << "/t" << cfg_.threads
     << "i" << cfg_.items;
  return os.str();
}

Scenario::Outcome StmQueuePopScenario::run_once(const SchedOptions& opts) {
  auto engine = stm::make_engine(cfg_.algo);
  // Variables: 0 = head, 1 = tail, 2 + i = slot i, prefilled with distinct
  // values so every read names the state it came from.
  std::vector<stm::Word> mem(2 + cfg_.items, 0);
  mem[1] = cfg_.items;
  for (unsigned i = 0; i < cfg_.items; ++i) mem[2 + i] = 100 + i;
  const std::vector<stm::Word> initial = mem;
  HistoryRecorder rec(cfg_.threads);
  ViolationSink sink;

  CoopScheduler sched(cfg_.threads, opts);
  SchedResult res = sched.run([&](unsigned t) {
    stm::TxThread tx;
    for (unsigned attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
      rec.begin(t);
      tx.read_only = false;
      engine->begin(tx);
      try {
        // intruder::TxQueue::pop, with every access recorded.
        const stm::Word head = engine->read_for_write(tx, &mem[0]);
        rec.read(t, 0, head, false);
        const stm::Word tail = engine->read(tx, &mem[1]);
        rec.read(t, 1, tail, false);
        if (head != tail) {
          const unsigned slot = 2 + static_cast<unsigned>(head % cfg_.items);
          rec.read(t, slot, engine->read(tx, &mem[slot]), false);
          engine->write(tx, &mem[0], head + 1);
          rec.write(t, 0, head + 1);
        }
        engine->commit(tx);
      } catch (const stm::TxConflict&) {
        rec.abort(t);
        continue;
      }
      finish_commit(tx);
      rec.commit(t);
      break;
    }
  });

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  sink.note(check_opacity(rec.records(), initial, mem));
  return Outcome{std::move(res), sink.take()};
}

// ---------------------------------------------------------------------------
// AdmissionChurnScenario
// ---------------------------------------------------------------------------

AdmissionChurnConfig default_admission_churn(unsigned workers) {
  AdmissionChurnConfig c;
  c.workers = workers;
  c.max_threads = workers;
  c.initial_quota = workers;  // open-mode eligible on membarrier hosts
  using Op = AdmissionChurnStep::Op;
  c.program = {
      // Close the open gate with residents inside: DRAIN + RESIDUE path.
      {Op::kSetQuota, workers > 2 ? workers - 1 : 2},
      // Into lock mode, then raise back out (the raise-from-1 drain).
      {Op::kSetQuota, 1},
      {Op::kSetQuota, workers},
      // Full quiesce.
      {Op::kPause, 0},
  };
  return c;
}

std::string AdmissionChurnScenario::name() const {
  std::ostringstream os;
  os << "adm-churn/w" << cfg_.workers << "n" << cfg_.max_threads << "q"
     << cfg_.initial_quota << "r" << cfg_.rounds << "p"
     << cfg_.program.size();
  return os.str();
}

Scenario::Outcome AdmissionChurnScenario::run_once(const SchedOptions& opts) {
  // kAtomic only: the scenario explores the packed-word protocol. (The
  // legacy mutex gate blocks inside std::condition_variable, which the
  // cooperative scheduler cannot intercept.)
  rac::AdmissionController ac(cfg_.max_threads, cfg_.initial_quota,
                              rac::AdmissionImpl::kAtomic);
  ViolationSink sink;
  std::atomic<int> inside{0};       // residents by our own bookkeeping
  std::atomic<int> lock_inside{0};  // residents admitted at quota 1
  const unsigned mutator = cfg_.workers;  // thread index of the mutator

  CoopScheduler sched(cfg_.workers + 1, opts);
  SchedResult res = sched.run([&](unsigned t) {
    if (t == mutator) {
      for (const AdmissionChurnStep& step : cfg_.program) {
        if (step.op == AdmissionChurnStep::Op::kSetQuota) {
          ac.set_quota(step.quota);
          const unsigned clamped =
              std::min(std::max(step.quota, 1u), cfg_.max_threads);
          if (ac.quota() != clamped) {
            std::ostringstream os;
            os << "set_quota(" << step.quota << ") left quota "
               << ac.quota() << " (expected " << clamped << ")";
            sink.note(os.str());
          }
        } else {
          ac.pause();
          // Let a worker that loaded OPEN before the close publish its
          // slot entry now: the ledger must stay exact for the whole
          // pause, not only at the instant pause() returns.
          sched_point(SchedPointId::kAdmWait);
          // pause() contract: the view is quiescent. Our own resident
          // count was decremented before each leave(), so a drained
          // ledger implies it is zero as well.
          if (inside.load(std::memory_order_relaxed) != 0) {
            sink.note("pause returned with residents still inside");
          }
          if (ac.admitted() != 0) {
            sink.note("pause returned with a nonzero admission ledger");
          }
          ac.resume();
        }
      }
      return;
    }
    for (unsigned r = 0; r < cfg_.rounds; ++r) {
      unsigned q = 0;
      if (cfg_.try_admit_every != 0 &&
          (r % cfg_.try_admit_every) == cfg_.try_admit_every - 1) {
        if (!ac.try_admit(&q)) continue;
      } else {
        q = ac.admit();
      }
      // No sched point between the grant and these checks: the counts are
      // read in the same scheduled step the grant completed in.
      const int now = inside.fetch_add(1, std::memory_order_relaxed) + 1;
      if (now > static_cast<int>(q)) {
        std::ostringstream os;
        os << "admission granted with " << now
           << " residents against quota snapshot " << q;
        sink.note(os.str());
      }
      if (q == 1) {
        if (lock_inside.fetch_add(1, std::memory_order_relaxed) != 0) {
          sink.note("two lock-mode (quota 1) holders inside at once");
        }
      } else if (lock_inside.load(std::memory_order_relaxed) != 0) {
        sink.note("transactional admission overlaps a lock-mode holder");
      }
      // Linger across one scheduling decision so residency overlaps other
      // threads' admission attempts and the mutator's transitions.
      sched_point(SchedPointId::kAdmWait);
      if (q == 1) lock_inside.fetch_sub(1, std::memory_order_relaxed);
      inside.fetch_sub(1, std::memory_order_relaxed);
      ac.leave();
    }
  });

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  if (inside.load() != 0) {
    sink.note("residents count nonzero after all threads finished");
  }
  if (ac.admitted() != 0) {
    std::ostringstream os;
    os << "slot ledger not conserved: admitted() == " << ac.admitted()
       << " after all leaves";
    sink.note(os.str());
  }
  return Outcome{std::move(res), sink.take()};
}

namespace {

// End-of-run books of a View scenario in which one transaction wrote 0 to
// `cell` and then every committed body added 1: the view's stats conserve
// events, the counter is exact, and the admission ledger drained.
// `attempts` and `commits` count the scenario's bodies, not that first
// transaction.
void check_counter_books(core::View& view, const stm::Word* cell,
                         std::uint64_t attempts, std::uint64_t commits,
                         ViolationSink& sink) {
  const std::uint64_t att = attempts + 1;
  const std::uint64_t com = commits + 1;
  const stm::Word final_value = core::vread(cell);
  const stm::StatsSnapshot st = view.stats();
  if (st.commits != com) {
    std::ostringstream os;
    os << "stats conservation: view counted " << st.commits
       << " commits, scenario observed " << com;
    sink.note(os.str());
  }
  if (st.commits + st.aborts != att) {
    std::ostringstream os;
    os << "stats conservation: " << att << " body attempts but commits("
       << st.commits << ") + aborts(" << st.aborts << ") = "
       << st.commits + st.aborts
       << " — an abort path failed to account its event";
    sink.note(os.str());
  }
  // Exception and conflict attempts must leave no trace.
  if (final_value != com - 1) {
    std::ostringstream os;
    os << "counter mismatch: " << com - 1 << " committed increments but the "
       << "cell reads " << final_value;
    sink.note(os.str());
  }
  if (view.admission().admitted() != 0) {
    sink.note("admission ledger nonzero after quiescence");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ViewStatsScenario
// ---------------------------------------------------------------------------

std::string ViewStatsScenario::name() const {
  std::ostringstream os;
  os << "view-stats/" << stm::to_string(cfg_.algo) << "/t" << cfg_.threads
     << "n" << cfg_.max_threads << "q" << cfg_.fixed_quota << "x"
     << cfg_.txs_per_thread << "e" << cfg_.throw_every;
  return os.str();
}

Scenario::Outcome ViewStatsScenario::run_once(const SchedOptions& opts) {
  core::ViewConfig vc;
  vc.algo = cfg_.algo;
  vc.max_threads = cfg_.max_threads;
  vc.rac = core::RacMode::kFixed;  // adaptation is cycle-driven, not
                                   // schedule-determined; pin the quota
  vc.fixed_quota = cfg_.fixed_quota;
  vc.initial_bytes = 1 << 16;
  core::View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { core::vwrite<stm::Word>(cell, 0); });

  ViolationSink sink;
  std::atomic<std::uint64_t> attempts{0};  // body invocations
  std::atomic<std::uint64_t> commits{0};   // bodies that committed
  struct Thrown {};

  CoopScheduler sched(cfg_.threads, opts);
  SchedResult res = sched.run([&](unsigned t) {
    for (unsigned j = 0; j < cfg_.txs_per_thread; ++j) {
      const bool throws = t == 0 && cfg_.throw_every != 0 &&
                          (j % cfg_.throw_every) == cfg_.throw_every - 1;
      try {
        view.execute([&] {
          attempts.fetch_add(1, std::memory_order_relaxed);
          core::vadd<stm::Word>(cell, 1);
          if (throws) throw Thrown{};
        });
      } catch (const Thrown&) {
        continue;  // the view must have aborted + released admission
      }
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  check_counter_books(view, cell, attempts.load(), commits.load(), sink);
  return Outcome{std::move(res), sink.take()};
}

// ---------------------------------------------------------------------------
// LockModeScenario
// ---------------------------------------------------------------------------

std::string LockModeScenario::name() const {
  std::ostringstream os;
  os << "lock-mode/" << stm::to_string(cfg_.algo) << "/w" << cfg_.workers
     << "x" << cfg_.txs_per_worker << "q" << cfg_.workers;
  for (unsigned q : cfg_.quota_walk) os << "-" << q;
  return os.str();
}

Scenario::Outcome LockModeScenario::run_once(const SchedOptions& opts) {
  core::ViewConfig vc;
  vc.algo = cfg_.algo;
  vc.max_threads = cfg_.workers;
  vc.rac = core::RacMode::kFixed;  // only the mutator moves the quota
  vc.fixed_quota = cfg_.workers;
  vc.initial_bytes = 1 << 16;
  core::View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { core::vwrite<stm::Word>(cell, 0); });

  ViolationSink sink;
  std::atomic<std::uint64_t> attempts{0};     // body invocations
  std::atomic<std::uint64_t> commits{0};      // bodies that committed
  std::atomic<std::uint64_t> lock_bodies{0};  // of which in lock mode
  std::atomic<int> lock_inside{0};  // lock-mode bodies running now
  std::atomic<int> spec_inside{0};  // speculative bodies running now
  const unsigned mutator = cfg_.workers;  // thread index of the mutator

  // Counts a body out on every exit, including a conflict's unwind. The
  // abort path leaves admission before it throws, with no schedule point
  // in between, so a counted-in body is always an admitted one.
  struct CountedIn {
    std::atomic<int>& inside;
    ~CountedIn() { inside.fetch_sub(1, std::memory_order_relaxed); }
  };

  CoopScheduler sched(cfg_.workers + 1, opts);
  SchedResult res = sched.run([&](unsigned t) {
    if (t == mutator) {
      for (unsigned q : cfg_.quota_walk) view.set_quota(q);
      return;
    }
    for (unsigned j = 0; j < cfg_.txs_per_worker; ++j) {
      view.execute([&] {
        attempts.fetch_add(1, std::memory_order_relaxed);
        const bool lock_mode = !core::thread_ctx().tx.engine->speculative();
        std::atomic<int>& mine = lock_mode ? lock_inside : spec_inside;
        const int before = mine.fetch_add(1, std::memory_order_relaxed);
        CountedIn counted{mine};
        if (lock_mode) {
          lock_bodies.fetch_add(1, std::memory_order_relaxed);
          if (before != 0) sink.note("two lock-mode bodies run at once");
          if (spec_inside.load(std::memory_order_relaxed) != 0) {
            sink.note("a lock-mode body runs beside a speculative body");
          }
        } else if (lock_inside.load(std::memory_order_relaxed) != 0) {
          sink.note("a speculative body runs beside a lock-mode body");
        }
        const stm::Word v = core::vread(cell);
        sched_point(SchedPointId::kStmWrite);
        core::vwrite<stm::Word>(cell, v + 1);
      });
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  lock_bodies_ += lock_bodies.load();

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  check_counter_books(view, cell, attempts.load(), commits.load(), sink);
  return Outcome{std::move(res), sink.take()};
}

// ---------------------------------------------------------------------------
// ReclaimRaceScenario
// ---------------------------------------------------------------------------

std::string ReclaimRaceScenario::name() const {
  std::ostringstream os;
  os << "reclaim-race/" << stm::to_string(cfg_.algo) << "/r" << cfg_.readers
     << "x" << cfg_.rounds << "k" << cfg_.list_len;
  if (cfg_.clock_policy != stm::ClockPolicy::kGv1) {
    os << "/" << stm::to_string(cfg_.clock_policy);
  }
  return os.str();
}

Scenario::Outcome ReclaimRaceScenario::run_once(const SchedOptions& opts) {
  core::ViewConfig vc;
  vc.algo = cfg_.algo;
  vc.max_threads = cfg_.readers + 1;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = cfg_.readers + 1;  // everyone runs; the race is the point
  vc.initial_bytes = 1 << 16;
  vc.engine.clock_policy = cfg_.clock_policy;
  vc.reclaim_threshold = 1;  // every exit with limbo non-empty runs a pass
  core::View view(vc);

  // List node layout (words): [0] value, [1] next. Values are kBase + seq
  // with seq unique per node ever linked, so any word a reader can
  // legitimately observe lies in [kBase, kBase + list_len + rounds).
  constexpr stm::Word kBase = 0x5EED0000;
  auto* head = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] {
    core::vwrite<stm::Word>(head, 0);
    for (unsigned i = 0; i < cfg_.list_len; ++i) {
      auto* node = static_cast<stm::Word*>(view.alloc(2 * sizeof(stm::Word)));
      core::vwrite<stm::Word>(&node[0], kBase + i);
      core::vwrite<stm::Word>(&node[1], core::vread(head));
      core::vwrite<stm::Word>(head, reinterpret_cast<stm::Word>(node));
    }
  });
  const std::size_t baseline = view.arena().allocated();
  const stm::Word value_bound = kBase + cfg_.list_len + cfg_.rounds;

  ViolationSink sink;
  CoopScheduler sched(cfg_.readers + 1, opts);
  SchedResult res = sched.run([&](unsigned t) {
    if (t == 0) {
      // Freer: one transaction per round unlinks the head node, frees it
      // (retired at commit) and links a replacement carrying a fresh value.
      for (unsigned r = 0; r < cfg_.rounds; ++r) {
        view.execute([&] {
          const stm::Word first = core::vread(head);
          auto* victim = reinterpret_cast<stm::Word*>(first);
          core::vwrite<stm::Word>(head, core::vread(&victim[1]));
          view.free(victim);
          auto* fresh =
              static_cast<stm::Word*>(view.alloc(2 * sizeof(stm::Word)));
          core::vwrite<stm::Word>(&fresh[0], kBase + cfg_.list_len + r);
          core::vwrite<stm::Word>(&fresh[1], core::vread(head));
          core::vwrite<stm::Word>(head, reinterpret_cast<stm::Word>(fresh));
        });
      }
      return;
    }
    // Readers: consistent walks. A block reclaimed under this walk would
    // surface as an out-of-range value (arena free-list scribble) or a
    // walk that escapes the structural length bound.
    for (unsigned r = 0; r < cfg_.reads_per_reader; ++r) {
      view.execute_read([&] {
        stm::Word node = core::vread(head);
        unsigned steps = 0;
        while (node != 0) {
          if (++steps > cfg_.list_len) {
            sink.note("reader walk exceeded the list length: a reclaimed "
                      "node was reused under a live snapshot");
            return;
          }
          auto* words = reinterpret_cast<stm::Word*>(node);
          const stm::Word v = core::vread(&words[0]);
          if (v < kBase || v >= value_bound) {
            std::ostringstream os;
            os << "reader observed value 0x" << std::hex << v
               << " never written by the workload (use-after-reclaim)";
            sink.note(os.str());
            return;
          }
          node = core::vread(&words[1]);
        }
      });
    }
  });

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }

  // Quiescent: no pins are live, so one forced pass must drain everything.
  view.reclaim_garbage();
  const stm::ReclaimStats rs = view.reclaim_stats();
  total_retired_ += rs.retired;
  if (rs.depth != 0 || rs.retired != rs.reclaimed) {
    std::ostringstream os;
    os << "limbo not drained at quiescence: retired=" << rs.retired
       << " reclaimed=" << rs.reclaimed << " depth=" << rs.depth;
    sink.note(os.str());
  }
  if (rs.retired != cfg_.rounds) {
    std::ostringstream os;
    os << "retire conservation: " << cfg_.rounds
       << " committed frees but " << rs.retired << " blocks were retired";
    sink.note(os.str());
  }
  if (view.arena().allocated() != baseline) {
    std::ostringstream os;
    os << "arena level " << view.arena().allocated() << " != baseline "
       << baseline << " after full reclaim (leak or double count)";
    sink.note(os.str());
  }
  return Outcome{std::move(res), sink.take()};
}

// ---------------------------------------------------------------------------
// EscalationScenario
// ---------------------------------------------------------------------------

namespace {

// The availability fault that makes an engine lose a commit attempt. CGL
// cannot abort, so it has no site (the scenario degenerates to a plain
// commit and the starvation bound holds trivially).
FaultSite commit_tail_site(stm::Algo algo) {
  switch (algo) {
    case stm::Algo::kNOrec: return FaultSite::kNorecCommitTail;
    case stm::Algo::kOrecEagerRedo: return FaultSite::kOrecEagerRedoCommitTail;
    case stm::Algo::kOrecLazy: return FaultSite::kOrecLazyCommitTail;
    case stm::Algo::kOrecEagerUndo: return FaultSite::kOrecEagerUndoCommitTail;
    case stm::Algo::kTml: return FaultSite::kTmlAcquireFail;
    case stm::Algo::kCgl: break;
  }
  return FaultSite::kCount;
}

}  // namespace

std::string EscalationScenario::name() const {
  std::ostringstream os;
  os << "escalation/" << stm::to_string(cfg_.algo) << "/t" << cfg_.threads
     << "a" << cfg_.aging_after << "s" << cfg_.serial_after << "r"
     << cfg_.peer_rounds;
  if (cfg_.drop_serial_token) os << "+drop";
  return os.str();
}

Scenario::Outcome EscalationScenario::run_once(const SchedOptions& opts) {
  core::ViewConfig vc;
  vc.algo = cfg_.algo;
  vc.max_threads = cfg_.max_threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = cfg_.max_threads;  // peers are never gated: the serial
                                      // drain does all the displacement
  vc.initial_bytes = 1 << 16;
  vc.backoff = BackoffPolicy::kNone;  // the adversarial case: no pacing
  vc.escalation.enabled = true;
  vc.escalation.aging_after = cfg_.aging_after;
  vc.escalation.serial_after = cfg_.serial_after;
  core::View view(vc);
  auto* victim_cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  auto* peer_cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] {
    core::vwrite<stm::Word>(victim_cell, 0);
    core::vwrite<stm::Word>(peer_cell, 0);
  });

  FaultInjector& inj = FaultInjector::instance();
  const FaultSite site = commit_tail_site(cfg_.algo);
  if (site != FaultSite::kCount) {
    FaultPlan plan;  // fire on every evaluation...
    plan.marked_thread_only = true;  // ...but only on the marked victim
    inj.arm(site, plan);
  }
  if (cfg_.drop_serial_token) {
    FaultPlan drop;
    drop.fire = 1;  // lose exactly the first token handoff
    inj.arm(FaultSite::kSerialTokenDrop, drop);
  }

  ViolationSink sink;
  std::atomic<std::uint64_t> victim_attempts{0};
  std::atomic<std::uint64_t> peer_attempts{0};
  std::atomic<std::uint64_t> peer_commits{0};
  std::atomic<bool> victim_done{false};
  const std::uint64_t bound = cfg_.serial_after + 1;

  // Token-visibility oracle, run at the top of every body: while some OTHER
  // thread holds the serial token, no body may be running. (serial_holder
  // is published only after the drain emptied the view, and cleared before
  // the gate reopens, so a concurrent observation is a real violation —
  // exactly what the dropped token produces.)
  auto check_token = [&](const char* who) {
    const int holder = view.admission().serial_holder();
    if (holder >= 0 && holder != static_cast<int>(thread_ordinal())) {
      // No raw ordinal in the message: ordinals are process-global and the
      // replay spawns fresh threads, so the text must be run-independent
      // for the replayed violation to compare equal.
      std::ostringstream os;
      os << who << " body ran while another thread held the serial token";
      sink.note(os.str());
    }
  };

  CoopScheduler sched(cfg_.threads, opts);
  SchedResult res = sched.run([&](unsigned t) {
    if (t == 0) {
      FaultThreadMark mark;  // target of the marked_thread_only plan
      view.execute([&] {
        const std::uint64_t n =
            victim_attempts.fetch_add(1, std::memory_order_relaxed) + 1;
        if (n > bound) {
          std::ostringstream os;
          os << "starvation-freedom violated: victim attempt " << n
             << " exceeds serial_after + 1 = " << bound;
          sink.note(os.str());
          // Escape hatch: let the run terminate and report instead of
          // spinning the exploration budget away.
          if (site != FaultSite::kCount) inj.disarm(site);
        }
        check_token("victim");
        const stm::TxThread& tx = core::thread_ctx().tx;
        if (tx.serial) {
          if (view.admission().serial_holder() !=
              static_cast<int>(thread_ordinal())) {
            sink.note("serial transaction running without the token");
          }
          if (view.admission().admitted() != 1) {
            std::ostringstream os;
            os << "serial mutual exclusion violated: " <<
                view.admission().admitted()
               << " admitted during an irrevocable transaction";
            sink.note(os.str());
          }
        }
        core::vadd<stm::Word>(victim_cell, 1);
      });
      victim_done.store(true, std::memory_order_release);
      return;
    }
    for (unsigned r = 0; r < cfg_.peer_rounds &&
                         !victim_done.load(std::memory_order_acquire);
         ++r) {
      view.execute([&] {
        peer_attempts.fetch_add(1, std::memory_order_relaxed);
        check_token("peer");
        core::vadd<stm::Word>(peer_cell, 1);
      });
      peer_commits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  inj.disarm_all();

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  if (site != FaultSite::kCount) {
    // Per-run vacuity would be a false positive: the victim can abort on a
    // natural conflict before reaching the injected site. Campaign-level
    // vacuity is the caller's check, via commit_tail_triggers().
    commit_tail_triggers_ += inj.triggers(site);
  }
  if (cfg_.drop_serial_token &&
      inj.triggers(FaultSite::kSerialTokenDrop) == 0) {
    sink.note("vacuous run: the serial-token drop never fired");
  }
  // Exactness + conservation. The initialising transaction is in the books.
  const stm::Word victim_final = core::vread(victim_cell);
  if (victim_final != 1) {
    std::ostringstream os;
    os << "victim cell holds " << victim_final
       << " after exactly one committed increment";
    sink.note(os.str());
  }
  const stm::Word peer_final = core::vread(peer_cell);
  if (peer_final != peer_commits.load()) {
    std::ostringstream os;
    os << "peer cell holds " << peer_final << " but " << peer_commits.load()
       << " peer transactions committed";
    sink.note(os.str());
  }
  const stm::StatsSnapshot st = view.stats();
  const std::uint64_t commits = 1 + 1 + peer_commits.load();
  const std::uint64_t attempts =
      1 + victim_attempts.load() + peer_attempts.load();
  if (st.commits != commits || st.commits + st.aborts != attempts) {
    std::ostringstream os;
    os << "stats conservation: observed " << commits << " commits / "
       << attempts << " attempts, view counted " << st.commits
       << " commits + " << st.aborts << " aborts";
    sink.note(os.str());
  }
  if (view.admission().admitted() != 0) {
    sink.note("admission ledger nonzero after quiescence");
  }
  if (view.admission().serial_holder() != -1) {
    sink.note("serial token still held after quiescence");
  }
  return Outcome{std::move(res), sink.take()};
}

// ---------------------------------------------------------------------------
// DeadlineScenario
// ---------------------------------------------------------------------------

std::string DeadlineScenario::name() const {
  std::ostringstream os;
  os << "deadline/" << stm::to_string(cfg_.algo) << "/t" << cfg_.threads
     << "s" << cfg_.serial_after << "r" << cfg_.rounds << "p"
     << cfg_.peer_rounds;
  return os.str();
}

Scenario::Outcome DeadlineScenario::run_once(const SchedOptions& opts) {
  core::ViewConfig vc;
  vc.algo = cfg_.algo;
  vc.max_threads = cfg_.max_threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = cfg_.max_threads;  // peers stay admitted; the deadline
                                      // and serial paths do the gating
  vc.initial_bytes = 1 << 16;
  vc.backoff = BackoffPolicy::kNone;
  vc.escalation.enabled = true;
  vc.escalation.aging_after = 1;
  vc.escalation.serial_after = cfg_.serial_after;
  core::View view(vc);
  auto* victim_cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  auto* peer_cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] {
    core::vwrite<stm::Word>(victim_cell, 0);
    core::vwrite<stm::Word>(peer_cell, 0);
  });

  ViolationSink sink;
  std::atomic<std::uint64_t> expired_bodies{0};  // must stay 0
  std::atomic<std::uint64_t> serial_attempts{0};
  std::atomic<std::uint64_t> serial_commits{0};
  std::atomic<std::uint64_t> peer_attempts{0};
  std::atomic<std::uint64_t> peer_commits{0};
  std::atomic<std::uint64_t> deadline_throws{0};

  // Serial mutual exclusion is checked as token VISIBILITY (no body runs
  // while another thread holds the token), exactly like EscalationScenario.
  // An admitted() count would not be schedule-invariant here: a peer parked
  // inside admit() may have optimistically bumped a slot-mode stripe that
  // the ledger counts until the park rolls it back, so the victim's serial
  // body can legally observe admitted() > 1 without any peer body running.
  auto check_token = [&](const char* who) {
    const int holder = view.admission().serial_holder();
    if (holder >= 0 && holder != static_cast<int>(thread_ordinal())) {
      std::ostringstream os;
      os << who << " body ran while another thread held the serial token";
      sink.note(os.str());
    }
  };

  CoopScheduler sched(cfg_.threads, opts);
  SchedResult res = sched.run([&](unsigned t) {
    if (t == 0) {
      stm::TxThread& tx = core::thread_ctx().tx;
      // The expired-entry body: running it at all is the violation.
      auto expired_body = [&] {
        expired_bodies.fetch_add(1, std::memory_order_relaxed);
        core::vadd<stm::Word>(victim_cell, 1);
      };
      auto expect_throw = [&](const char* what) {
        bool threw = false;
        try {
          view.run_until(Deadline::after(std::chrono::nanoseconds{0}),
                         expired_body);
        } catch (const stm::DeadlineExceeded&) {
          threw = true;
          deadline_throws.fetch_add(1, std::memory_order_relaxed);
        }
        if (!threw) {
          std::ostringstream os;
          os << what << " did not throw DeadlineExceeded";
          sink.note(os.str());
        }
      };
      for (unsigned r = 0; r < cfg_.rounds; ++r) {
        // Case 1: a deadline already in the past at entry.
        expect_throw("expired-entry run");
        if (view.admission().serial_holder() != -1) {
          sink.note("expired-entry run touched the serial token");
        }
        // Case 2: a pre-seeded streak takes the serial rung.
        tx.consecutive_aborts = cfg_.serial_after;
        view.execute([&] {
          serial_attempts.fetch_add(1, std::memory_order_relaxed);
          if (!core::thread_ctx().tx.serial) {
            sink.note("pre-seeded streak did not take the serial rung");
          }
          if (view.admission().serial_holder() !=
              static_cast<int>(thread_ordinal())) {
            sink.note("serial body ran without holding the token");
          }
          core::vadd<stm::Word>(victim_cell, 1);
        });
        serial_commits.fetch_add(1, std::memory_order_relaxed);
        if (view.admission().serial_holder() != -1) {
          sink.note("serial token not returned after the escalated commit");
        }
        // Case 3: streak pre-seeded AND the deadline expired — the deadline
        // check outranks escalation, so the token is never acquired and the
        // streak is reset (the budget failure must not leak an escalation
        // into this thread's next, unrelated run).
        tx.consecutive_aborts = cfg_.serial_after;
        expect_throw("deadline-blocked escalation");
        if (view.admission().serial_holder() != -1) {
          sink.note("deadline-blocked escalation acquired the serial token");
        }
        if (tx.consecutive_aborts != 0) {
          sink.note("DeadlineExceeded left the abort streak armed");
        }
      }
      return;
    }
    for (unsigned r = 0; r < cfg_.peer_rounds; ++r) {
      view.execute([&] {
        peer_attempts.fetch_add(1, std::memory_order_relaxed);
        check_token("peer");
        core::vadd<stm::Word>(peer_cell, 1);
      });
      peer_commits.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  if (expired_bodies.load() != 0) {
    std::ostringstream os;
    os << "a past-deadline body ran " << expired_bodies.load()
       << " time(s) — the entry check must fire before the body";
    sink.note(os.str());
  }
  const std::uint64_t expected_throws = 2ull * cfg_.rounds;
  if (deadline_throws.load() != expected_throws) {
    std::ostringstream os;
    os << "expected " << expected_throws << " DeadlineExceeded, saw "
       << deadline_throws.load();
    sink.note(os.str());
  }
  const stm::Word victim_final = core::vread(victim_cell);
  if (victim_final != serial_commits.load()) {
    std::ostringstream os;
    os << "victim cell holds " << victim_final << " after "
       << serial_commits.load() << " committed increments";
    sink.note(os.str());
  }
  const stm::Word peer_final = core::vread(peer_cell);
  if (peer_final != peer_commits.load()) {
    std::ostringstream os;
    os << "peer cell holds " << peer_final << " but " << peer_commits.load()
       << " peer transactions committed";
    sink.note(os.str());
  }
  // Conservation: expired entries contribute neither commits nor aborts —
  // their bodies never ran and nothing was admitted or begun.
  const stm::StatsSnapshot st = view.stats();
  const std::uint64_t commits = 1 + serial_commits.load() + peer_commits.load();
  const std::uint64_t attempts =
      1 + serial_attempts.load() + peer_attempts.load();
  if (st.commits != commits || st.commits + st.aborts != attempts) {
    std::ostringstream os;
    os << "stats conservation: observed " << commits << " commits / "
       << attempts << " attempts, view counted " << st.commits
       << " commits + " << st.aborts << " aborts";
    sink.note(os.str());
  }
  if (view.admission().admitted() != 0) {
    sink.note("admission ledger nonzero after quiescence");
  }
  if (view.admission().serial_holder() != -1) {
    sink.note("serial token still held after quiescence");
  }
  return Outcome{std::move(res), sink.take()};
}

// ---------------------------------------------------------------------------
// CmFairnessScenario
// ---------------------------------------------------------------------------

std::string CmFairnessScenario::name() const {
  std::ostringstream os;
  os << "cm-fair/" << stm::to_string(cfg_.algo) << "/"
     << stm::to_string(cfg_.cm_policy) << "/p" << cfg_.peers << "r"
     << cfg_.peer_rounds << "d" << cfg_.peer_pad_reads << "s"
     << cfg_.seed_aborts << "k" << cfg_.slack;
  if (cfg_.invert) os << "+invert";
  return os.str();
}

Scenario::Outcome CmFairnessScenario::run_once(const SchedOptions& opts) {
  // Hermetic runs: a stale owner tag left by a previous run (thread stacks
  // get reused, so TxThread addresses recur) could flip a victim choice
  // and break deterministic replay.
  stm::CmPriorityTable::instance().reset();
  core::ViewConfig vc;
  vc.algo = cfg_.algo;
  vc.max_threads = cfg_.peers + 1;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = cfg_.peers + 1;  // contention, not admission, is the
                                    // mechanism under test
  vc.initial_bytes = 1 << 16;
  vc.backoff = BackoffPolicy::kNone;  // adversarial: no pacing rescues
  // Escalation stays OFF: the serial rung would bail the victim out and
  // the bound would measure the ladder, not the victim-choice policy.
  vc.engine.cm_policy = cfg_.cm_policy;
  core::View view(vc);
  auto* hot = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  auto* pad = static_cast<stm::Word*>(
      view.alloc(std::max(1u, cfg_.peer_pad_reads) * sizeof(stm::Word)));
  view.execute([&] {
    core::vwrite<stm::Word>(hot, 0);
    for (unsigned i = 0; i < cfg_.peer_pad_reads; ++i) {
      core::vwrite<stm::Word>(&pad[i], i);
    }
  });

  FaultInjector& inj = FaultInjector::instance();
  const FaultSite site = commit_tail_site(cfg_.algo);
  if (site != FaultSite::kCount) {
    FaultPlan seed;
    seed.fire = cfg_.seed_aborts;     // finite: exactly this many losses
    seed.marked_thread_only = true;   // only the victim eats them
    inj.arm(site, seed);
  }
  if (cfg_.invert) {
    FaultPlan flip;                   // every victim-choice decision the
    flip.marked_thread_only = true;   // victim makes collapses to baseline
    inj.arm(FaultSite::kCmVictimChoice, flip);
  }

  ViolationSink sink;
  std::atomic<std::uint64_t> victim_attempts{0};
  std::atomic<std::uint64_t> peer_attempts{0};
  std::atomic<std::uint64_t> peer_commits{0};
  std::atomic<bool> victim_done{false};
  const std::uint64_t bound = cfg_.seed_aborts + cfg_.slack;
  const bool bound_armed = cfg_.cm_policy != stm::CmPolicy::kAbortSelf;

  CoopScheduler sched(cfg_.peers + 1, opts);
  SchedResult res = sched.run([&](unsigned t) {
    if (t == 0) {
      FaultThreadMark mark;  // target of both marked plans
      view.execute([&] {
        const std::uint64_t n =
            victim_attempts.fetch_add(1, std::memory_order_relaxed) + 1;
        if (bound_armed && n > bound) {
          std::ostringstream os;
          os << "fairness bound violated: victim attempt " << n
             << " exceeds seed_aborts + slack = " << bound;
          sink.note(os.str());
          // Escape hatch: let the run terminate and report instead of
          // spinning the exploration budget away.
          if (site != FaultSite::kCount) inj.disarm(site);
          inj.disarm(FaultSite::kCmVictimChoice);
        }
        // Blind write: no reads, so (orec engines) every conflict is a
        // lock conflict the policy can arbitrate, and (NOrec) there is
        // nothing to invalidate at all.
        core::vwrite<stm::Word>(hot, (stm::Word{1} << 48) | n);
      });
      victim_done.store(true, std::memory_order_release);
      return;
    }
    for (unsigned r = 0; r < cfg_.peer_rounds &&
                         !victim_done.load(std::memory_order_acquire);
         ++r) {
      view.execute([&] {
        peer_attempts.fetch_add(1, std::memory_order_relaxed);
        // Hot write FIRST, pads after: on the encounter-locking engines
        // the hot orec stays foreign-locked across the pad reads' sched
        // points — the window the victim keeps running into.
        core::vwrite<stm::Word>(hot, (stm::Word{t + 1} << 48) | (r + 1));
        for (unsigned i = 0; i < cfg_.peer_pad_reads; ++i) {
          (void)core::vread(&pad[i]);
        }
      });
      peer_commits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  if (site != FaultSite::kCount) seed_triggers_ += inj.triggers(site);
  if (cfg_.invert) {
    invert_triggers_ += inj.triggers(FaultSite::kCmVictimChoice);
  }
  inj.disarm_all();
  max_victim_attempts_ = std::max(max_victim_attempts_, victim_attempts.load());

  for (const std::string& e : res.thread_errors) {
    sink.note("worker exception: " + e);
  }
  // Conservation + drained ledgers; the initialising transaction is in the
  // books. (No counter-exactness on the hot word: blind writers overwrite
  // each other by design, so only the last committer's value survives.)
  const stm::StatsSnapshot st = view.stats();
  const std::uint64_t commits = 1 + 1 + peer_commits.load();
  const std::uint64_t attempts =
      1 + victim_attempts.load() + peer_attempts.load();
  if (st.commits != commits || st.commits + st.aborts != attempts) {
    std::ostringstream os;
    os << "stats conservation: observed " << commits << " commits / "
       << attempts << " attempts, view counted " << st.commits
       << " commits + " << st.aborts << " aborts";
    sink.note(os.str());
  }
  if (view.admission().admitted() != 0) {
    sink.note("admission ledger nonzero after quiescence");
  }
  if (view.admission().serial_holder() != -1) {
    sink.note("serial token still held after quiescence");
  }
  return Outcome{std::move(res), sink.take()};
}

}  // namespace votm::check

#endif  // VOTM_SCHED_POINTS
