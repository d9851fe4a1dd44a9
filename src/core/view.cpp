#include "core/view.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <stdexcept>

#include "check/fault.hpp"
#include "check/sched_point.hpp"

namespace votm::core {

namespace {
unsigned initial_quota(const ViewConfig& c) {
  switch (c.rac) {
    case RacMode::kAdaptive:
      return c.max_threads;  // paper: "Q ... is initialized as the maximum
                             // number of threads (N)"
    case RacMode::kFixed:
      return std::clamp(c.fixed_quota, 1u, c.max_threads);
    case RacMode::kDisabled:
      return c.max_threads;
  }
  return c.max_threads;
}
}  // namespace

View::View(ViewConfig config)
    : config_(config),
      engine_(stm::make_engine(config.algo, config.engine)),
      arena_(config.initial_bytes),
      admission_(config.max_threads, initial_quota(config),
                 config.admission_impl, config.admission_spin),
      policy_(config.max_threads, config.policy),
      algo_selector_(config.algo_adapt),
      totals_(config.stats_stripes != 0 ? config.stats_stripes
                                        : config.max_threads) {
  // Short epochs (tests, reactive-adaptation ablations) keep exact
  // per-event trigger checks; production-length epochs amortize the
  // O(stripes) event-count fold over a stride of local events.
  adapt_check_stride_ = config_.adapt_interval >= 512 ? 16 : 1;
  next_adapt_at_.value.store(config_.adapt_interval, std::memory_order_relaxed);
  // Robustness knobs share the factory's clamp-and-count treatment
  // (stm/factory.cpp): a negative deadline means "disabled", a hard
  // watermark below the soft one is raised to it.
  config_.tx_deadline_ns = stm::sanitized_tx_deadline_ns(config_.tx_deadline_ns);
  config_.limbo_hard_watermark = stm::sanitized_limbo_hard_watermark(
      config_.limbo_soft_watermark, config_.limbo_hard_watermark);
}

void* View::alloc(std::size_t size) {
  void* block;
  try {
    block = arena_.alloc(size);
  } catch (const std::bad_alloc&) {
    // Allocation pressure: force a reclaim pass — advance the era and
    // drain every limbo block past the grace period — then retry once.
    // Safe from inside a transaction: this thread's own pin holds the
    // horizon at or below its era, so nothing it could still read is
    // freed, only older garbage.
    if (reclaim_pass(/*force=*/true) == 0) throw;
    block = arena_.alloc(size);
  }
  ThreadCtx& tc = thread_ctx();
  if (tc.tx.in_tx && tc.active_view == this && tc.tx.engine->speculative()) {
    tc.tx_allocs.emplace_back(&arena_, block);
  }
  return block;
}

void View::free(void* ptr) {
  if (ptr == nullptr) return;
  ThreadCtx& tc = thread_ctx();
  if (tc.tx.in_tx && tc.active_view == this && tc.tx.engine->speculative()) {
    // Defer: freeing now would let another thread reuse the block while
    // this transaction can still abort (and while concurrent readers may
    // still be validating against it).
    tc.tx_frees.emplace_back(&arena_, ptr);
    return;
  }
  arena_.free(ptr);
}

void View::enter(ThreadCtx& tc, bool read_only) {
  stm::TxThread& tx = tc.tx;
  // Misuse guard before any state is touched: entering with a transaction
  // already live would silently overwrite the checkpoint/rollback hooks
  // (nested same-view acquire) or run one thread in two views' admission
  // ledgers at once. Both were UB; make them a defined, diagnosable error.
  if (tx.in_tx) {
    throw std::logic_error(
        tc.active_view == this
            ? "acquire_view: nested acquire of the same view (the view API "
              "does not nest; finish or abort the open transaction first)"
            : "acquire_view: this thread already runs a transaction on "
              "another view");
  }
  // Fresh entry vs conflict retry: handle_abort leaves active_view set so
  // the retry re-enters here with it still == this. The distinction arms
  // the deadline exactly once per run and holds it across retries.
  const bool fresh = tc.active_view != this;
  tc.active_view = this;
  tx.read_only = read_only;
  tx.stats = &totals_;
  tx.on_rollback = &View::rollback_trampoline;
  tx.on_misuse = &View::misuse_trampoline;
  tx.rollback_arg = this;
  tx.checkpoint = &tc.checkpoint;
  tx.backoff.set_policy(config_.backoff);

  // Bounded-time transactions (DESIGN.md §19). Fresh entry arms the
  // deadline: a pending run_for/run_until override wins, else the view's
  // configured budget, else none. Retry entries keep the armed deadline —
  // the budget covers the whole run, not each attempt.
  if (fresh) {
    if (tc.has_pending_deadline) {
      tx.deadline = tc.pending_deadline;
      tc.has_pending_deadline = false;
    } else if (config_.tx_deadline_ns > 0) {
      tx.deadline =
          Deadline::after(std::chrono::nanoseconds(config_.tx_deadline_ns));
    } else {
      tx.deadline = Deadline::none();
    }
  }
  if (tx.deadline.expired()) {
    // Past-deadline entry — a run_until already in the past, or a retry
    // whose budget ran out during backoff. Nothing is held yet (no
    // admission, no epoch pin, no engine state), so surface the defined
    // outcome directly. This is also the only deadline check lock mode
    // (CGL) gets: an admitted lock-mode execution is a plain critical
    // section and always runs to completion.
    tc.active_view = nullptr;
    tx.consecutive_aborts = 0;
    tx.backoff.reset();
    tx.deadline = Deadline::none();
    tx.cm.end_run();
    throw stm::DeadlineExceeded{};
  }

  stm::TxEngine* engine = nullptr;
  if (config_.rac != RacMode::kDisabled) {
    // Escalation rung 2 (DESIGN.md §14): past serial_after consecutive
    // aborts the transaction stops gambling — it takes the view's serial
    // token (drains every admitted peer, pins effective Q = 1) and runs
    // irrevocably. begin_serial cannot abort, so serial_after bounds the
    // total aborts of any transaction: the progress guarantee.
    if (config_.escalation.enabled &&
        tx.consecutive_aborts >= config_.escalation.serial_after) {
      admission_.acquire_serial();
      if (tx.deadline.expired()) {
        // The serial drain may have consumed the rest of the budget, and a
        // serial transaction is irrevocable once begun — this handoff is
        // the last point where it can still be cancelled. The token MUST
        // go back before the throw: holding it would leave the gate closed
        // for every peer forever (the wedge this branch exists to prevent).
        admission_.release_serial();
        tc.active_view = nullptr;
        tx.consecutive_aborts = 0;
        tx.backoff.reset();
        tx.deadline = Deadline::none();
        tx.cm.end_run();
        throw stm::DeadlineExceeded{};
      }
      // Sampled after the serial drain; same ordering argument as below.
      engine = engine_.get();
      if (engine->speculative()) {
        epoch_.enter();
        tc.epoch_pinned = true;
      }
      engine->begin_serial(tx);
      return;
    }
    unsigned q = admission_.admit();
    // Mutation: pick the mode from a fresh quota load, a step after the
    // admission, so a set_quota can land in between.
    if (VOTM_FAULT(kLockModeStaleQuota)) {
      VOTM_SCHED_POINT(kViewQuotaReload);
      q = admission_.quota();
    }
    // engine_ must be sampled only after admission: switch_algorithm swaps
    // it while the view is paused and drained, and the admission gate's
    // release (resume) / acquire (admit) pair on the packed state word is
    // what orders the swap before this read (see DESIGN.md §11).
    engine = engine_.get();
    // Lock mode: a grant at quota 1 admits exactly one thread, and its
    // accesses run uninstrumented with no lock of their own. The quota
    // snapshot was taken atomically with the admission, and raising Q out
    // of 1 drains the view first, so a lock-mode execution can never
    // overlap another execution of either mode.
    if (q == 1 && engine->speculative()) {
      engine = &lock_engine_;
    }
  } else {
    engine = engine_.get();
  }
  // Epoch pin before the snapshot: from here until every exit path below,
  // the grace-period horizon cannot pass this transaction's era, so no
  // block it can still reach through view memory is handed back to the
  // arena — even if the transaction is already doomed (stm/epoch.hpp).
  // Lock mode (CGL) runs uninstrumented and alone in the view and frees
  // immediately; it never pins.
  if (engine->speculative()) {
    epoch_.enter();
    tc.epoch_pinned = true;
  }
  engine->begin(tx);
}

void View::exit(ThreadCtx& tc) {
  stm::TxThread& tx = tc.tx;
  if (!tx.in_tx || tc.active_view != this) {
    throw std::logic_error(
        tc.active_view != nullptr && tc.active_view != this
            ? "release_view: open transaction belongs to a different view"
            : "release_view without a matching acquire_view");
  }
  const bool serial = tx.serial;
  if (serial) {
    // Irrevocable: end_serial cannot fail, so everything below runs.
    tx.engine->end_serial(tx);
  } else {
    // May not return: a failed commit conflicts, which rolls back, leaves
    // the admission controller (rollback_trampoline) and transfers control
    // to the retry point.
    tx.engine->commit(tx);
  }

  tx.last_tx_cycles = stm::tx_elapsed_cycles(tx);
  totals_.add_commit(tx.last_tx_cycles);
  if (config_.collect_latency) commit_latency_.record(tx.last_tx_cycles);
  stm::end_common(tx);
  tx.consecutive_aborts = 0;
  tx.backoff.reset();
  tx.deadline = Deadline::none();  // the run is over; budgets never leak
  tx.cm.end_run();  // victim-choice priority must not leak either (§20)

  tc.tx_allocs.clear();
  apply_deferred_frees(tc);
  // Unpin only after the frees are retired: the blocks enter the limbo
  // list stamped at an era this pin still holds, so a concurrent reclaim
  // pass cannot free them before this store is visible.
  if (tc.epoch_pinned) {
    epoch_.exit();
    tc.epoch_pinned = false;
  }
  tc.active_view = nullptr;

  if (config_.rac != RacMode::kDisabled) {
    if (serial) {
      admission_.release_serial();
    } else {
      admission_.leave();
    }
  }
  note_event(tc);
  maybe_reclaim();
}

void View::rollback_trampoline(stm::TxThread& tx) {
  auto* view = static_cast<View*>(tx.rollback_arg);
  view->handle_abort(thread_ctx());
}

void View::misuse_trampoline(stm::TxThread& tx) {
  auto* view = static_cast<View*>(tx.rollback_arg);
  ThreadCtx& tc = thread_ctx();
  view->handle_abort(tc);
  tc.active_view = nullptr;  // no retry follows a misuse
}

void View::handle_abort(ThreadCtx& tc) {
  stm::TxThread& tx = tc.tx;
  // A serial transaction cannot reach here through conflict() (irrevocable
  // by construction), only through misuse(): it still holds the serial
  // token, which must be returned instead of an ordinary leave.
  const bool was_serial = tx.serial;
  tx.serial = false;
  if (config_.collect_latency) abort_latency_.record(tx.last_tx_cycles);
  // Whole-run streak high-water mark (watchdog diagnostic). conflict()
  // bumped the streak before invoking us.
  const std::uint64_t streak = tx.consecutive_aborts;
  std::uint64_t hwm = abort_streak_hwm_.load(std::memory_order_relaxed);
  while (streak > hwm &&
         !abort_streak_hwm_.compare_exchange_weak(
             hwm, streak, std::memory_order_relaxed)) {
  }
  undo_tx_allocs(tc);
  tc.tx_frees.clear();  // deferred frees die with the transaction
  // Unpin after the engine rollback (which already ran on the conflict
  // path): until here the aborted transaction's read set could still be
  // consulted by value validation, and its era pin is what kept those
  // blocks out of the arena.
  if (tc.epoch_pinned) {
    epoch_.exit();
    tc.epoch_pinned = false;
  }
  if (config_.rac != RacMode::kDisabled) {
    if (was_serial) {
      admission_.release_serial();
    } else {
      admission_.leave();
    }
  }
  note_event(tc);
  aging_pause(tx, streak);
  // tc.active_view intentionally stays set: the retry re-enters this view.
}

void View::aging_pause(stm::TxThread& tx, std::uint64_t streak) {
  const EscalationConfig& esc = config_.escalation;
  if (!esc.enabled || streak < esc.aging_after || streak >= esc.serial_after) {
    return;
  }
  // Past-deadline transactions must not sleep an aging pause: the next
  // entry will surface DeadlineExceeded, and the pause would stretch the
  // "one bounded backoff step" contract by the full aged weight.
  if (tx.deadline.expired()) return;
  // Under the cooperative harness a spin pause is pure schedule noise and
  // would blow the bounded-exploration step budget; the ladder's timing
  // rung is exercised by the real-thread tests instead.
  if (votm::check::thread_intercepted()) return;
  const stm::StatsSnapshot s = totals_.fold();
  const std::uint64_t weight = s.aborts != 0 ? s.aborted_cycles / s.aborts : 0;
  tx.backoff.pause_aged(weight,
                        static_cast<unsigned>(streak - esc.aging_after));
}

void View::abort_for_exception(ThreadCtx& tc) {
  stm::TxThread& tx = tc.tx;
  const bool was_entered = tc.active_view == this;
  const bool was_serial = tx.serial;
  // Roll back only a transaction this view owns: when the cross-view
  // misuse guard in enter() fired, the open transaction belongs to another
  // view, whose own exception handler (the guard's logic_error propagates
  // through it) rolls back and accounts it against the right totals.
  if (was_entered && tx.in_tx && tx.engine != nullptr) {
    // For a serial transaction the engine rollback releases whatever
    // global lock begin_serial pinned (NOrec/TML seqlock); its in-place
    // writes stand, mutex semantics.
    tx.engine->rollback(tx);
    tx.clear_logs();
    // An exception-killed transaction is an abort like any other: its cycles
    // are wasted work and belong in the view totals (Eq. 5's aborted-cycles
    // numerator), not silently dropped.
    tx.last_tx_cycles = stm::tx_elapsed_cycles(tx);
    totals_.add_abort(tx.last_tx_cycles);
    if (config_.collect_latency) abort_latency_.record(tx.last_tx_cycles);
    stm::end_common(tx);
  }
  // The retry streak ends here (no retry follows), so the backoff state
  // must not leak into this thread's next, unrelated transaction.
  tx.consecutive_aborts = 0;
  tx.backoff.reset();
  tx.serial = false;
  tx.deadline = Deadline::none();
  tx.cm.end_run();  // terminal path: CM priority dies with the run (§20)
  undo_tx_allocs(tc);
  tc.tx_frees.clear();
  // Only a transaction this view entered can hold a pin in this view's
  // tracker (the cross-view misuse guard fires before enter() pins).
  if (was_entered && tc.epoch_pinned) {
    epoch_.exit();
    tc.epoch_pinned = false;
  }
  tc.active_view = nullptr;
  // The misuse path has already left the admission controller (and cleared
  // active_view); a second leave() here would underflow P.
  if (was_entered) {
    if (config_.rac != RacMode::kDisabled) {
      if (was_serial) {
        admission_.release_serial();
      } else {
        admission_.leave();
      }
    }
    note_event(tc);
  }
}

void View::undo_tx_allocs(ThreadCtx& tc) {
  for (auto& [arena, block] : tc.tx_allocs) {
    arena->free(block);
  }
  tc.tx_allocs.clear();
}

void View::apply_deferred_frees(ThreadCtx& tc) {
  if (tc.tx_frees.empty()) return;
  // Commit-time frees do not return to the arena here: another transaction
  // may have read the block before this commit published (and be doomed
  // but not yet rolled back). Retire to the limbo list instead; a reclaim
  // pass frees the block once every pin has advanced past this era
  // (stm/epoch.hpp, DESIGN.md §17).
  for (auto& [arena, block] : tc.tx_frees) {
    (void)arena;  // transactional frees are always against this view's arena
    limbo_.retire(epoch_, block);
  }
  tc.tx_frees.clear();
}

std::size_t View::reclaim_pass(bool force) {
  // Before any lock: the explorer may park a thread here (and interleave
  // peers between the era advance and the frees), so no blockable mutex
  // can be held yet.
  VOTM_SCHED_POINT(kEpochAdvance);
  return limbo_.reclaim(epoch_, force,
                        [this](void* block) { arena_.free(block); });
}

void View::maybe_reclaim() {
  const std::size_t depth = limbo_.depth();
  const std::size_t soft = config_.limbo_soft_watermark;
  const std::size_t hard = config_.limbo_hard_watermark;
  // Fault site: drives the hard-watermark branch without a real pile-up,
  // so the shed path is unit-testable in milliseconds.
  const bool fault_hard = VOTM_FAULT(kLimboWatermark);
  const bool over_hard = fault_hard || (hard != 0 && depth >= hard);
  if (over_hard || (soft != 0 && depth >= soft)) {
    // Soft watermark: production is outpacing the amortized passes — stop
    // asking politely (try-lock) and force a full pass now.
    limbo_soft_passes_.fetch_add(1, std::memory_order_relaxed);
    reclaim_pass(/*force=*/true);
    if (over_hard && config_.rac != RacMode::kDisabled &&
        (fault_hard || limbo_.depth() >= hard)) {
      // Hard watermark, still over after a forced pass: reclamation can
      // not keep up at this admission level, so shed quota (halve toward
      // 1 — RAC's own lever) and degrade to slower-but-bounded instead of
      // exhausting the arena. One shedder at a time; lowering the quota
      // never drain-waits, so this cannot stall the exit path.
      if (!shedding_.exchange(true, std::memory_order_acquire)) {
        const unsigned q = admission_.quota();
        if (q > 1) {
          admission_.set_quota(q - q / 2);
          limbo_quota_sheds_.fetch_add(1, std::memory_order_relaxed);
        }
        shedding_.store(false, std::memory_order_release);
      }
    }
    return;
  }
  if (config_.reclaim_threshold == 0) return;
  if (limbo_.retired_since_pass() < config_.reclaim_threshold) return;
  reclaim_pass(/*force=*/false);
}

std::size_t View::reclaim_garbage(bool force) {
  return reclaim_pass(force);
}

unsigned View::quota() const {
  return admission_.quota();
}

void View::set_quota(unsigned q) {
  admission_.set_quota(q);
}

double View::whole_run_delta() const {
  return rac::delta_q(stats(), quota());
}

stm::Algo View::algorithm() const {
  std::lock_guard<std::mutex> lk(algo_mu_);
  return config_.algo;
}

void View::switch_algorithm(stm::Algo algo) {
  if (config_.rac == RacMode::kDisabled) {
    throw std::logic_error(
        "switch_algorithm needs admission control to quiesce the view");
  }
  std::lock_guard<std::mutex> lk(algo_mu_);
  if (algo == config_.algo) return;
  admission_.pause();  // blocks new admissions, waits for in-flight txs
  engine_ = stm::make_engine(algo, config_.engine);
  config_.algo = algo;
  admission_.resume();
}

void View::note_event(ThreadCtx& tc) {
  if (config_.rac != RacMode::kAdaptive) return;
  // Local pacing before the O(stripes) fold. The stride is per-thread, so
  // the trigger fires at most stride * threads events past the threshold —
  // noise at the default 2048-event epoch (stride is 1 for short epochs).
  if (adapt_check_stride_ > 1) {
    if (++tc.events_to_adapt_check < adapt_check_stride_) return;
    tc.events_to_adapt_check = 0;
  }
  const std::uint64_t events = totals_.event_count();
  if (events < next_adapt_at_.value.load(std::memory_order_relaxed)) return;
  // One adapter at a time; losers skip (the winner will reset the epoch).
  if (!adapt_mu_.try_lock()) return;
  adapt_locked();
  adapt_mu_.unlock();
}

void View::adapt_locked() {
  const stm::StatsSnapshot now = stats();
  const std::uint64_t events = now.commits + now.aborts;
  if (events < next_adapt_at_.value.load(std::memory_order_relaxed)) return;  // raced

  stm::StatsSnapshot epoch = now;
  epoch.aborted_cycles -= epoch_base_.aborted_cycles;
  epoch.committed_cycles -= epoch_base_.committed_cycles;
  epoch.aborts -= epoch_base_.aborts;
  epoch.commits -= epoch_base_.commits;

  const unsigned q = admission_.quota();
  const double delta = rac::delta_q(epoch, q);
  const unsigned next_q = policy_.next_quota(q, delta, epoch.aborts);
  if (next_q != q) {
    admission_.set_quota(next_q);
  }
  if (config_.trace_adaptation) {
    trace_.record(rac::TracePoint{events, epoch.commits, epoch.aborts, delta,
                                  q, next_q});
  }
  if (config_.algo_adapt.enabled) {
    const stm::Algo next_algo =
        algo_selector_.next_algo(config_.algo, epoch, delta);
    if (next_algo != config_.algo) {
      switch_algorithm(next_algo);
    }
  }
  epoch_base_ = now;
  next_adapt_at_.value.store(events + config_.adapt_interval, std::memory_order_relaxed);
}

}  // namespace votm::core
