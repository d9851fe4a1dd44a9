// View: the unit of sharing in VOTM.
//
// A view bundles (1) a memory arena, (2) a private STM instance — its own
// metadata, so distinct views never contend on clocks or orecs — and
// (3) a RAC admission controller with quota Q in [1, N]:
//
//   acquire_view:  admit (block while P >= Q), then begin a transaction;
//                  at Q == 1 the view switches to lock mode: the grant
//                  admits nobody else, and accesses run uninstrumented.
//   release_view:  try to commit; on failure roll back, leave (P -= 1) and
//                  re-acquire — exactly the paper's Sec. II protocol.
//
// Two user-facing protocols sit on this class:
//   * View::execute(lambda)  — C++ retry loop (aborts throw internally);
//   * acquire_view/release_view macros (core/votm.hpp) — the paper's
//     Table I C API, with longjmp back to the acquire point on abort.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>

#include "core/arena.hpp"
#include "core/config.hpp"
#include "core/thread_ctx.hpp"
#include "rac/admission.hpp"
#include "rac/delta.hpp"
#include "rac/policy.hpp"
#include "rac/trace.hpp"
#include "stm/cgl.hpp"
#include "stm/engine.hpp"
#include "stm/epoch.hpp"
#include "stm/factory.hpp"
#include "util/cacheline.hpp"
#include "util/histogram.hpp"
#include "util/watchdog.hpp"

namespace votm::core {

class View {
 public:
  explicit View(ViewConfig config);

  View(const View&) = delete;
  View& operator=(const View&) = delete;

  // ---- memory (transaction-aware) ----------------------------------------
  // Inside a transaction on this view, allocations are undone if the
  // transaction aborts and frees are deferred to commit; outside they act
  // immediately.
  void* alloc(std::size_t size);
  void free(void* ptr);
  void brk(std::size_t bytes) { arena_.extend(bytes); }
  Arena& arena() noexcept { return arena_; }

  // Grace-period reclamation (stm/epoch.hpp, DESIGN.md §17). Transactional
  // frees retire blocks to a limbo list at commit; they return to the
  // arena only once every thread's epoch pin has advanced past the
  // retiring era, so no concurrent (or doomed) transaction can still
  // dereference them. Reclaim passes run amortized from transaction exits
  // (ViewConfig::reclaim_threshold); this forces one now — e.g. before an
  // allocated() audit, or at a phase boundary. Returns blocks reclaimed.
  // With force = false it degrades to the amortized try-lock pass.
  std::size_t reclaim_garbage(bool force = true);
  std::size_t limbo_depth() const noexcept { return limbo_.depth(); }
  stm::ReclaimStats reclaim_stats() const noexcept { return limbo_.stats(); }

  // ---- lambda API ---------------------------------------------------------
  template <typename Body>
  void execute(Body&& body) {
    run(static_cast<Body&&>(body), /*read_only=*/false);
  }
  template <typename Body>
  void execute_read(Body&& body) {
    run(static_cast<Body&&>(body), /*read_only=*/true);
  }

  // ---- bounded-time runs (DESIGN.md §19) ----------------------------------
  // Like execute(), but the whole run — body plus every conflict retry —
  // must finish within `budget` (run_for) or by `deadline` (run_until);
  // past that point the run throws stm::DeadlineExceeded instead of
  // retrying, within one bounded validation/backoff step. Overrides
  // ViewConfig::tx_deadline_ns for this run only (Deadline::none()
  // disables it). A run that escalated to the serial token is irrevocable
  // once begun — the deadline is enforced at the token handoff, where the
  // token is released before the throw, never while holding it.
  template <typename Body>
  void run_for(std::chrono::nanoseconds budget, Body&& body) {
    run_until(Deadline::after(budget), static_cast<Body&&>(body));
  }
  template <typename Body>
  void run_until(Deadline deadline, Body&& body, bool read_only = false) {
    ThreadCtx& tc = thread_ctx();
    tc.pending_deadline = deadline;
    tc.has_pending_deadline = true;
    run(static_cast<Body&&>(body), read_only);
  }

  // execute_read that returns the body's value. The read-only hint reaches
  // the engines (tx.read_only), so the transaction takes the RO commit
  // fast path — zero version-clock traffic and no write-set reset. A
  // slipped writer commit is handled like any other: extend the snapshot
  // if the reads still hold, else conflict and re-run. The containers
  // route their read operations (lookups, size, iteration) here when
  // called outside a transaction. The body may run several times
  // (conflict retry); its result is overwritten each attempt.
  template <typename Body>
  auto run_read(Body&& body) {
    using Result = std::invoke_result_t<Body&>;
    if constexpr (std::is_void_v<Result>) {
      run(static_cast<Body&&>(body), /*read_only=*/true);
    } else {
      std::optional<Result> result;
      run([&] { result.emplace(body()); }, /*read_only=*/true);
      return std::move(*result);
    }
  }

  // ---- staged protocol (C API / drivers) ----------------------------------
  // Admission + transaction begin. On abort, control re-enters here via the
  // retry mechanism; admission is re-run each time (paper: "decrease P by 1,
  // and reacquire the view").
  void enter(ThreadCtx& tc, bool read_only);

  // Commit + bookkeeping + leave. If the commit fails this call does not
  // return normally: the abort path re-runs the transaction body.
  void exit(ThreadCtx& tc);

  // ---- introspection -------------------------------------------------------
  unsigned quota() const;
  unsigned max_threads() const noexcept { return config_.max_threads; }
  const ViewConfig& config() const noexcept { return config_; }
  stm::TxEngine& engine() noexcept { return *engine_; }
  const rac::AdmissionController& admission() const noexcept {
    return admission_;
  }

  // Monotonic whole-run statistics (the tables' #abort / #tx / cycles rows).
  // Folds the per-thread stripes; equal to the old single-counter totals.
  stm::StatsSnapshot stats() const noexcept { return totals_.fold(); }

  // delta(Q) over the whole run at the current quota (tables' final row).
  double whole_run_delta() const;

  // Latency histograms (populated only when config.collect_latency).
  const Log2Histogram& commit_latency() const noexcept { return commit_latency_; }
  const Log2Histogram& abort_latency() const noexcept { return abort_latency_; }

  // Adaptation decision trace (populated only when config.trace_adaptation).
  const rac::AdaptationTrace& adaptation_trace() const noexcept {
    return trace_;
  }

  // One watchdog poll of this view's health counters. Cheap enough to call
  // on a 50ms period (one stats fold + one admission sample + a few atomic
  // loads); wire into a LivelockWatchdog as `[&] { return view.health(); }`.
  // The (quota, admitted, serial_holder) triple comes from ONE admission
  // snapshot (AdmissionController::sample), so it is a state that actually
  // existed — three separate getter calls could interleave a set_quota or
  // serial drain and report a pair that never coexisted.
  WatchdogSample health() const noexcept {
    const stm::StatsSnapshot s = totals_.fold();
    const rac::AdmissionController::Sample adm = admission_.sample();
    WatchdogSample w;
    w.commits = s.commits;
    w.aborts = s.aborts;
    w.consecutive_abort_hwm =
        abort_streak_hwm_.load(std::memory_order_relaxed);
    w.quota = adm.quota;
    w.admitted = adm.admitted;
    w.serial_holder = adm.serial_holder;
    const stm::ReclaimStats rs = limbo_.stats();
    w.overload.limbo_depth = rs.depth;
    w.overload.limbo_depth_hwm = rs.depth_hwm;
    w.overload.soft_watermark = config_.limbo_soft_watermark;
    w.overload.hard_watermark = config_.limbo_hard_watermark;
    w.overload.soft_passes =
        limbo_soft_passes_.load(std::memory_order_relaxed);
    w.overload.quota_sheds =
        limbo_quota_sheds_.load(std::memory_order_relaxed);
    w.overload.overloaded = config_.limbo_soft_watermark != 0 &&
                            rs.depth >= config_.limbo_soft_watermark;
    return w;
  }

  // Worst consecutive-abort streak any transaction on this view has
  // reached (whole-run high-water mark; escalation resets the streak but
  // not the mark).
  std::uint64_t consecutive_abort_hwm() const noexcept {
    return abort_streak_hwm_.load(std::memory_order_relaxed);
  }

  // Manual quota override (e.g. the paper's "programmer sets Q of a hot
  // view to 1"); honours the lock-mode drain protocol.
  void set_quota(unsigned q);

  // The algorithm currently running this view (may change at runtime when
  // algo_adapt is enabled).
  stm::Algo algorithm() const;

  // Safely replaces the view's TM algorithm: blocks new admissions, waits
  // for in-flight transactions to finish, swaps the engine (fresh metadata),
  // and resumes. Requires admission control (rac != kDisabled) — without it
  // there is no way to quiesce the view.
  void switch_algorithm(stm::Algo algo);

 private:
  template <typename Body>
  void run(Body&& body, bool read_only) {
    ThreadCtx& tc = thread_ctx();
    stm::TxThread& tx = tc.tx;
    tx.abort_mode = stm::AbortMode::kThrow;
    for (;;) {
      try {
        enter(tc, read_only);
      } catch (const stm::TxConflict& c) {
        // Begin-time conflict: the engine's begin() ends in a deadline
        // poll, so a budget that expires between enter()'s pre-admission
        // check and that poll surfaces here. Rollback and admission leave
        // already ran on the conflict path; translate exactly like the
        // in-body case below. (enter()'s own throws — DeadlineExceeded
        // from the pre-admission check, logic_error on misuse — are not
        // TxConflict and pass through untouched.)
        if (c.kind == stm::ConflictKind::kDeadline) {
          tc.active_view = nullptr;
          tx.consecutive_aborts = 0;
          tx.backoff.reset();
          tx.deadline = Deadline::none();
          tx.cm.end_run();
          throw stm::DeadlineExceeded{};
        }
        tx.backoff.pause();
        continue;
      }
      try {
        body();
        exit(tc);
        return;
      } catch (const stm::TxConflict& c) {
        // Rollback, admission leave and event accounting already happened
        // on the conflict path.
        if (c.kind == stm::ConflictKind::kDeadline) {
          // Past-deadline: surface the defined outcome instead of
          // retrying. The abort path left active_view set for a retry
          // that will not happen.
          tc.active_view = nullptr;
          tx.consecutive_aborts = 0;
          tx.backoff.reset();
          tx.deadline = Deadline::none();
          tx.cm.end_run();
          throw stm::DeadlineExceeded{};
        }
        // Pace the retry — unless the budget already ran out, in which
        // case the next enter() surfaces DeadlineExceeded immediately.
        if (!tx.deadline.expired()) tx.backoff.pause();
        continue;
      } catch (...) {
        abort_for_exception(tc);
        throw;
      }
    }
  }

  // Called (via TxThread::on_rollback) after the engine rolled back but
  // before control transfer: undoes transactional allocations, leaves the
  // admission controller and runs the adaptation check.
  static void rollback_trampoline(stm::TxThread& tx);
  static void misuse_trampoline(stm::TxThread& tx);
  void handle_abort(ThreadCtx& tc);

  // Escalation rung 1 (aging_after <= streak < serial_after): pace the
  // retry by the view's average aborted-transaction cost.
  void aging_pause(stm::TxThread& tx, std::uint64_t streak);

  // User exception escaped the body: roll back and release everything
  // without retrying.
  void abort_for_exception(ThreadCtx& tc);

  void undo_tx_allocs(ThreadCtx& tc);
  // Retires the transaction's deferred frees into the limbo list.
  void apply_deferred_frees(ThreadCtx& tc);
  // One reclaim pass over the limbo list. Touches only the limbo list and
  // the arena — never the engine — so it takes no view lock and is safe
  // both inside a transaction (the allocation-pressure path) and during
  // switch_algorithm.
  std::size_t reclaim_pass(bool force);
  void maybe_reclaim();

  // Epoch bookkeeping: called after every commit/abort event. Folding the
  // striped event count is O(stripes), so each thread only checks the epoch
  // trigger every adapt_check_stride_ of its own events.
  void note_event(ThreadCtx& tc);
  void adapt_locked();

  ViewConfig config_;
  std::unique_ptr<stm::TxEngine> engine_;
  // Q == 1 fallback (paper Sec. II). No mutex: the Q == 1 grant that picks
  // it is already exclusive (DESIGN.md §11).
  stm::CglEngine lock_engine_{/*take_mutex=*/false};
  Arena arena_;
  rac::AdmissionController admission_;
  rac::AdaptivePolicy policy_;
  AlgoSelector algo_selector_;
  mutable std::mutex algo_mu_;  // guards config_.algo reads vs switches

  // Grace-period tracker + limbo list for commit-time frees (DESIGN.md
  // §17). Per-view, like the rest of the STM metadata: transactions on
  // other views never scan these slots.
  stm::EpochTracker epoch_;
  stm::LimboList limbo_;

  stm::StripedEpochStats totals_;
  // Limbo backpressure accounting (DESIGN.md §19): forced passes taken at
  // the soft watermark, quota halvings applied at the hard one, and the
  // flag that keeps concurrent exits from shedding quota simultaneously.
  std::atomic<std::uint64_t> limbo_soft_passes_{0};
  std::atomic<std::uint64_t> limbo_quota_sheds_{0};
  std::atomic<bool> shedding_{false};
  // Whole-run consecutive-abort high-water mark (watchdog diagnostic).
  // Updated on the abort path only, where a relaxed CAS-max is noise next
  // to the rollback itself.
  std::atomic<std::uint64_t> abort_streak_hwm_{0};
  unsigned adapt_check_stride_ = 1;
  Log2Histogram commit_latency_;
  Log2Histogram abort_latency_;
  rac::AdaptationTrace trace_;
  std::mutex adapt_mu_;
  stm::StatsSnapshot epoch_base_;  // guarded by adapt_mu_
  // Event-count threshold for the next adaptation check. Every thread loads
  // it on (its stride of) commit/abort events, while the epoch closer
  // writes it and mutates the neighbouring adapt_mu_/epoch_base_/trace_
  // state — on its own cache line those hot reads stop riding the
  // adaptation bookkeeping's invalidations.
  CacheLinePadded<std::atomic<std::uint64_t>> next_adapt_at_{};
};

}  // namespace votm::core
