// The transactional engine interface and the per-thread descriptor.
//
// Mirrors RSTM's structure at the scale this reproduction needs: an engine
// (one *instance* per view, carrying that view's private metadata) exposes
// begin/read/write/commit/rollback; a TxThread carries the thread's logs,
// abort-control state and cycle accounting, and is reused across
// transactions. VOTM builds on top: each View owns one engine instance and
// wraps admission control (RAC) around begin/commit.
#pragma once

#include <csetjmp>
#include <cstdint>
#include <string>

#include "stm/abort.hpp"
#include "stm/cm_policy.hpp"
#include "stm/logs.hpp"
#include "stm/orec_table.hpp"
#include "stm/txstats.hpp"
#include "util/backoff.hpp"
#include "util/cycles.hpp"
#include "util/deadline.hpp"

namespace votm::stm {

class TxEngine;

// How control returns to the retry point after a rollback.
enum class AbortMode : std::uint8_t {
  kThrow,    // throw TxConflict; a C++ retry loop catches it
  kLongjmp,  // longjmp to the checkpoint captured by acquire_view()
};

// Per-orec lock record kept by encounter-time engines so aborts can restore
// the pre-lock version.
struct OwnedOrec {
  Orec* orec;
  std::uint64_t old_version;
};

// TxThread::barrier bits: which word accesses core::vread/vwrite (and
// vread_for_write) route through the engine. Speculative engines take both.
// Lock mode and CGL take none, so an access is a plain load_word/store_word,
// except in a read-only transaction, whose writes still reach the engine
// so that it can report the misuse.
inline constexpr std::uint8_t kReadBarrier = 1;
inline constexpr std::uint8_t kWriteBarrier = 2;
inline constexpr std::uint8_t kAllBarriers = kReadBarrier | kWriteBarrier;

// Per-thread transaction descriptor. One per OS thread (thread_local in the
// core layer); engines keep no per-thread state of their own.
struct TxThread {
  TxThread() noexcept : barrier(own_barrier_) {}
  // A descriptor whose barrier byte lives elsewhere: core::ThreadCtx keeps
  // it in trivially initialised thread-local storage, where the accessors
  // read it without touching the descriptor.
  explicit TxThread(std::uint8_t& barrier_byte) noexcept
      : barrier(barrier_byte) {}
  TxThread(const TxThread&) = delete;
  TxThread& operator=(const TxThread&) = delete;

  // --- identity / control -------------------------------------------------
  TxEngine* engine = nullptr;  // engine of the active transaction, else null
  bool in_tx = false;
  // The running transaction's kReadBarrier/kWriteBarrier bits; zero
  // outside a transaction. Set by begin_common, cleared by end_common.
  std::uint8_t& barrier;
  bool read_only = false;
  AbortMode abort_mode = AbortMode::kThrow;
  std::jmp_buf* checkpoint = nullptr;  // valid in kLongjmp mode

  // Invoked after rollback, before control transfer; the VOTM layer uses it
  // to leave the admission controller (paper Sec. II: "abort and roll back
  // the transaction, decrease P by 1, and reacquire the view").
  void (*on_rollback)(TxThread&) = nullptr;
  // Invoked instead of on_rollback when the transaction dies for good (API
  // misuse): the owner must release admission AND forget the active view,
  // since no retry follows.
  void (*on_misuse)(TxThread&) = nullptr;
  void* rollback_arg = nullptr;  // the View, in the core layer

  // --- logs (engine-specific subsets are used) ----------------------------
  WriteSet wset;                  // redo log (NOrec, OrecEagerRedo)
  ValueReadLog vlog;              // value-based read log (NOrec)
  OrecReadLog rlog;               // orec read log (orec engines)
  std::vector<OwnedOrec> wlocks;  // orecs locked at encounter time

  // --- snapshots -----------------------------------------------------------
  std::uint64_t snapshot = 0;    // NOrec/TML sequence-lock snapshot
  std::uint64_t start_time = 0;  // OrecEagerRedo begin timestamp

  // --- accounting ----------------------------------------------------------
  // Per-transaction cycle telemetry (the delta(Q) estimator's and the
  // latency histograms' input). The view layer depends on it and leaves it
  // on; standalone harnesses measuring sub-100ns commits may turn it off —
  // two rdtsc per transaction (~30ns on the reference host) otherwise
  // dominate the path being measured.
  bool collect_cycles = true;
  std::uint64_t tx_start_cycles = 0;
  // Cycles to subtract from this transaction's duration when it ends:
  // cooperative in-tx yields (harness-injected to force transaction overlap
  // on oversubscribed hosts) are stand-ins for free parallel overlap and
  // must not pollute the delta(Q) estimator or the cycle tables.
  std::uint64_t excluded_cycles = 0;
  // Net duration of the most recently ended transaction (commit or abort);
  // consumed by the view layer for latency histograms.
  std::uint64_t last_tx_cycles = 0;
  std::uint64_t consecutive_aborts = 0;
  StripedEpochStats* stats = nullptr;  // owning view's counters (may be null)
  Backoff backoff{BackoffPolicy::kNone};
  // Set between begin_serial() and end_serial(): the transaction holds the
  // view's serial token, runs alone, and must not abort (escalation ladder,
  // DESIGN.md §14). Engines branch to plain accesses on it.
  bool serial = false;
  // Bounded-time budget (DESIGN.md §19). Armed by the View layer on fresh
  // entry (ViewConfig::tx_deadline_ns or a per-run override) and held
  // across retries of the same run; engines poll it at their bounded
  // re-validation points and call conflict(kDeadline) when it has passed.
  // Serial (irrevocable) transactions never poll it mid-flight — in-place
  // serial writes cannot be cancelled — so the enforcement point for the
  // escalation path is the token handoff in View::enter.
  Deadline deadline;
  // Victim-choice CM state (stm/cm_policy.hpp, DESIGN.md §20): karma
  // accumulator, run age, window slot and the published priority.
  // Accumulates across retries of one run; every terminal path (commit,
  // DeadlineExceeded, user exception, misuse) calls cm.end_run().
  CmState cm;

  // Rolls back the active transaction and transfers control to the retry
  // point. Never returns.
  [[noreturn]] void conflict(ConflictKind kind);

  // Rolls back and throws std::logic_error: API misuse (e.g. a write inside
  // a read-only acquire_Rview transaction). Deliberately NOT a TxConflict,
  // so retry loops propagate it to the caller instead of re-executing.
  [[noreturn]] void misuse(const char* what);

  void clear_logs() noexcept {
    wset.clear();
    vlog.clear();
    rlog.clear();
    wlocks.clear();
  }

 private:
  std::uint8_t own_barrier_ = 0;
};

// Orec::pack_owner tags the owner TxThread* with the orec word's LSB lock
// bit and owner_of() masks it back off — lossless only while no TxThread
// can sit at an odd address. Any future packing/alignment change to this
// struct (or a byte-aligned allocation of it) would silently corrupt the
// tag, so pin the contract where the complete type exists.
static_assert(alignof(TxThread) >= 2,
              "Orec::pack_owner steals the TxThread pointer's LSB as the "
              "lock tag; TxThread must never be byte-aligned");

// The engines' bounded deadline poll: a no-op comparison when no deadline
// is armed, conflict(kDeadline) once it has passed. Placed at validation
// and commit entries and inside wait/spin loops — the points whose spacing
// bounds how long a past-deadline transaction can keep running. Serial
// transactions are exempt (irrevocable; see TxThread::deadline).
inline void deadline_poll(TxThread& tx) {
  if (!tx.serial && tx.deadline.expired()) {
    tx.conflict(ConflictKind::kDeadline);
  }
}

// One engine instance per view. All virtual methods are called with the
// TxThread of the executing thread; `read`/`write` are only called between
// a successful `begin` and the matching `commit`/rollback.
class TxEngine {
 public:
  virtual ~TxEngine() = default;

  virtual const char* name() const noexcept = 0;

  // True for engines that speculate (can abort); false for CGL, whose
  // "transactions" are plain critical sections.
  virtual bool speculative() const noexcept { return true; }

  virtual void begin(TxThread& tx) = 0;
  virtual Word read(TxThread& tx, const Word* addr) = 0;
  virtual void write(TxThread& tx, Word* addr, Word value) = 0;

  // Read-for-write (the TM ABI's RfW barrier): reads a word the
  // transaction is about to write. Engines that lock at encounter time
  // take the covering orec here, so a read-modify-write meets a foreign
  // lock once, as a writer, instead of reading and then upgrading. The
  // default is read(): engines that lock later (NOrec and OrecLazy at
  // commit, TML at its first write) or never (CGL) gain nothing from
  // locking early. Like write(), it is misuse inside a read-only
  // transaction.
  virtual Word read_for_write(TxThread& tx, Word* addr) {
    if (tx.read_only) {
      tx.misuse("read_for_write inside a read-only transaction "
                "(acquire_Rview)");
    }
    return read(tx, addr);
  }

  // Attempts to commit; on failure calls tx.conflict() (does not return).
  virtual void commit(TxThread& tx) = 0;

  // Releases engine-held resources of an in-flight transaction (locks,
  // logs). Must be idempotent with respect to a cleanly finished tx.
  virtual void rollback(TxThread& tx) = 0;

  // Irrevocable (serial) mode. The caller guarantees the transaction runs
  // alone in its view (the admission controller holds the serial token and
  // has drained every admitted peer), so between begin_serial() and
  // end_serial() the engine must never call tx.conflict(): commit is
  // unconditional. The defaults suit engines whose speculation is harmless
  // when single-threaded (the orec engines commit a drained view's logs
  // against an uncontended clock; CGL is already a critical section);
  // NOrec and TML override to pin their global sequence lock so late
  // concurrent beginners in the draining window wait instead of racing.
  virtual void begin_serial(TxThread& tx) {
    begin(tx);
    tx.serial = true;
  }
  // Commits the serial transaction; must not fail.
  virtual void end_serial(TxThread& tx) {
    tx.serial = false;
    commit(tx);
  }
};

// Marks the logical start of a transaction for cycle accounting. Engines
// call this at the end of begin(), after any initial waiting (waiting for a
// writer's sequence lock or a mutex is admission time, not transaction
// time, and must not pollute the delta(Q) estimate).
inline void begin_common(TxThread& tx, TxEngine* engine,
                         std::uint8_t barrier = kAllBarriers) noexcept {
  tx.engine = engine;
  tx.in_tx = true;
  tx.barrier = barrier;
  tx.tx_start_cycles = tx.collect_cycles ? rdcycles() : 0;
  tx.excluded_cycles = 0;
}

// Marks the end of a transaction (commit, abort or misuse): the thread's
// accesses are plain again.
inline void end_common(TxThread& tx) noexcept {
  tx.in_tx = false;
  tx.engine = nullptr;
  tx.barrier = 0;
}

// Cycles this transaction has consumed so far, net of excluded time.
inline std::uint64_t tx_elapsed_cycles(const TxThread& tx) noexcept {
  const std::uint64_t elapsed = rdcycles() - tx.tx_start_cycles;
  return elapsed > tx.excluded_cycles ? elapsed - tx.excluded_cycles : 0;
}

// Runs `body` as a transaction on `engine` with automatic retry; the
// standalone STM entry point used by the tests and by code that does not
// need views/RAC. `body` receives (tx) and must perform all shared accesses
// through engine.read/engine.write (or the typed helpers in core/access.hpp).
template <typename Body>
void atomically(TxEngine& engine, TxThread& tx, Body&& body) {
  tx.abort_mode = AbortMode::kThrow;
  for (;;) {
    engine.begin(tx);
    try {
      body(tx);
      engine.commit(tx);
      tx.last_tx_cycles = tx.collect_cycles ? tx_elapsed_cycles(tx) : 0;
      if (tx.stats != nullptr) {
        tx.stats->add_commit(tx.last_tx_cycles);
      }
      end_common(tx);
      tx.consecutive_aborts = 0;
      tx.backoff.reset();
      tx.cm.end_run();
      return;
    } catch (const TxConflict& c) {
      if (c.kind == ConflictKind::kDeadline) {
        // Past-deadline: conflict() already rolled back and accounted the
        // abort; surface the defined status instead of re-executing.
        tx.consecutive_aborts = 0;
        tx.backoff.reset();
        tx.deadline = Deadline::none();
        tx.cm.end_run();
        throw DeadlineExceeded{};
      }
      tx.backoff.pause();
      continue;  // conflict() already rolled back and accounted
    } catch (...) {
      // User exception: roll back side effects, then propagate.
      engine.rollback(tx);
      tx.clear_logs();
      end_common(tx);
      tx.cm.end_run();
      throw;
    }
  }
}

}  // namespace votm::stm
