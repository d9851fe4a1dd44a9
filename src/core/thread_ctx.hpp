// Per-thread VOTM state.
//
// One ThreadCtx per OS thread carries the STM descriptor, the C-API
// longjmp checkpoint, the pending acquire parameters (which must survive
// the longjmp back to the retry point), and the transactional-memory-
// management logs (allocations to undo on abort, frees to apply at
// commit).
#pragma once

#include <csetjmp>
#include <cstdint>
#include <vector>

#include "stm/engine.hpp"

namespace votm::core {

class Arena;
class View;

namespace detail {
// The thread's ThreadCtx::tx and its barrier byte (TxThread::barrier), in
// trivially initialised thread-local storage, so that vread/vwrite reach
// them with plain TLS loads and no construction guard. The byte is written
// only through tx, so a nonzero byte means the context exists and tls_tx
// points at its descriptor.
inline thread_local std::uint8_t tls_barrier = 0;
inline thread_local stm::TxThread* tls_tx = nullptr;
}  // namespace detail

struct ThreadCtx {
  ThreadCtx() noexcept { detail::tls_tx = &tx; }
  ~ThreadCtx() { detail::tls_tx = nullptr; }

  stm::TxThread tx{detail::tls_barrier};

  // Active view while inside an acquire/release (or View::execute) pair.
  View* active_view = nullptr;

  // Commit/abort events since this thread last folded a view's striped
  // event count for the adaptation-epoch check (see View::note_event).
  unsigned events_to_adapt_check = 0;

  // C-style API (acquire_view macro) state.
  std::jmp_buf checkpoint;
  View* pending_view = nullptr;
  bool pending_read_only = false;

  // Per-run deadline override (View::run_for / run_until): consumed by the
  // next fresh View entry in place of ViewConfig::tx_deadline_ns. The flag
  // makes "override to none" representable.
  Deadline pending_deadline = Deadline::none();
  bool has_pending_deadline = false;

  // Transactional memory management: blocks allocated by the current
  // transaction (undone on abort) and blocks whose free is deferred until
  // the transaction commits, so an abort cannot leak or double-free.
  std::vector<std::pair<Arena*, void*>> tx_allocs;
  std::vector<std::pair<Arena*, void*>> tx_frees;

  // True while this thread holds an epoch pin in active_view's grace-
  // period tracker (stm/epoch.hpp); set by View::enter for speculative
  // engines, cleared on every exit path (commit, abort, exception).
  bool epoch_pinned = false;
};

// The calling thread's context (thread-local singleton). Inline, so that
// the lookup is a TLS access in the caller rather than a call.
inline ThreadCtx& thread_ctx() {
  thread_local ThreadCtx ctx;
  return ctx;
}

}  // namespace votm::core
