// Read-only transaction routing for container read operations.
//
// A container read (lookup, size, iteration) called inside a transaction
// must stay part of that transaction — no nesting. Called OUTSIDE one, it
// used to fall through to plain per-word atomic reads (no snapshot at
// all); it now runs under View::run_read, which both makes the whole
// operation one consistent read-only snapshot and carries the RO hint to
// the engines, whose commit fast path then does zero version-clock
// traffic and no write-set reset. A walk that observes a concurrent
// writer commit extends its snapshot when nothing it read has changed,
// and otherwise conflicts and re-runs.
#pragma once

#include "core/thread_ctx.hpp"
#include "core/view.hpp"

namespace votm::containers {

template <typename Fn>
auto read_transactionally(core::View& view, Fn&& fn) {
  if (core::thread_ctx().tx.in_tx) {
    return fn();
  }
  // May re-run fn on conflict (standard transaction-body contract).
  return view.run_read(fn);
}

}  // namespace votm::containers
