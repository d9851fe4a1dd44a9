// Transactional MPMC ring buffer over view memory — Intruder's centralized
// packet queue.
//
// head/tail are monotonically increasing word counters living in the view;
// every pop writes head, so concurrent pops conflict by design (that is
// the "centralized task queue" contention STAMP's intruder has). pop reads
// head through the read-for-write barrier, so on the encounter-time engines
// concurrent pops queue on head's orec instead of aborting each other.
//
// All methods marked "tx" must be called inside a transaction on the
// owning view (e.g. from View::execute); prefill() runs before the
// parallel phase and uses direct stores.
#pragma once

#include <cstddef>
#include <span>

#include "core/access.hpp"
#include "core/view.hpp"

namespace votm::intruder {

class TxQueue {
 public:
  using Word = stm::Word;

  // Allocates slots + counters from `view`'s arena. Capacity is rounded up
  // to a power of two.
  TxQueue(core::View& view, std::size_t capacity);

  // tx: pops the oldest element; returns 0 when empty.
  Word pop();

  // tx: pushes; returns false when full.
  bool push(Word value);

  // non-tx: bulk load before the run.
  void prefill(std::span<const Word> values);

  // tx (or quiescent): current element count.
  std::size_t size() const;

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  core::View* view_;
  std::size_t capacity_;  // power of two
  Word* slots_;
  Word* head_;  // next index to pop
  Word* tail_;  // next index to push
};

}  // namespace votm::intruder
