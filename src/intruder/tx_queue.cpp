#include "intruder/tx_queue.hpp"

#include <stdexcept>

namespace votm::intruder {

using core::vread;
using core::vread_for_write;
using core::vwrite;

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

TxQueue::TxQueue(core::View& view, std::size_t capacity)
    : view_(&view), capacity_(round_up_pow2(std::max<std::size_t>(capacity, 2))) {
  slots_ = static_cast<Word*>(view.alloc(capacity_ * sizeof(Word)));
  head_ = static_cast<Word*>(view.alloc(sizeof(Word)));
  tail_ = static_cast<Word*>(view.alloc(sizeof(Word)));
  vwrite<Word>(head_, 0);
  vwrite<Word>(tail_, 0);
}

TxQueue::Word TxQueue::pop() {
  // Read-for-write: a non-empty pop writes head_, so the orec engines lock
  // it at this first touch, and a pop that meets a peer's pop waits for it
  // instead of aborting.
  const Word head = vread_for_write(head_);
  const Word tail = vread(tail_);
  if (head == tail) return 0;
  const Word value = vread(&slots_[head & (capacity_ - 1)]);
  vwrite<Word>(head_, head + 1);
  return value;
}

bool TxQueue::push(Word value) {
  const Word head = vread(head_);
  const Word tail = vread(tail_);
  if (tail - head >= capacity_) return false;
  vwrite(&slots_[tail & (capacity_ - 1)], value);
  vwrite<Word>(tail_, tail + 1);
  return true;
}

void TxQueue::prefill(std::span<const Word> values) {
  if (values.size() > capacity_) {
    throw std::length_error("TxQueue::prefill beyond capacity");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    vwrite(&slots_[i & (capacity_ - 1)], values[i]);
  }
  vwrite<Word>(head_, 0);
  vwrite<Word>(tail_, values.size());
}

std::size_t TxQueue::size() const {
  return static_cast<std::size_t>(vread(tail_) - vread(head_));
}

}  // namespace votm::intruder
