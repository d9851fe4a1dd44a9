// TxCounter: a sharded transactional counter.
//
// A single-word counter makes every increment conflict with every other —
// exactly the pathological case RAC exists for. When the aggregate value is
// only needed occasionally, sharding by thread removes the conflicts while
// staying fully transactional: add() touches one shard, value() reads all
// shards in one transaction and is a consistent snapshot. Shards are keyed
// by the dense thread ordinal (util/thread_ordinal.hpp), so up to the shard
// count, threads that took consecutive ordinals get distinct shards and
// their adds never conflict.
#pragma once

#include "containers/read_tx.hpp"
#include "core/access.hpp"
#include "core/view.hpp"
#include "util/cacheline.hpp"
#include "util/thread_ordinal.hpp"

namespace votm::containers {

class TxCounter {
 public:
  // shards should be >= the expected thread count; rounded up to a power
  // of two. Each shard sits on its own cache line.
  TxCounter(core::View& view, std::size_t shards = 16)
      : view_(&view), shard_count_(round_pow2(shards)) {
    const std::size_t stride = kCacheLine / sizeof(stm::Word);
    slots_ = static_cast<stm::Word*>(
        view.alloc(shard_count_ * stride * sizeof(stm::Word)));
    stride_ = stride;
    for (std::size_t i = 0; i < shard_count_; ++i) {
      core::vwrite<stm::Word>(&slots_[i * stride_], 0);
    }
  }

  // tx: adds delta to the calling thread's shard.
  void add(stm::Word delta = 1) {
    core::vadd<stm::Word>(&slots_[shard_index() * stride_], delta);
  }

  // tx or standalone: consistent total across shards (standalone calls run
  // as their own read-only transaction).
  stm::Word value() const {
    return read_transactionally(*view_, [&] {
      stm::Word sum = 0;
      for (std::size_t i = 0; i < shard_count_; ++i) {
        sum += core::vread(&slots_[i * stride_]);
      }
      return sum;
    });
  }

  std::size_t shards() const noexcept { return shard_count_; }

  // The shard the calling thread's add() touches.
  std::size_t shard_index() const noexcept {
    return thread_ordinal() & (shard_count_ - 1);
  }

 private:
  static std::size_t round_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  core::View* view_;
  std::size_t shard_count_;
  std::size_t stride_ = 0;
  stm::Word* slots_ = nullptr;
};

}  // namespace votm::containers
