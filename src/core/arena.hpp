// Per-view memory arena backing malloc_block / free_block / brk_view.
//
// Views bundle data and concurrency control (paper Sec. I: "This
// data-centric model bundles concurrency control and data access
// together"), so every view owns its own heap: a segment list carved by a
// size-binned allocator under one mutex. All blocks are 16-byte aligned
// (the STM layer is word-granular).
//
// Free space lives in two places:
//   - exact-size bins: one LIFO stack per 16-byte payload class up to
//     kMaxBinnedPayload. Freeing or allocating a binned size is an O(1)
//     push or pop; binned blocks are not coalesced.
//   - the list: address-ordered and coalescing, first-fit. It holds the
//     fresh segments, split tails and every block above kMaxBinnedPayload.
// alloc() tries the exact bin, then the list. When neither fits it flushes
// every bin into the list (one sort by address that coalesces neighbours)
// and retries, so it throws std::bad_alloc only when no coalesced free
// region fits, exactly as a pure coalescing list would.
//
// Header overlay rule: each block starts with kHeaderSize bytes read as a
// BlockHeader {size, magic} while the block is handed out and as a
// FreeBlock {size, next} while it is free (in a bin or on the list). The
// two are distinct types to the optimiser, so within one function never
// read a header word through one type after writing it through the other:
// carry the value in a local and write the granted size through
// BlockHeader.
//
// Allocation inside transactions is handled a level up (View logs
// transactional allocations and defers frees to commit); the arena itself
// is a plain thread-safe allocator.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace votm::core {

class Arena {
 public:
  // Alignment of every returned block; >= alignof(max_align_t) not needed
  // for the transactional workloads, 16 keeps SSE-friendly layouts happy.
  static constexpr std::size_t kAlignment = 16;

  explicit Arena(std::size_t initial_bytes);
  ~Arena();  // unpoisons segments before they return to the heap (ASan)

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Allocates `size` bytes; throws std::bad_alloc when no segment can
  // satisfy the request (views have programmer-declared sizes; exhaustion
  // is a programming error, matching the paper's create_view(size) model —
  // call extend()/brk_view to grow).
  void* alloc(std::size_t size);

  // Returns a block to its bin or the free list; ptr must come from this
  // arena.
  void free(void* ptr);

  // brk_view: adds a fresh segment of `bytes`.
  void extend(std::size_t bytes);

  std::size_t capacity() const;
  std::size_t allocated() const;  // bytes currently handed out (payloads)

  // True if ptr lies within one of this arena's segments (diagnostics).
  bool owns(const void* ptr) const;

 private:
  struct BlockHeader {
    std::size_t size;   // payload bytes
    std::uint64_t magic;  // guards double-free / foreign pointers
  };
  struct FreeBlock {
    std::size_t size;  // payload bytes of the free region
    FreeBlock* next;   // list: address-ordered; bin: LIFO
  };

  static constexpr std::uint64_t kMagicAllocated = 0x766f746d616c6c6fULL;
  static constexpr std::uint64_t kMagicFreed = 0x766f746d66726565ULL;
  static constexpr std::size_t kHeaderSize =
      (sizeof(BlockHeader) + kAlignment - 1) / kAlignment * kAlignment;
  static constexpr std::size_t kMinPayload = kAlignment;
  // Largest binned payload. It covers every Intruder reassembly node: 4
  // header words plus at most 128 fragment pointers is 1,056 bytes.
  static constexpr std::size_t kMaxBinnedPayload = 2048;

  static std::size_t bin_index(std::size_t payload) {
    return payload / kAlignment - 1;
  }
  static const std::byte* end_of(const FreeBlock* blk);  // one past its payload

  void add_segment_locked(std::size_t bytes);
  void insert_free_locked(std::byte* region, std::size_t payload);
  // Empties every bin into the list, coalescing neighbours.
  void flush_bins_locked();
  // First fit on the list, splitting off a free tail; nullptr if none fits.
  void* take_from_list_locked(std::size_t payload);
  // Writes the allocated header for `granted` payload bytes at `base`.
  void* grant_locked(std::byte* base, std::size_t granted);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::byte[]>> segments_;
  std::vector<std::pair<const std::byte*, std::size_t>> segment_spans_;
  FreeBlock* free_head_ = nullptr;
  std::array<FreeBlock*, kMaxBinnedPayload / kAlignment> bins_{};
  std::size_t binned_ = 0;  // blocks held in bins_
  std::size_t capacity_ = 0;
  std::size_t allocated_ = 0;
};

}  // namespace votm::core
