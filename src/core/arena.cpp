#include "core/arena.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <stdexcept>

// Manual ASan poisoning of the free list: freed payloads are poisoned so a
// use-after-free through the arena (exactly the hazard the epoch layer in
// stm/epoch.hpp exists to prevent) is a hard ASan report at the faulting
// load, not a silent value corruption. Block headers stay unpoisoned — the
// free list threads FreeBlock through them and free() validates magic.
#if defined(__SANITIZE_ADDRESS__)
#define VOTM_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VOTM_ARENA_ASAN 1
#endif
#endif
#ifndef VOTM_ARENA_ASAN
#define VOTM_ARENA_ASAN 0
#endif

#if VOTM_ARENA_ASAN
extern "C" {
void __asan_poison_memory_region(void const volatile* addr, std::size_t size);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

namespace votm::core {

namespace {
std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

inline void poison_region(const void* p, std::size_t n) {
#if VOTM_ARENA_ASAN
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

inline void unpoison_region(const void* p, std::size_t n) {
#if VOTM_ARENA_ASAN
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}
}  // namespace

Arena::Arena(std::size_t initial_bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  add_segment_locked(std::max<std::size_t>(initial_bytes, kHeaderSize + kMinPayload));
}

Arena::~Arena() {
  // Hand the segments back to operator delete[] unpoisoned: freeing heap
  // chunks that contain manually poisoned sub-regions is undefined under
  // some ASan runtimes.
  for (const auto& [base, size] : segment_spans_) {
    unpoison_region(base, size);
  }
}

void Arena::add_segment_locked(std::size_t bytes) {
  const std::size_t usable = round_up(bytes, kAlignment);
  auto segment = std::make_unique<std::byte[]>(usable + kAlignment);
  // Align the segment base so headers and payloads stay aligned.
  auto base = reinterpret_cast<std::uintptr_t>(segment.get());
  std::byte* aligned =
      segment.get() + (round_up(base, kAlignment) - base);
  segment_spans_.emplace_back(aligned, usable);
  segments_.push_back(std::move(segment));
  capacity_ += usable;
  insert_free_locked(aligned, usable - kHeaderSize);
}

const std::byte* Arena::end_of(const FreeBlock* blk) {
  return reinterpret_cast<const std::byte*>(blk) + kHeaderSize + blk->size;
}

void Arena::insert_free_locked(std::byte* region, std::size_t payload) {
  // The free region is laid out as [header space][payload]; we thread the
  // FreeBlock through the header space, keeping the list address-ordered
  // and coalescing with adjacent free neighbours.
  poison_region(region + kHeaderSize, payload);
  auto* blk = reinterpret_cast<FreeBlock*>(region);
  blk->size = payload;
  blk->next = nullptr;

  FreeBlock** cursor = &free_head_;
  while (*cursor != nullptr && reinterpret_cast<std::byte*>(*cursor) < region) {
    cursor = &(*cursor)->next;
  }
  blk->next = *cursor;
  *cursor = blk;

  // Coalesce blk with its successor, then the predecessor with blk. An
  // absorbed neighbour's header becomes free-payload interior: poison it.
  if (blk->next != nullptr &&
      end_of(blk) == reinterpret_cast<std::byte*>(blk->next)) {
    FreeBlock* absorbed = blk->next;
    blk->size += kHeaderSize + absorbed->size;
    blk->next = absorbed->next;
    poison_region(absorbed, kHeaderSize);
  }
  if (cursor != &free_head_) {
    auto* prev = reinterpret_cast<FreeBlock*>(
        reinterpret_cast<std::byte*>(cursor) - offsetof(FreeBlock, next));
    if (end_of(prev) == reinterpret_cast<std::byte*>(blk)) {
      prev->size += kHeaderSize + blk->size;
      prev->next = blk->next;
      poison_region(region, kHeaderSize);
    }
  }
}

void Arena::flush_bins_locked() {
  // One sort by address over every free block, then one pass that relinks
  // them as the list and coalesces neighbours. Inserting the binned blocks
  // one by one would walk the list once each: quadratic in the tens of
  // thousands of blocks the bins can hold. Nothing changes until the
  // vector is built, so a bad_alloc from it leaves the arena intact.
  std::vector<FreeBlock*> blocks;
  blocks.reserve(binned_);
  for (FreeBlock* blk = free_head_; blk != nullptr; blk = blk->next) {
    blocks.push_back(blk);
  }
  for (FreeBlock* bin : bins_) {
    for (FreeBlock* blk = bin; blk != nullptr; blk = blk->next) {
      blocks.push_back(blk);
    }
  }
  std::sort(blocks.begin(), blocks.end(), std::less<>());
  bins_.fill(nullptr);
  binned_ = 0;

  FreeBlock** link = &free_head_;
  FreeBlock* last = nullptr;
  for (FreeBlock* blk : blocks) {
    if (last != nullptr && end_of(last) == reinterpret_cast<std::byte*>(blk)) {
      last->size += kHeaderSize + blk->size;
      poison_region(blk, kHeaderSize);
    } else {
      *link = blk;
      link = &blk->next;
      last = blk;
    }
  }
  *link = nullptr;
}

void* Arena::grant_locked(std::byte* base, std::size_t granted) {
  auto* hdr = reinterpret_cast<BlockHeader*>(base);
  hdr->size = granted;
  hdr->magic = kMagicAllocated;
  allocated_ += granted;
  return base + kHeaderSize;
}

void* Arena::take_from_list_locked(std::size_t payload) {
  for (FreeBlock** cursor = &free_head_; *cursor != nullptr;
       cursor = &(*cursor)->next) {
    FreeBlock* blk = *cursor;
    const std::size_t free_size = blk->size;
    if (free_size < payload) continue;
    FreeBlock* next = blk->next;
    std::byte* base = reinterpret_cast<std::byte*>(blk);
    // Unpoison the whole free payload before split surgery (the split
    // tail's header is written inside it); the tail payload is re-poisoned
    // after.
    unpoison_region(base + kHeaderSize, free_size);
    std::size_t granted = free_size;
    if (free_size - payload >= kHeaderSize + kMinPayload) {
      // Split: tail of the block stays free.
      auto* tail = reinterpret_cast<FreeBlock*>(base + kHeaderSize + payload);
      tail->size = free_size - payload - kHeaderSize;
      tail->next = next;
      poison_region(reinterpret_cast<std::byte*>(tail) + kHeaderSize,
                    tail->size);
      next = tail;
      granted = payload;
    }
    *cursor = next;
    return grant_locked(base, granted);
  }
  return nullptr;
}

void* Arena::alloc(std::size_t size) {
  // Rounding such a size up to kAlignment would wrap to 0 and hand out a
  // zero-byte block overlapping a free header; no arena can hold it.
  if (size > std::numeric_limits<std::size_t>::max() - (kAlignment - 1)) {
    throw std::bad_alloc();
  }
  const std::size_t payload = round_up(std::max(size, kMinPayload), kAlignment);
  std::lock_guard<std::mutex> lk(mu_);

  if (payload <= kMaxBinnedPayload) {
    FreeBlock*& bin = bins_[bin_index(payload)];
    if (bin != nullptr) {
      std::byte* base = reinterpret_cast<std::byte*>(bin);
      bin = bin->next;
      --binned_;
      unpoison_region(base + kHeaderSize, payload);
      return grant_locked(base, payload);
    }
  }
  if (void* block = take_from_list_locked(payload)) return block;
  if (binned_ != 0) {
    flush_bins_locked();
    if (void* block = take_from_list_locked(payload)) return block;
  }
  throw std::bad_alloc();
}

void Arena::free(void* ptr) {
  if (ptr == nullptr) return;
  std::lock_guard<std::mutex> lk(mu_);
  std::byte* base = static_cast<std::byte*>(ptr) - kHeaderSize;
  auto* hdr = reinterpret_cast<BlockHeader*>(base);
  if (hdr->magic != kMagicAllocated) {
    throw std::invalid_argument(
        hdr->magic == kMagicFreed ? "double free in view arena"
                                  : "free of a pointer not from this view");
  }
  hdr->magic = kMagicFreed;
  const std::size_t size = hdr->size;
  allocated_ -= size;
  if (size > kMaxBinnedPayload) {
    insert_free_locked(base, size);
    return;
  }
  poison_region(base + kHeaderSize, size);
  FreeBlock*& bin = bins_[bin_index(size)];
  auto* blk = reinterpret_cast<FreeBlock*>(base);
  blk->size = size;
  blk->next = bin;
  bin = blk;
  ++binned_;
}

void Arena::extend(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  add_segment_locked(bytes);
}

std::size_t Arena::capacity() const {
  std::lock_guard<std::mutex> lk(mu_);
  return capacity_;
}

std::size_t Arena::allocated() const {
  std::lock_guard<std::mutex> lk(mu_);
  return allocated_;
}

bool Arena::owns(const void* ptr) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [base, size] : segment_spans_) {
    if (ptr >= base && ptr < base + size) return true;
  }
  return false;
}

}  // namespace votm::core
