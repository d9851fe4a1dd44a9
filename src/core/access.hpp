// Typed transactional accessors.
//
// vread/vwrite are the only sanctioned way to touch view memory. Inside a
// transaction they route through the view's engine at word granularity
// (sub-word types are handled by read-modify-write on the containing
// word); outside a transaction — including lock mode (Q == 1), where the
// engine is non-speculative — the engine short-circuits to plain atomic
// loads/stores, which is the paper's "the transactional mechanism is no
// longer used to access the view".
//
// Requirements: T trivially copyable, sizeof(T) <= 8, naturally aligned.
#pragma once

#include <cstring>
#include <type_traits>

#include "core/thread_ctx.hpp"
#include "stm/access.hpp"

namespace votm::core {

namespace detail {

template <typename T>
constexpr void check_type() {
  static_assert(std::is_trivially_copyable_v<T>,
                "vread/vwrite require trivially copyable types");
  static_assert(sizeof(T) <= sizeof(stm::Word),
                "vread/vwrite handle at most word-sized types");
}

// Splits an address into (aligned word, byte offset within word).
inline stm::Word* containing_word(void* addr, unsigned* byte_offset) {
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t word_addr = a & ~std::uintptr_t{7};
  *byte_offset = static_cast<unsigned>(a - word_addr);
  return reinterpret_cast<stm::Word*>(word_addr);
}

}  // namespace detail

template <typename T>
T vread(const T* addr) {
  detail::check_type<T>();
  ThreadCtx& tc = thread_ctx();
  stm::TxThread& tx = tc.tx;

  if constexpr (sizeof(T) == sizeof(stm::Word)) {
    stm::Word raw;
    if (tx.in_tx) {
      raw = tx.engine->read(tx, reinterpret_cast<const stm::Word*>(addr));
    } else {
      raw = stm::load_word(reinterpret_cast<const stm::Word*>(addr));
    }
    T out;
    std::memcpy(&out, &raw, sizeof(T));
    return out;
  } else {
    unsigned offset = 0;
    const stm::Word* word = detail::containing_word(
        const_cast<void*>(static_cast<const void*>(addr)), &offset);
    const stm::Word raw =
        tx.in_tx ? tx.engine->read(tx, word) : stm::load_word(word);
    T out;
    std::memcpy(&out, reinterpret_cast<const char*>(&raw) + offset, sizeof(T));
    return out;
  }
}

template <typename T>
void vwrite(T* addr, T value) {
  detail::check_type<T>();
  ThreadCtx& tc = thread_ctx();
  stm::TxThread& tx = tc.tx;

  if constexpr (sizeof(T) == sizeof(stm::Word)) {
    stm::Word raw;
    std::memcpy(&raw, &value, sizeof(T));
    if (tx.in_tx) {
      tx.engine->write(tx, reinterpret_cast<stm::Word*>(addr), raw);
    } else {
      stm::store_word(reinterpret_cast<stm::Word*>(addr), raw);
    }
  } else {
    // Sub-word write: read-modify-write the containing word through the
    // engine, so conflict detection covers the whole word (a sound
    // over-approximation, identical to word-based RSTM).
    unsigned offset = 0;
    stm::Word* word = detail::containing_word(addr, &offset);
    stm::Word raw = tx.in_tx ? tx.engine->read(tx, word) : stm::load_word(word);
    std::memcpy(reinterpret_cast<char*>(&raw) + offset, &value, sizeof(T));
    if (tx.in_tx) {
      tx.engine->write(tx, word, raw);
    } else {
      stm::store_word(word, raw);
    }
  }
}

// Reads a word the transaction writes before it ends: the read of a
// read-modify-write. Encounter-time engines lock the word here instead of
// at the write, and a transaction whose first access this is waits a
// bounded time for a foreign lock rather than aborting (DESIGN.md §22);
// every other engine, lock mode and serial mode read as vread does.
// Sub-word types take the containing word.
template <typename T>
T vread_for_write(T* addr) {
  detail::check_type<T>();
  ThreadCtx& tc = thread_ctx();
  stm::TxThread& tx = tc.tx;

  unsigned offset = 0;
  stm::Word* word = detail::containing_word(addr, &offset);
  const stm::Word raw =
      tx.in_tx ? tx.engine->read_for_write(tx, word) : stm::load_word(word);
  T out;
  std::memcpy(&out, reinterpret_cast<const char*>(&raw) + offset, sizeof(T));
  return out;
}

// Convenience read-modify-write helpers for common idioms.
template <typename T>
void vadd(T* addr, T delta) {
  vwrite(addr, static_cast<T>(vread(addr) + delta));
}

}  // namespace votm::core
