// Typed transactional accessors.
//
// vread/vwrite are the only sanctioned way to touch view memory. They
// inline into the transaction body, load the thread's barrier byte
// (TxThread::barrier, set when the transaction begins) and branch once:
//   * speculative engines route the access through the view's engine, one
//     virtual call per word (sub-word types are handled by read-modify-
//     write on the containing word);
//   * outside a transaction, in lock mode (Q == 1) and in a CGL view the
//     access is a plain atomic load_word/store_word with no call, which is
//     the paper's "the transactional mechanism is no longer used to access
//     the view". Only a write inside a read-only lock-mode transaction
//     takes the engine's cold path, which reports the misuse.
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

// One word through the barrier `bit` selects. A set bit means the thread's
// context runs the transaction, so tls_tx is its descriptor.
inline stm::Word read_word(const stm::Word* word, std::uint8_t bit) {
  if ((tls_barrier & bit) != 0) {
    stm::TxThread& tx = *tls_tx;
    return tx.engine->read(tx, word);
  }
  return stm::load_word(word);
}

inline void write_word(stm::Word* word, stm::Word raw) {
  if ((tls_barrier & stm::kWriteBarrier) != 0) {
    stm::TxThread& tx = *tls_tx;
    tx.engine->write(tx, word, raw);
  } else {
    stm::store_word(word, raw);
  }
}

}  // namespace detail

template <typename T>
inline T vread(const T* addr) {
  detail::check_type<T>();
  T out;
  if constexpr (sizeof(T) == sizeof(stm::Word)) {
    const stm::Word raw = detail::read_word(
        reinterpret_cast<const stm::Word*>(addr), stm::kReadBarrier);
    std::memcpy(&out, &raw, sizeof(T));
  } else {
    unsigned offset = 0;
    const stm::Word* word = detail::containing_word(
        const_cast<void*>(static_cast<const void*>(addr)), &offset);
    const stm::Word raw = detail::read_word(word, stm::kReadBarrier);
    std::memcpy(&out, reinterpret_cast<const char*>(&raw) + offset, sizeof(T));
  }
  return out;
}

template <typename T>
inline void vwrite(T* addr, T value) {
  detail::check_type<T>();
  if constexpr (sizeof(T) == sizeof(stm::Word)) {
    stm::Word raw;
    std::memcpy(&raw, &value, sizeof(T));
    detail::write_word(reinterpret_cast<stm::Word*>(addr), raw);
  } else {
    // Sub-word write: read-modify-write the containing word through the
    // engine, so conflict detection covers the whole word (a sound
    // over-approximation, identical to word-based RSTM). The read takes
    // the write's barrier: a misused read-only transaction must still
    // reach the engine's write.
    unsigned offset = 0;
    stm::Word* word = detail::containing_word(addr, &offset);
    stm::Word raw = detail::read_word(word, stm::kWriteBarrier);
    std::memcpy(reinterpret_cast<char*>(&raw) + offset, &value, sizeof(T));
    detail::write_word(word, raw);
  }
}

// Reads a word the transaction writes before it ends: the read of a
// read-modify-write. Encounter-time engines lock the word here instead of
// at the write, and a transaction whose first access this is waits a
// bounded time for a foreign lock rather than aborting (DESIGN.md §22);
// every other engine and serial mode read as vread does, and lock mode
// reads plainly. It takes the write barrier, so a read-only transaction
// reports the misuse. Sub-word types take the containing word.
template <typename T>
inline T vread_for_write(T* addr) {
  detail::check_type<T>();
  unsigned offset = 0;
  stm::Word* word = detail::containing_word(addr, &offset);
  stm::Word raw;
  if ((detail::tls_barrier & stm::kWriteBarrier) != 0) {
    stm::TxThread& tx = *detail::tls_tx;
    raw = tx.engine->read_for_write(tx, word);
  } else {
    raw = stm::load_word(word);
  }
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
