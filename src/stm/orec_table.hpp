// Ownership records (orecs) for encounter-time locking algorithms.
//
// Every OrecEagerRedo view owns a private OrecTable — this is the
// "each view is essentially an independent TM system" property (paper
// Sec. II-B): conflicts can only arise between transactions on the same
// view, and the metadata of distinct views never shares state.
//
// An orec packs lock bit + payload into one word:
//   unlocked: (version << 1)        -- LSB 0, version from the view clock
//   locked:   (owner-pointer | 1)   -- LSB 1, owner is the TxThread
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace votm::stm {

struct TxThread;  // engine.hpp

class Orec {
 public:
  using Packed = std::uintptr_t;

  static constexpr Packed pack_version(std::uint64_t version) noexcept {
    return static_cast<Packed>(version) << 1;
  }
  static Packed pack_owner(const TxThread* owner) noexcept {
    return reinterpret_cast<Packed>(owner) | 1u;
  }
  static constexpr bool is_locked(Packed p) noexcept { return (p & 1u) != 0; }
  static constexpr std::uint64_t version_of(Packed p) noexcept {
    return static_cast<std::uint64_t>(p >> 1);
  }
  static TxThread* owner_of(Packed p) noexcept {
    return reinterpret_cast<TxThread*>(p & ~static_cast<Packed>(1));
  }

  Packed load(std::memory_order order = std::memory_order_acquire) const noexcept {
    return state_.load(order);
  }

  bool try_lock(Packed expected_version, const TxThread* owner) noexcept {
    return state_.compare_exchange_strong(expected_version, pack_owner(owner),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  // Only the owner may call these.
  void unlock_to_version(std::uint64_t version) noexcept {
    state_.store(pack_version(version), std::memory_order_release);
  }

 private:
  std::atomic<Packed> state_{0};
};

// pack_owner() steals the pointer's LSB as the lock tag; owner_of() masks
// it back off. That round-trip is only lossless when no TxThread can sit
// at an odd address. Guarded here for the Orec word itself and again in
// engine.hpp for alignof(TxThread) (the type is incomplete at this point).
static_assert(sizeof(Orec) == sizeof(std::uintptr_t),
              "Orec must stay one packed word");
static_assert(alignof(Orec) == alignof(std::uintptr_t),
              "the table packs orecs at word alignment, 8 per cache line");

// Construction knobs for one table. Implicitly convertible from a size so
// the long-standing `OrecTable(1 << 12)` / engine `(size, policy, ...)`
// call sites keep meaning what they always meant.
struct OrecTableConfig {
  // 2^16 one-word orecs: a 512 KiB period per table, 8 orecs per cache
  // line (the RSTM/TinySTM layout). Pages are mapped lazily, so a table
  // costs one resident orec page per eight data pages its view writes
  // through TM, not 512 KiB (DESIGN.md §5.3). At 2^15 stripes perfbench's
  // cold Eigenbench view (65,536 words) folded peers' shared arrays onto
  // each worker's private words: 0.26-0.32 aborts per commit, not 0.016.
  static constexpr std::size_t kDefaultSize = std::size_t{1} << 16;
  // log2(bytes of application memory per stripe): 3 = word (historical
  // default), 6 = cache line, 7 = two lines. Coarser stripes shrink the
  // read log / validation scan for spatially local access at the price of
  // false conflicts between neighbors that share a stripe.
  static constexpr unsigned kDefaultGranularityShift = 3;
  static constexpr unsigned kMinGranularityShift = 3;   // sub-word is
                                                        // meaningless
  static constexpr unsigned kMaxGranularityShift = 12;  // a page per stripe

  std::size_t size = kDefaultSize;
  unsigned granularity_shift = kDefaultGranularityShift;

  OrecTableConfig() = default;
  // Intentionally implicit: a bare size IS a complete legacy config.
  OrecTableConfig(std::size_t s) noexcept : size(s) {}  // NOLINT
};

// Fixed-size, direct-mapped orec array. Addresses map onto orecs at the
// configured granularity, modulo the table size; two distinct addresses
// may alias the same orec (a legal over-approximation of conflicts,
// exactly as in RSTM/TinySTM).
//
// The backing store is one private anonymous mapping of packed one-word
// orecs, so neighboring stripes share a line. In 256 KiB, packing took
// perfbench `eigen-lock` 2.0x past 4,096 cache-line-padded orecs, and the
// direct map (index_for) another 1.5x past a mixing hash (EXPERIMENTS.md,
// "Packed orec table" and "Direct-mapped orec table").
class OrecTable {
 public:
  static constexpr std::size_t kDefaultSize = OrecTableConfig::kDefaultSize;
  static constexpr unsigned kDefaultGranularityShift =
      OrecTableConfig::kDefaultGranularityShift;

  explicit OrecTable(OrecTableConfig config = {})
      : mask_(config.size - 1),
        granularity_shift_(config.granularity_shift),
        size_(config.size) {
    // size must be a power of two for the mask to be a valid index map.
    // Direct constructions stay strict (tests pin this contract); the
    // factory sanitizes user-supplied sizes before they reach here.
    if ((config.size & (config.size - 1)) != 0 || config.size == 0) {
      throw std::invalid_argument("OrecTable size must be a power of two");
    }
    if (config.granularity_shift < OrecTableConfig::kMinGranularityShift ||
        config.granularity_shift > OrecTableConfig::kMaxGranularityShift) {
      throw std::invalid_argument(
          "OrecTable granularity_shift out of range [3, 12]");
    }
    // The kernel zero-fills the mapping, and a zero word is an unlocked
    // orec at version 0, so nothing is written here: a page becomes
    // resident when a transaction first locks one of its stripes (a read
    // maps the shared zero page). Huge pages are declined so residency
    // stays page by page on hosts that default THP on.
    void* p = ::mmap(nullptr, backing_bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
    ::madvise(p, backing_bytes(), MADV_NOHUGEPAGE);
#endif
    orecs_ = {static_cast<Orec*>(p), Unmap{backing_bytes()}};
  }

  // Orec is trivially destructible (a std::atomic word), so unmapping is
  // the whole teardown. Assert so a future Orec member can't leak.
  static_assert(std::is_trivially_destructible_v<Orec>);

  OrecTable(const OrecTable&) = delete;
  OrecTable& operator=(const OrecTable&) = delete;

  Orec& for_address(const void* addr) noexcept { return at(index_for(addr)); }

  // The stripe index behind for_address, exposed so tests can inspect the
  // address->stripe map directly. A direct map, as in RSTM and TinySTM:
  // consecutive 2^shift-byte blocks take consecutive stripes, so the orec
  // line of a stripe follows the data it covers. At g3 one data line's
  // eight words own one orec line: a range that only one thread touches
  // sits on orec lines no peer writes, and data that false-shares a line
  // false-shares its orec line too. Aliasing is structured: addresses
  // exactly size << shift bytes apart (512 KiB at the defaults) always
  // share a stripe.
  std::size_t index_for(const void* addr) const noexcept {
    return (reinterpret_cast<std::uintptr_t>(addr) >> granularity_shift_) &
           mask_;
  }

  Orec& at(std::size_t index) noexcept { return orecs_[index]; }

  std::size_t size() const noexcept { return size_; }
  unsigned granularity_shift() const noexcept { return granularity_shift_; }
  std::size_t backing_bytes() const noexcept { return size_ * sizeof(Orec); }

 private:
  struct Unmap {
    std::size_t bytes;
    void operator()(Orec* p) const noexcept { ::munmap(p, bytes); }
  };

  std::size_t mask_;
  unsigned granularity_shift_;
  std::size_t size_;
  std::unique_ptr<Orec[], Unmap> orecs_{nullptr, Unmap{0}};
};

}  // namespace votm::stm
