// NOrec: commit-time locking STM with value-based validation and no
// ownership records (Dalessandro, Spear, Scott — PPoPP 2010).
//
// The only shared metadata is one sequence lock per instance ("the global
// clock" in the paper's terminology). This is precisely why the paper's
// Tables VII-X show multi-view VOTM helping NOrec even with RAC inactive:
// each view's NOrecEngine carries its own sequence lock, so partitioning
// the data partitions the metadata contention (paper Sec. III-D).
//
// Write-signature broadcast (validation filtering): stock NOrec re-runs
// full value-based validation over the whole read log on EVERY interleaved
// commit — O(reads) work per commit that slips in, paid by every reader.
// Here a committer additionally publishes a 256-bit signature of its write
// set into a small ring of (seq, signature) slots while it holds the
// sequence lock. A validating reader intersects its read-set signature
// with the signatures of exactly the commits that landed since its
// snapshot: if every intersection is empty, none of those commits wrote
// anything the reader read, value validation would trivially pass, and the
// scan is skipped. Any overlap, an overwritten slot, or a ring wrap falls
// back to the unchanged values_match() scan, so correctness is identical
// (signatures have false positives, never false negatives). The knob is
// runtime (`commit_filters` ctor arg) so bench/micro_validation can A/B
// both modes in one binary; the compile-time default follows the
// VOTM_VALIDATION_FILTERS CMake option.
#pragma once

#include <array>
#include <atomic>

#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "stm/signature.hpp"
#include "util/cacheline.hpp"

namespace votm::stm {

class NOrecEngine final : public TxEngine {
 public:
  explicit NOrecEngine(bool commit_filters = kValidationFiltersDefault,
                       CmRuntime cm = {})
      : cm_(cm), filters_(commit_filters) {}

  const char* name() const noexcept override { return "NOrec"; }

  void begin(TxThread& tx) override;
  Word read(TxThread& tx, const Word* addr) override;
  void write(TxThread& tx, Word* addr, Word value) override;
  void commit(TxThread& tx) override;
  void rollback(TxThread& tx) override;

  // Irrevocable mode: acquires the sequence lock (odd) for the whole
  // transaction, so reads and writes go straight to memory and commit is a
  // single release store. See DESIGN.md §14.
  void begin_serial(TxThread& tx) override;
  void end_serial(TxThread& tx) override;

  // Exposed for tests and the metadata-contention microbench.
  std::uint64_t sequence() const noexcept {
    return seqlock_.value.load(std::memory_order_relaxed);
  }
  bool commit_filters() const noexcept { return filters_; }

 private:
  // One broadcast slot: the even sequence value a commit published, plus
  // that commit's write-set signature. Slot writes happen under the global
  // sequence lock (at most one writer at a time); readers race only with
  // later committers re-using the slot, detected by the seqlock-style
  // stamp protocol in commits_disjoint()/publish_signature(). Each slot
  // owns a cache line: a reader scanning the ring must not false-share
  // with the committer stamping the neighbouring slot.
  struct alignas(kCacheLine) SigSlot {
    std::atomic<std::uint64_t> seq{0};  // 0 = never written / mid-update
    std::array<std::atomic<std::uint64_t>, SigFilter::kWords> sig{};
  };
  static constexpr std::size_t kSigRingSlots = 64;  // power of two

  // Re-validates tx's read log until a consistent even snapshot is found;
  // calls tx.conflict() if any logged value changed.
  std::uint64_t validate(TxThread& tx);

  // True if every commit in (since, upto] (even sequence values) has a
  // readable ring slot whose write signature is disjoint from `reads`.
  // False means "don't know": fall back to value validation.
  bool commits_disjoint(std::uint64_t since, std::uint64_t upto,
                        const SigFilter& reads) const noexcept;

  // Publishes `sig` for the commit that will bump the sequence lock to
  // `commit_seq`. Caller must hold the sequence lock (odd).
  void publish_signature(std::uint64_t commit_seq,
                         const SigFilter& sig) noexcept;

  // Even = unlocked; a committing writer holds it odd during write-back.
  CacheLinePadded<std::atomic<std::uint64_t>> seqlock_{};
  // Victim-choice CM (DESIGN.md §20). NOrec has no orecs to park on, so
  // victim choice moves to its only contended decision: who wins the
  // sequence-lock race. Committers defer (bounded) to a higher advertised
  // priority in cm_advertised_ before racing; see cm_norec_precommit.
  const CmRuntime cm_;
  CacheLinePadded<std::atomic<std::uint64_t>> cm_advertised_{};
  const bool filters_;
  std::array<SigSlot, kSigRingSlots> ring_{};
};

}  // namespace votm::stm
