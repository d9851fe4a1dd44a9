// TxHashMap: transactional chained hash map (word keys, word values) over
// view memory — the generic sibling of Intruder's reassembly dictionary.
//
// Dynamic since the epoch-reclamation PR: the bucket table lives in view
// memory behind one indirection word, and the map doubles it under load
// instead of staying at its construction size forever.
//
//   ctrl word  (view memory): packed pointer to the current table block
//   table block (view memory): [0] bucket_count, [1..bucket_count] heads
//   node        (view memory): [0] key, [1] value, [2] next
//
// Everything is read and written through the vread/vwrite instrumentation,
// so the table swap is published exactly like any other transactional
// write — atomically at commit, under the engine's seqlock/orec protocol —
// and a concurrent walk either sees the old table consistently or conflicts.
// The old table block is freed transactionally, which retires it through
// the view's grace-period layer (stm/epoch.hpp): readers still walking it
// (including doomed ones) keep a valid block until every epoch pin has
// advanced.
//
// Growth runs as its OWN transaction, never inside a caller's: an in-
// transaction put that finds an overlong chain only flags grow_pending_
// (a non-transactional hint), and the rehash happens on the next mutating
// call made outside a transaction, or on an explicit maybe_grow(). This
// keeps user transactions small (a rehash inside a big user transaction
// would inflate its read/write set and its abort probability) and keeps
// the hint write invisible to conflict detection.
//
// Nodes come from the view arena inside the inserting transaction, so an
// abort undoes the allocation; erase defers the free to commit (the view
// layer's transactional memory management).
//
// Mutating methods may be called inside a transaction on the owning view
// or standalone (they then run as their own transaction); the read
// operations (get/contains/for_each/size) likewise run standalone calls
// as one read-only transaction (containers/read_tx.hpp) — a consistent
// snapshot that hits the engines' RO commit fast path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "containers/read_tx.hpp"
#include "core/access.hpp"
#include "core/view.hpp"

namespace votm::containers {

class TxHashMap {
 public:
  using Word = stm::Word;

  // Floor for the bucket table. round_pow2 clamps here so a bucket_count
  // of 0 or 1 cannot produce a degenerate mask (bucket_count_ - 1 over an
  // empty table would index with all ones).
  static constexpr std::size_t kMinBuckets = 2;

  // A put that walks a chain at least this long flags the table for
  // doubling (amortized: the rehash itself runs as its own transaction).
  static constexpr std::size_t kGrowChainThreshold = 8;

  TxHashMap(core::View& view, std::size_t bucket_count) : view_(&view) {
    const std::size_t buckets = round_pow2(bucket_count);
    Word* table = alloc_table(buckets);
    ctrl_ = static_cast<Word*>(view.alloc(sizeof(Word)));
    core::vwrite<Word>(ctrl_, reinterpret_cast<Word>(table));
  }

  // tx or standalone: inserts or updates; returns true if the key was
  // newly inserted. Standalone calls run their own transaction and then
  // apply any pending growth.
  bool put(Word key, Word value) {
    if (core::thread_ctx().tx.in_tx) return put_in_tx(key, value);
    bool inserted = false;
    view_->execute([&] { inserted = put_in_tx(key, value); });
    maybe_grow();
    return inserted;
  }

  // tx or standalone: looks up key; returns true and writes *value_out
  // when present.
  bool get(Word key, Word* value_out) const {
    return read_transactionally(*view_, [&] {
      const Table t = load_table();
      Word node = core::vread(head_of(t, key));
      while (node != 0) {
        Word* words = as_node(node);
        if (core::vread(&words[0]) == key) {
          if (value_out != nullptr) *value_out = core::vread(&words[1]);
          return true;
        }
        node = core::vread(&words[2]);
      }
      return false;
    });
  }

  bool contains(Word key) const { return get(key, nullptr); }

  // tx or standalone: removes key; returns true if it was present.
  bool erase(Word key) {
    if (core::thread_ctx().tx.in_tx) return erase_in_tx(key);
    bool erased = false;
    view_->execute([&] { erased = erase_in_tx(key); });
    maybe_grow();
    return erased;
  }

  // tx or standalone: applies fn(key, value) to every entry — a consistent
  // snapshot either way (standalone calls run as one read-only
  // transaction). fn may re-run from the start on conflict.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    read_transactionally(*view_, [&] {
      const Table t = load_table();
      for (std::size_t b = 0; b < t.buckets; ++b) {
        Word node = core::vread(&t.block[1 + b]);
        while (node != 0) {
          Word* words = as_node(node);
          fn(core::vread(&words[0]), core::vread(&words[1]));
          node = core::vread(&words[2]);
        }
      }
    });
  }

  // tx or standalone: entry count (O(n)).
  std::size_t size() const {
    std::size_t n = 0;
    for_each([&n](Word, Word) { ++n; });
    return n;
  }

  // tx or standalone: the current table width (it grows over time).
  std::size_t bucket_count() const {
    return read_transactionally(*view_,
                                [&] { return load_table().buckets; });
  }

  // If a put flagged an overlong chain, doubles the bucket table in its
  // own transaction: relinks every node into a fresh table, publishes the
  // swap through the ctrl word, and frees the old block transactionally —
  // the epoch layer keeps it alive for concurrent walkers. No-op when
  // called inside a transaction (growth never piggybacks on user work).
  void maybe_grow() {
    if (!grow_pending_.load(std::memory_order_relaxed)) return;
    if (core::thread_ctx().tx.in_tx) return;
    grow_pending_.store(false, std::memory_order_relaxed);
    view_->execute([&] { grow_in_tx(); });
  }

  bool grow_pending() const noexcept {
    return grow_pending_.load(std::memory_order_relaxed);
  }

 private:
  struct Table {
    Word* block;          // [0] bucket_count, [1..] heads
    std::size_t buckets;  // power of two, >= kMinBuckets
  };

  static std::size_t round_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < std::max(n, kMinBuckets)) p <<= 1;
    return p;
  }

  static Word* as_node(Word packed) noexcept {
    return reinterpret_cast<Word*>(packed);
  }

  static std::size_t mix(Word key) noexcept {
    std::uint64_t x = key;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }

  Word* alloc_table(std::size_t buckets) {
    Word* table =
        static_cast<Word*>(view_->alloc((1 + buckets) * sizeof(Word)));
    core::vwrite<Word>(&table[0], buckets);
    for (std::size_t i = 0; i < buckets; ++i) {
      core::vwrite<Word>(&table[1 + i], 0);
    }
    return table;
  }

  // Both words of the indirection must be read in the same transaction:
  // the table pointer and its bucket count travel together.
  Table load_table() const {
    Word* block = reinterpret_cast<Word*>(core::vread(ctrl_));
    return Table{block, static_cast<std::size_t>(core::vread(&block[0]))};
  }

  Word* head_of(const Table& t, Word key) const noexcept {
    return &t.block[1 + (mix(key) & (t.buckets - 1))];
  }

  bool put_in_tx(Word key, Word value) {
    const Table t = load_table();
    Word* bucket = head_of(t, key);
    Word node = core::vread(bucket);
    std::size_t chain = 0;
    while (node != 0) {
      Word* words = as_node(node);
      if (core::vread(&words[0]) == key) {
        core::vwrite<Word>(&words[1], value);
        return false;
      }
      node = core::vread(&words[2]);
      ++chain;
    }
    if (chain >= kGrowChainThreshold) {
      grow_pending_.store(true, std::memory_order_relaxed);
    }
    Word* fresh = static_cast<Word*>(view_->alloc(3 * sizeof(Word)));
    core::vwrite<Word>(&fresh[0], key);
    core::vwrite<Word>(&fresh[1], value);
    core::vwrite<Word>(&fresh[2], core::vread(bucket));
    core::vwrite<Word>(bucket, reinterpret_cast<Word>(fresh));
    return true;
  }

  bool erase_in_tx(Word key) {
    const Table t = load_table();
    Word* link = head_of(t, key);
    Word node = core::vread(link);
    while (node != 0) {
      Word* words = as_node(node);
      if (core::vread(&words[0]) == key) {
        core::vwrite<Word>(link, core::vread(&words[2]));
        view_->free(words);  // deferred to commit, then epoch-retired
        return true;
      }
      link = &words[2];
      node = core::vread(link);
    }
    return false;
  }

  void grow_in_tx() {
    const Table old = load_table();
    const std::size_t buckets = old.buckets * 2;
    Word* table = alloc_table(buckets);
    const Table grown{table, buckets};
    for (std::size_t b = 0; b < old.buckets; ++b) {
      Word node = core::vread(&old.block[1 + b]);
      while (node != 0) {
        Word* words = as_node(node);
        const Word next = core::vread(&words[2]);
        Word* head = head_of(grown, core::vread(&words[0]));
        core::vwrite<Word>(&words[2], core::vread(head));
        core::vwrite<Word>(head, node);
        node = next;
      }
    }
    core::vwrite<Word>(ctrl_, reinterpret_cast<Word>(table));
    view_->free(old.block);  // deferred to commit, then epoch-retired
  }

  core::View* view_;
  Word* ctrl_ = nullptr;
  // Growth hint, deliberately outside transactional memory: setting it
  // must not add a write-set entry (or a conflict) to the put that
  // noticed the long chain. Relaxed is enough — it only schedules work.
  mutable std::atomic<bool> grow_pending_{false};
};

}  // namespace votm::containers
