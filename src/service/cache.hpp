// Result cache: completed (spec_hash, seed range) chunks under an LRU
// byte budget.
//
// Every chunk the daemon executes is inserted keyed by (spec hash, chunk
// first seed, chunk count); because runs are pure functions of
// (spec, seed) and chunk boundaries are absolute (service/rows.hpp), a
// cached chunk is valid for *every* future query whose range covers it —
// a repeated query streams entirely from cache (0 new runs), and a
// partially-overlapping sweep re-executes only its uncovered chunks.
// Subsumption is exactly chunk-granular: a query range is the union of
// its plan's chunks, and each chunk hits or misses independently; there
// is no partial-chunk splitting (the at-most-two misaligned edge chunks
// of a range are themselves keyed by their exact sub-range).
//
// Entries hold the serialized row payload (the bytes streamed to clients
// — cached replays are byte-identical by construction, not by
// re-serialization) plus the chunk's RunStats, so job summaries can merge
// cached chunks through the same RunStats::merge the engine shards use.
// Eviction is strict LRU over a byte budget counting payload bytes plus a
// fixed per-entry overhead. The cache is internally locked: rsbd's loop
// thread inserts and looks up while other threads read stats().
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine/experiment.hpp"

namespace rsb::service {

class ResultCache {
 public:
  struct Key {
    std::uint64_t spec_hash = 0;
    std::uint64_t first = 0;
    std::uint64_t count = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct Entry {
    std::string payload;  // the serialized row (rows.hpp row_payload)
    RunStats stats;       // for job-summary merging
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;  // charged bytes (payload + overhead)
  };

  /// Charged per entry on top of the payload bytes (key, LRU node, stats).
  static constexpr std::uint64_t kEntryOverhead = 256;

  explicit ResultCache(std::uint64_t byte_budget)
      : byte_budget_(byte_budget) {}

  /// The entry for `key`, touching its LRU position; nullopt on miss.
  /// Returns a copy (entries may be evicted by later insertions).
  std::optional<Entry> lookup(const Key& key);

  /// True, counted as a miss exactly as lookup() counts one, when `key`
  /// is not cached. When it is, returns false and neither counts nor
  /// touches it, so the lookup() that later serves it counts it once.
  bool misses(const Key& key);

  /// Inserts (or refreshes) `key`; evicts least-recently-used entries
  /// until the budget holds. An entry larger than the whole budget is
  /// simply not retained.
  void insert(const Key& key, Entry entry);

  Stats stats() const;

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  struct Node {
    Key key;
    Entry entry;
    std::uint64_t charged = 0;
  };

  void evict_to_budget();  // caller holds mutex_

  const std::uint64_t byte_budget_;
  mutable std::mutex mutex_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Node>::iterator, KeyHash> index_;
  Stats stats_;
};

}  // namespace rsb::service
