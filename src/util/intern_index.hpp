// The flat open-addressed index behind every intern table: the
// KnowledgeStore's node and board tables and sim::PayloadArena.
//
// An intern table numbers its distinct entries 0, 1, 2, ... in insertion
// order and finds an entry by hash. The index holds only the numbers (a
// power-of-two slot table, linear probing at load <= 1/2) and each
// entry's cached hash; the entries themselves stay in the owner's storage,
// which the owner's equality predicate reads. Unlike a node-based
// unordered_map of bucket vectors, reset() vacates it with one fill — no
// per-bucket deallocation — so an owner that resets between runs of
// similar size stops touching the allocator.
//
// The index covers a prefix of its owner's entries, [0, size()). An owner
// that knows an entry is new may store it without a probe; before its
// next find() it numbers that unindexed tail in insertion order
// (append), hashing each entry from what it stored.
//
// What a reset keeps follows the run that is ending, never the largest
// run ever seen: storage within kRetainFactor of what that run indexed is
// reused as it is, and larger storage is reallocated at that run's size.
// So one long run costs later runs neither its reset work nor its memory.
//
// Entry numbers, and the owners' pool offsets and sizes, are 32-bit
// fields; narrow_store_index guards every narrowing into one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rsb {

/// How much larger than the ending run's need a slot table or pool may be
/// and still be kept by a reset. Run-to-run variation within a sweep stays
/// well inside it, so steady sweeps never reallocate.
inline constexpr std::size_t kRetainFactor = 16;

/// Empties `pool` for the next run. Its storage is kept unless it exceeds
/// kRetainFactor times what the ending run used (its size, counted as at
/// least 64 elements); then it is reallocated at that size.
template <typename T>
void reset_pool(std::vector<T>& pool) {
  const std::size_t used = pool.size();
  if (pool.capacity() <= kRetainFactor * std::max<std::size_t>(used, 64)) {
    pool.clear();
    return;
  }
  std::vector<T> fitted;
  fitted.reserve(used);
  pool.swap(fitted);
}

/// The largest entry number, pool offset or size an intern table holds:
/// its fields are 32 bits wide, and 2^32 − 1 marks a vacant slot.
inline constexpr std::size_t kMaxStoreIndex = 0xFFFFFFFEu;

/// Throws the Error narrow_store_index raises for `value`.
[[noreturn]] void throw_store_limit(std::size_t value, const char* what);

/// Narrows an intern table's entry number, pool offset or size (`what`
/// names which) to its 32-bit field; past kMaxStoreIndex it throws an
/// Error naming the field and the limit instead of wrapping.
inline std::uint32_t narrow_store_index(std::size_t value, const char* what) {
  if (value > kMaxStoreIndex) throw_store_limit(value, what);
  return static_cast<std::uint32_t>(value);
}

class InternIndex {
 public:
  /// What at() returns for a vacant slot.
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

  /// Forgets every entry. The slot table is sized for the entries the
  /// ending run indexed: kept if within kRetainFactor of that size, else
  /// reallocated at it. An index must be reset once before its first
  /// find().
  void reset();

  /// The slot table's size: what the next reset fills.
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Entries numbered so far: the owner's entries [0, size()).
  std::size_t size() const noexcept { return hashes_.size(); }

  /// The slot of the entry `equal` accepts among those hashing to `h`,
  /// or else the vacant slot where such an entry belongs.
  template <typename Equal>
  std::size_t find(std::uint64_t h, const Equal& equal) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i] != kEmptySlot &&
           !(hashes_[slots_[i]] == h && equal(slots_[i]))) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// The entry at `slot`; kEmptySlot when vacant.
  std::uint32_t at(std::size_t slot) const { return slots_[slot]; }

  /// Numbers the next entry, hashing to `h`, into the vacant `slot` that
  /// find() returned, and returns its number (`what` names the number in
  /// the error raised past kMaxStoreIndex).
  std::uint32_t insert(std::size_t slot, std::uint64_t h, const char* what) {
    const std::uint32_t id = narrow_store_index(hashes_.size(), what);
    hashes_.push_back(h);
    slots_[slot] = id;
    // Keep the load factor at most 1/2 so probe chains stay short.
    // slots_.size() is always a power of two >= the initial size, so
    // this is the sizing rule of reset() without its loop.
    if ((hashes_.size() + 1) * 2 > slots_.size()) grow();
    return id;
  }

  /// Numbers the next entry, hashing to `h`, without comparing it to any
  /// other: for an entry its owner stored knowing it new.
  void append(std::uint64_t h, const char* what) {
    insert(find(h, [](std::uint32_t) { return false; }), h, what);
  }

 private:
  void grow();
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> hashes_;  // per entry, index = entry number
};

}  // namespace rsb
