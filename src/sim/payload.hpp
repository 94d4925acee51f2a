// Arena-interned message payloads for the zero-copy simulation core.
//
// Every message a sim::Network run materializes — blackboard posts, port
// sends, held (delayed) traffic — used to be its own std::string, so a
// round of n broadcasting parties heap-allocated O(n²) strings and the
// held-message queues copied them again. A PayloadArena replaces all of
// that with one per-run pool: payload bytes live in bump-allocated blocks
// and are deduplicated on intern, so a message is a 4-byte PayloadId
// everywhere in the simulator (Outbox, PortMessage, the held queues, the
// flat per-round delivery buffers) and broadcast traffic — Outbox::send_all
// or a blackboard post fanned out to n−1 receivers — shares one interned
// copy of the bytes.
//
// Identity and order: equal byte strings always receive the same id
// (intern deduplicates), so id equality is payload equality. Ids
// themselves are insertion-order handles; canonical delivery order is
// lexicographic over the *bytes*, which less() provides — the simulator's
// sorted boards and port queues are byte-identical to the pre-arena
// std::string sort.
//
// Lifetime: an arena is single-threaded per-run state (parallel batch
// drivers give every worker its own via RunContext). Interned bytes are
// stable — blocks never move — so a std::string_view from view() stays
// valid until the next reset(). reset() keeps the blocks and the intern
// index the ending run needed, within the intern index's kRetainFactor, so
// runs of a sweep allocate nothing once one has paid for its message
// volume, and one heavy run does not weigh on later ones.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/intern_index.hpp"

namespace rsb::sim {

/// Identifier of an interned payload; equality of ids is equality of the
/// payload bytes *within one arena*. Ids must never cross arenas.
using PayloadId = std::uint32_t;

class PayloadArena {
 public:
  PayloadArena();

  /// Forgets every interned payload, keeping the block storage and the
  /// intern index the ending run needed (within kRetainFactor). Views
  /// obtained before the reset dangle.
  void reset();

  /// Interns `bytes`, returning the id of the (unique) stored copy.
  PayloadId intern(std::string_view bytes);

  /// The interned bytes; valid until the next reset().
  std::string_view view(PayloadId id) const noexcept {
    const Entry& e = entries_[id];
    return {e.data, e.size};
  }

  /// Lexicographic byte order — the simulator's canonical payload order.
  bool less(PayloadId a, PayloadId b) const noexcept {
    return a != b && view(a) < view(b);
  }

  /// Number of distinct interned payloads.
  std::size_t size() const noexcept { return entries_.size(); }

  /// Total bytes of distinct payload content currently interned.
  std::size_t bytes_interned() const noexcept { return bytes_interned_; }

  /// Slots of the intern index: what the next reset() fills.
  std::size_t slot_count() const noexcept { return index_.slot_count(); }

 private:
  struct Entry {
    const char* data = nullptr;
    std::uint32_t size = 0;
  };

  /// Copies `bytes` into bump storage and returns the stable location.
  const char* allocate(std::string_view bytes);

  static constexpr std::size_t kBlockBytes = 1 << 16;

  // Bump blocks: each inner buffer is reserved once and never reallocated
  // (an oversized payload gets a dedicated block), so entry pointers stay
  // stable while the outer vector grows.
  std::vector<std::vector<char>> blocks_;
  std::size_t active_block_ = 0;

  // Interned payloads, numbered by the intern index (the one the
  // KnowledgeStore's tables use) in insertion order.
  std::vector<Entry> entries_;
  InternIndex index_;
  std::size_t bytes_interned_ = 0;
};

}  // namespace rsb::sim
