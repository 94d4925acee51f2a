// Hash-consed knowledge values.
//
// The paper's full-information protocol makes every party's state at time t
// its *knowledge* K_i(t), defined recursively (Section 2.2):
//
//   blackboard (Eq. 1):       K_i(t) = (K_i(t−1), X_i(t), {K_j(t−1) : j≠i})
//                             where {...} is a multiset (anonymous board),
//   message passing (Eq. 2):  K_i(t) = (K_i(t−1), X_i(t),
//                             (K_{π_i(1)}(t−1), ..., K_{π_i(n−1)}(t−1)))
//                             an ordered tuple indexed by port number.
//
// Written out, K_i(t) grows exponentially with t. The only operation the
// framework needs, however, is *equality* — the consistency relation
// i ~_t j ⇔ K_i(t) = K_j(t) (Eq. 4). We therefore intern knowledge values
// in a KnowledgeStore: structurally equal values receive the same id, so
// equality is id comparison, and memory is proportional to the number of
// distinct sub-values, not to the written-out size.
//
// Data layout (the zero-copy core): a message step's received tuple and
// tag list live in two flat pools shared by all nodes — a node stores
// offsets, not vectors — so interning a new value appends to the pools
// instead of allocating, and reset() recycles everything in place. Step
// values can be interned from *borrowed* storage (spans): the store probes
// with the caller's buffer and copies into the pools only on first
// insertion, so a steady-state batch sweep runs the whole knowledge
// recursion without touching the allocator.
//
// Each table's intern index covers a prefix of its entries, so the store
// can append what a round proves new without hashing it. A board that
// holds an id no earlier board holds — its largest id is at or above the
// board ceiling, one more than the largest id any board holds — equals
// no earlier board, and no step can exist yet on a board just created.
// open_round and round_step append such boards and steps unindexed; every
// probe first indexes the unindexed tail in insertion order, hashing each
// entry from its stored fields with the probe's own hash. So every public
// call finds every value and creates no duplicate, and a fault-free
// blackboard run, whose every board is new (DESIGN.md §8), hashes nothing
// but ⊥.
//
// Blackboard steps do not store their multiset. Every participant of an
// Eq. (1) round receives the same board M = {K_j(t−1) : all participants}
// minus one copy of its own value, and for a fixed prev the map
// M ↦ M ∖ {prev} is one-to-one. So boards are interned once each, in a
// second table that shares the node table's probe code, and a blackboard
// step is keyed on (prev, bit, board): the same equality as keying it on
// the received multiset, hence the same ids in the same insertion order.
// Boards consume no KnowledgeId and are not counted by size().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/hash.hpp"
#include "util/intern_index.hpp"

namespace rsb {

/// Identifier of an interned knowledge value; equality of ids is equality of
/// knowledge.
using KnowledgeId = std::uint32_t;

/// Identifier of an interned Eq. (1) board (KnowledgeStore::intern_board).
/// Board ids are their own sequence: they never collide with, or consume,
/// KnowledgeIds.
using BoardId = std::uint32_t;

enum class KnowledgeKind : std::uint8_t {
  kBottom,          // ⊥: no input, time 0
  kInput,           // K_i(0) = v_i for input-output tasks (Appendix C)
  kBlackboardStep,  // Eq. (1)
  kMessageStep,     // Eq. (2)
  kSilence,         // a crashed channel: the Eq. (2) tuple entry for a
                    // port whose sender has halted (crash-stop faults on
                    // the knowledge backend). Interned lazily, so
                    // fault-free id sequences are untouched.
};

// A KnowledgeStore is single-threaded mutable state, and a KnowledgeId is
// meaningful only relative to the store that interned it: two stores hand
// out ids in their own insertion orders, so ids must never be compared or
// dereferenced across stores (see DESIGN.md, "Concurrency model"). Parallel
// drivers give every worker its own store.
class KnowledgeStore {
 public:
  KnowledgeStore();

  /// Forgets every interned value (except ⊥, which is re-created with id 0)
  /// while keeping the underlying table and pool storage. After reset() the
  /// store is observationally identical to a freshly constructed one — ids
  /// are handed out in the same insertion order — so batch drivers such as
  /// the experiment Engine can reuse one store across runs without
  /// perturbing id-based canonical orders. Node, pool and index storage is
  /// kept as the ending run left it unless it is more than kRetainFactor
  /// times that run's need (util/intern_index.hpp), so steady-state runs
  /// of a sweep allocate nothing and one long run is not paid for by every
  /// later one.
  void reset();

  /// The unique ⊥ value (always id 0).
  KnowledgeId bottom() const noexcept { return 0; }

  /// The distinguished "silence" value marking a crashed channel in the
  /// Eq. (2) tuple. Interned on first use (never eagerly), so runs that
  /// need no silence hand out exactly the historical id sequence.
  KnowledgeId silence();

  /// K_i(0) = v for an input value v.
  KnowledgeId input(std::int64_t value);

  /// Eq. (1). `others` is the multiset {K_j(t−1) : j ≠ i}; it is sorted
  /// internally, so callers may pass it in any order. The blackboard is
  /// anonymous — only the multiset matters — and the paper's lexicographic
  /// board order corresponds to this canonical sorting.
  KnowledgeId blackboard_step(KnowledgeId prev, bool bit,
                              std::vector<KnowledgeId> others);

  /// Interns a round's board: the multiset M of every participant's
  /// previous value, sorted ascending. Probes with the borrowed span and
  /// copies it into the pool only on first insertion.
  BoardId intern_board(std::span<const KnowledgeId> sorted_board);

  /// Eq. (1) on an interned board, for round operators that intern M once
  /// per round: the step of a participant whose previous value is `prev`,
  /// with the same id as blackboard_step(prev, bit, M ∖ {prev}). A probe
  /// costs O(1) whatever the size of M. `prev` must occur in M — that is
  /// the caller's to keep, unchecked (it holds by construction for a
  /// participant of the round); an unknown board id throws
  /// InvalidArgument.
  KnowledgeId blackboard_step_on(KnowledgeId prev, bool bit, BoardId board);

  /// Opens an Eq. (1) round on `sorted_board`, the sorted multiset of
  /// every participant's previous value, and returns the id intern_board
  /// would. A board whose largest id is at or above the board ceiling is
  /// new and is appended without a probe; an empty board, or one below
  /// the ceiling, is probed.
  BoardId open_round(std::span<const KnowledgeId> sorted_board);

  /// Eq. (1) on the open round's board: the id blackboard_step_on(prev,
  /// bit, board) would return, memoized per (prev, bit) for the round in
  /// slot 2·(prev − the board's smallest id) + bit. nullopt when `prev`
  /// does not occur on the board, or no round is open. Defined here, with
  /// the append it makes, because a round operator calls it once per
  /// party: an out-of-line call chain cost about as much as the append.
  std::optional<KnowledgeId> round_step(KnowledgeId prev, bool bit) {
    // Unsigned wrap sends an id below the board's range past its end too.
    const std::size_t slot =
        2 * std::size_t{prev - round_lowest_} + (bit ? 1 : 0);
    if (slot >= round_memo_.size() || round_memo_[slot] == kAbsent) {
      return std::nullopt;
    }
    KnowledgeId& memo = round_memo_[slot];
    if (memo == kNotStepped) {
      // No step names a board the round created, so there the pair's
      // first step is new.
      memo = round_board_new_ ? append_board_step(prev, bit)
                              : blackboard_step_on(prev, bit, round_board_);
    }
    return memo;
  }

  /// Eq. (2). `by_port[p]` is the knowledge received on port p+1; the
  /// tuple order is significant (ports are local names for channels).
  /// Non-empty `tags` give the port-tagged form: the message received on
  /// port p+1 also carries the *sender's* port number for the shared edge
  /// (`tags[p]`, one per port, else InvalidArgument). A full-information
  /// sender knows which of its ports it transmits on and includes it; this
  /// reciprocal tag is what lets a receiver simulate selective-send
  /// protocols such as CreateMatching (Algorithm 1). See DESIGN.md — with
  /// the untagged literal reading of Eq. (2), the 'if' direction of
  /// Theorem 4.2 admits a counterexample wiring. Empty tags are the
  /// literal form.
  KnowledgeId message_step(KnowledgeId prev, bool bit,
                           std::vector<KnowledgeId> by_port,
                           std::vector<int> tags = {});

  /// Eq. (2) zero-copy path with borrowed storage: `by_port` is the
  /// port-ordered tuple, `tags` the reciprocal port numbers, one per port
  /// (else InvalidArgument; pass an empty span for the untagged literal
  /// variant). Copies into the pools only on first insertion; ids
  /// identical to message_step.
  KnowledgeId message_step_view(KnowledgeId prev, bool bit,
                                std::span<const KnowledgeId> by_port,
                                std::span<const int> tags);

  /// The reciprocal port tags; empty for untagged steps. The span borrows
  /// pool storage: valid until the next mutating call on this store.
  std::span<const int> tags(KnowledgeId id) const;

  KnowledgeKind kind(KnowledgeId id) const;

  /// The K(t−1) component; only for step kinds.
  KnowledgeId previous(KnowledgeId id) const;

  /// The X(t) component; only for step kinds.
  bool bit(KnowledgeId id) const;

  /// The port-ordered tuple a message step received; only for message
  /// steps (a blackboard step keeps its board instead). The span borrows
  /// pool storage: valid until the next mutating call on this store.
  std::span<const KnowledgeId> received(KnowledgeId id) const;

  /// The board of a blackboard step: the sorted multiset of every
  /// participant's time-(t−1) value, its own previous value included —
  /// Eq. (1)'s received multiset plus one copy of previous(id). Only for
  /// blackboard steps. The span borrows pool storage: valid until the next
  /// mutating call on this store.
  std::span<const KnowledgeId> board(KnowledgeId id) const;

  /// The input value; only for kInput.
  std::int64_t input_value(KnowledgeId id) const;

  /// The time t such that this value is a K(t): 0 for ⊥/input, 1 + time of
  /// the previous component otherwise.
  int time(KnowledgeId id) const;

  /// The randomness string x(1..t) embedded in the value — the map h of
  /// Section 3.3 recovers exactly this.
  std::vector<bool> randomness(KnowledgeId id) const;

  /// Number of distinct interned values (diagnostics / benchmarks).
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Slots of the node and board intern tables: what the next reset()
  /// fills. The tables are sized for the entries indexed, so values and
  /// boards a round appended unindexed do not count here (size() does).
  std::size_t slot_count() const noexcept {
    return node_index_.slot_count() + board_index_.slot_count();
  }

  /// Structural rendering with ids, e.g. "#5=(prev=#2,bit=1,[#2,#3])".
  /// Shallow: children are shown as ids.
  std::string to_string(KnowledgeId id) const;

 private:
  /// A node's identity-defining fields; a message step's received tuple
  /// and tags live in the shared flat pools, referenced by offset (read
  /// only for a non-zero size), and a blackboard step names its board —
  /// no per-node allocations.
  struct Node {
    KnowledgeKind kind;
    bool bit = false;
    KnowledgeId prev = 0;
    std::int64_t input = 0;
    std::uint32_t received_offset = 0;
    std::uint32_t received_size = 0;
    std::uint32_t tags_offset = 0;
    std::uint32_t tags_size = 0;
    int time = 0;
    BoardId board = 0;  // blackboard steps only
  };

  /// Borrowed view of a candidate node, used to probe the intern index
  /// without materializing anything.
  struct NodeShape {
    KnowledgeKind kind;
    bool bit = false;
    KnowledgeId prev = 0;
    std::int64_t input = 0;
    std::span<const KnowledgeId> received;
    std::span<const int> tags;
    BoardId board = 0;
    int time = 0;  // not identity-defining; stored on insertion
  };

  /// A board's multiset, in the received pool.
  struct Board {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };

  /// Round-memo slot values that are not ids: a value the open board
  /// lacks, and a (prev, bit) not stepped yet this round.
  static constexpr KnowledgeId kAbsent = 0xFFFFFFFFu;
  static constexpr KnowledgeId kNotStepped = kAbsent - 1;

  /// Probes with the borrowed shape; appends the spans to the pools on
  /// first insertion.
  KnowledgeId intern_shape(const NodeShape& shape);
  /// Stores `shape` as the next node, materializing its spans into the
  /// pools, unindexed.
  KnowledgeId append_node(const NodeShape& shape);
  /// Stores `node` as the next node, unindexed.
  KnowledgeId push_node(const Node& node) {
    const KnowledgeId id = narrow_store_index(nodes_.size(), "knowledge id");
    nodes_.push_back(node);
    return id;
  }
  /// Stores the step of `prev` on the open round's board, unindexed.
  KnowledgeId append_board_step(KnowledgeId prev, bool bit) {
    Node step;
    step.kind = KnowledgeKind::kBlackboardStep;
    step.bit = bit;
    step.prev = prev;
    step.time = node(prev).time + 1;
    step.board = round_board_;
    return push_node(step);
  }
  /// Stores `sorted_board` as the next board, unindexed, and raises the
  /// board ceiling past its largest id.
  BoardId append_board(std::span<const KnowledgeId> sorted_board);
  /// Index the unindexed tail of the node and board tables.
  void index_nodes();
  void index_boards();
  NodeShape stored_shape(const Node& n) const;
  std::uint64_t shape_hash(const NodeShape& shape) const;
  bool shape_equal(const Node& a, const NodeShape& b) const;
  const Node& node(KnowledgeId id) const {
    if (id >= nodes_.size()) throw_unknown_id(id);
    return nodes_[id];
  }
  [[noreturn]] static void throw_unknown_id(KnowledgeId id);
  std::span<const KnowledgeId> node_received(const Node& n) const noexcept {
    return {received_pool_.data() + n.received_offset, n.received_size};
  }
  std::span<const int> node_tags(const Node& n) const noexcept {
    return {tags_pool_.data() + n.tags_offset, n.tags_size};
  }
  std::span<const KnowledgeId> board_values(BoardId b) const noexcept {
    return {received_pool_.data() + boards_[b].offset, boards_[b].size};
  }

  std::vector<Node> nodes_;
  InternIndex node_index_;                  // over a prefix of nodes_
  std::vector<Board> boards_;
  InternIndex board_index_;                 // over a prefix of boards_
  std::vector<KnowledgeId> received_pool_;  // message tuples and boards
  std::vector<int> tags_pool_;              // message steps' tag lists
  /// One more than the largest id any board holds; 0 while none does.
  std::size_t board_ceiling_ = 0;

  // The open round (open_round): its board, whether the round created it,
  // and the (prev, bit) memo over the board's id range.
  BoardId round_board_ = 0;
  bool round_board_new_ = false;
  KnowledgeId round_lowest_ = 0;
  std::vector<KnowledgeId> round_memo_;
};

}  // namespace rsb
