#include "knowledge/knowledge.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rsb {

namespace {

// Intern hashes fold one 64-bit word per xor-multiply and finish with one
// mix64. The tables need only a well-spread hash: equality is checked
// exactly, and ids follow insertion order, so the hash decides nothing
// but the probe order.
constexpr std::uint64_t kFoldMultiplier = 0x9e3779b97f4a7c15ULL;  // odd

constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t word) noexcept {
  return (h ^ word) * kFoldMultiplier;
}

/// A sorted board's hash, two ids per word.
std::uint64_t board_hash(std::span<const KnowledgeId> values) noexcept {
  std::uint64_t h = fold(0, values.size());
  std::size_t i = 0;
  for (; i + 1 < values.size(); i += 2) {
    h = fold(h, values[i] | std::uint64_t{values[i + 1]} << 32);
  }
  if (i < values.size()) h = fold(h, values[i]);
  return mix64(h);
}

}  // namespace

KnowledgeStore::KnowledgeStore() { reset(); }

void KnowledgeStore::reset() {
  // The tables and pools keep the storage the ending run needed, within
  // kRetainFactor (util/intern_index.hpp), so a sweep's runs reuse it
  // without allocating and one long run does not weigh on later ones.
  // Reserve id 0 for ⊥.
  node_index_.reset();
  board_index_.reset();
  reset_pool(nodes_);
  reset_pool(boards_);
  reset_pool(received_pool_);
  reset_pool(tags_pool_);
  reset_pool(round_memo_);  // closes the open round
  board_ceiling_ = 0;
  NodeShape bottom;
  bottom.kind = KnowledgeKind::kBottom;
  intern_shape(bottom);
}

KnowledgeId KnowledgeStore::silence() {
  NodeShape shape;
  shape.kind = KnowledgeKind::kSilence;
  return intern_shape(shape);
}

KnowledgeId KnowledgeStore::input(std::int64_t value) {
  NodeShape shape;
  shape.kind = KnowledgeKind::kInput;
  shape.input = value;
  return intern_shape(shape);
}

KnowledgeId KnowledgeStore::blackboard_step(KnowledgeId prev, bool bit,
                                            std::vector<KnowledgeId> others) {
  // The board is the received multiset plus the party's own value, sorted
  // (multiset canonicalization).
  others.push_back(prev);
  std::sort(others.begin(), others.end());
  return blackboard_step_on(prev, bit, intern_board(others));
}

BoardId KnowledgeStore::intern_board(
    std::span<const KnowledgeId> sorted_board) {
  index_boards();
  const std::uint64_t h = board_hash(sorted_board);
  const std::size_t slot = board_index_.find(h, [&](std::uint32_t b) {
    const std::span<const KnowledgeId> values = board_values(b);
    return std::equal(values.begin(), values.end(), sorted_board.begin(),
                      sorted_board.end());
  });
  if (board_index_.at(slot) != InternIndex::kEmptySlot) {
    return board_index_.at(slot);
  }
  board_index_.insert(slot, h, "board id");
  return append_board(sorted_board);
}

BoardId KnowledgeStore::append_board(
    std::span<const KnowledgeId> sorted_board) {
  Board board;
  board.offset = narrow_store_index(received_pool_.size(), "pool offset");
  board.size = narrow_store_index(sorted_board.size(), "board size");
  const BoardId id = narrow_store_index(boards_.size(), "board id");
  received_pool_.insert(received_pool_.end(), sorted_board.begin(),
                        sorted_board.end());
  boards_.push_back(board);
  if (!sorted_board.empty()) {
    board_ceiling_ =
        std::max(board_ceiling_, std::size_t{sorted_board.back()} + 1);
  }
  return id;
}

void KnowledgeStore::index_boards() {
  for (std::size_t b = board_index_.size(); b < boards_.size(); ++b) {
    board_index_.append(board_hash(board_values(static_cast<BoardId>(b))),
                        "board id");
  }
}

KnowledgeId KnowledgeStore::blackboard_step_on(KnowledgeId prev, bool bit,
                                               BoardId board) {
  if (board >= boards_.size()) {
    throw InvalidArgument("KnowledgeStore::blackboard_step_on: unknown board " +
                          std::to_string(board));
  }
  // A step this call makes on the open round's board would be probed for
  // by nothing: round_step probes on that board from now on.
  if (board == round_board_) round_board_new_ = false;
  NodeShape shape;
  shape.kind = KnowledgeKind::kBlackboardStep;
  shape.prev = prev;
  shape.bit = bit;
  shape.board = board;
  shape.time = time(prev) + 1;
  return intern_shape(shape);
}

BoardId KnowledgeStore::open_round(std::span<const KnowledgeId> sorted_board) {
  // A board holding an id no earlier board holds equals none of them.
  const std::size_t boards = boards_.size();
  round_board_ =
      !sorted_board.empty() && sorted_board.back() >= board_ceiling_
          ? append_board(sorted_board)
          : intern_board(sorted_board);
  round_board_new_ = boards_.size() > boards;
  // The memo's slots cover the board's id range; ids in it that the board
  // lacks keep kAbsent.
  round_lowest_ = sorted_board.empty() ? 0 : sorted_board.front();
  const std::size_t range =
      sorted_board.empty()
          ? 0
          : std::size_t{sorted_board.back()} - round_lowest_ + 1;
  round_memo_.assign(2 * range, kAbsent);
  for (const KnowledgeId value : sorted_board) {
    const std::size_t slot = 2 * std::size_t{value - round_lowest_};
    round_memo_[slot] = kNotStepped;
    round_memo_[slot + 1] = kNotStepped;
  }
  return round_board_;
}

KnowledgeId KnowledgeStore::message_step(KnowledgeId prev, bool bit,
                                         std::vector<KnowledgeId> by_port,
                                         std::vector<int> tags) {
  return message_step_view(prev, bit, by_port, tags);
}

KnowledgeId KnowledgeStore::message_step_view(KnowledgeId prev, bool bit,
                                              std::span<const KnowledgeId> by_port,
                                              std::span<const int> tags) {
  if (!tags.empty() && tags.size() != by_port.size()) {
    throw InvalidArgument(
        "KnowledgeStore::message_step: tags/ports size mismatch");
  }
  NodeShape shape;
  shape.kind = KnowledgeKind::kMessageStep;
  shape.prev = prev;
  shape.bit = bit;
  shape.received = by_port;  // port order is significant
  shape.tags = tags;
  shape.time = time(prev) + 1;
  return intern_shape(shape);
}

std::span<const int> KnowledgeStore::tags(KnowledgeId id) const {
  const Node& n = node(id);
  if (n.kind != KnowledgeKind::kMessageStep) {
    throw InvalidArgument("KnowledgeStore::tags: not a message step");
  }
  return node_tags(n);
}

KnowledgeKind KnowledgeStore::kind(KnowledgeId id) const {
  return node(id).kind;
}

KnowledgeId KnowledgeStore::previous(KnowledgeId id) const {
  const Node& n = node(id);
  if (n.kind != KnowledgeKind::kBlackboardStep &&
      n.kind != KnowledgeKind::kMessageStep) {
    throw InvalidArgument("KnowledgeStore::previous: not a step value");
  }
  return n.prev;
}

bool KnowledgeStore::bit(KnowledgeId id) const {
  const Node& n = node(id);
  if (n.kind != KnowledgeKind::kBlackboardStep &&
      n.kind != KnowledgeKind::kMessageStep) {
    throw InvalidArgument("KnowledgeStore::bit: not a step value");
  }
  return n.bit;
}

std::span<const KnowledgeId> KnowledgeStore::received(KnowledgeId id) const {
  const Node& n = node(id);
  if (n.kind != KnowledgeKind::kMessageStep) {
    throw InvalidArgument(
        "KnowledgeStore::received: not a message step (a blackboard step "
        "keeps its board)");
  }
  return node_received(n);
}

std::span<const KnowledgeId> KnowledgeStore::board(KnowledgeId id) const {
  const Node& n = node(id);
  if (n.kind != KnowledgeKind::kBlackboardStep) {
    throw InvalidArgument("KnowledgeStore::board: not a blackboard step");
  }
  return board_values(n.board);
}

std::int64_t KnowledgeStore::input_value(KnowledgeId id) const {
  const Node& n = node(id);
  if (n.kind != KnowledgeKind::kInput) {
    throw InvalidArgument("KnowledgeStore::input_value: not an input value");
  }
  return n.input;
}

int KnowledgeStore::time(KnowledgeId id) const { return node(id).time; }

std::vector<bool> KnowledgeStore::randomness(KnowledgeId id) const {
  std::vector<bool> bits;
  KnowledgeId current = id;
  while (kind(current) == KnowledgeKind::kBlackboardStep ||
         kind(current) == KnowledgeKind::kMessageStep) {
    bits.push_back(bit(current));
    current = previous(current);
  }
  std::reverse(bits.begin(), bits.end());
  return bits;
}

std::string KnowledgeStore::to_string(KnowledgeId id) const {
  const Node& n = node(id);
  switch (n.kind) {
    case KnowledgeKind::kBottom:
      return "⊥";
    case KnowledgeKind::kSilence:
      return "silence";
    case KnowledgeKind::kInput:
      return "in(" + std::to_string(n.input) + ")";
    case KnowledgeKind::kBlackboardStep:
    case KnowledgeKind::kMessageStep: {
      const bool blackboard = n.kind == KnowledgeKind::kBlackboardStep;
      std::string out = "#" + std::to_string(id) + "=(prev=#" +
                        std::to_string(n.prev) +
                        ",bit=" + (n.bit ? "1" : "0") + ",";
      out += blackboard ? "{" : "(";
      // A blackboard step shows what it received: its board less one copy
      // of its own previous value.
      bool own_skipped = !blackboard;
      bool first = true;
      for (KnowledgeId value :
           blackboard ? board_values(n.board) : node_received(n)) {
        if (!own_skipped && value == n.prev) {
          own_skipped = true;
          continue;
        }
        if (!first) out += ",";
        first = false;
        out += "#" + std::to_string(value);
      }
      out += blackboard ? "}" : ")";
      return out + ")";
    }
  }
  return "?";
}

KnowledgeId KnowledgeStore::intern_shape(const NodeShape& shape) {
  index_nodes();
  const std::uint64_t h = shape_hash(shape);
  const std::size_t slot = node_index_.find(
      h, [&](std::uint32_t id) { return shape_equal(nodes_[id], shape); });
  if (node_index_.at(slot) != InternIndex::kEmptySlot) {
    return node_index_.at(slot);
  }
  node_index_.insert(slot, h, "knowledge id");
  return append_node(shape);
}

KnowledgeId KnowledgeStore::append_node(const NodeShape& shape) {
  // Materialize the borrowed spans into the flat pools.
  Node node;
  node.kind = shape.kind;
  node.bit = shape.bit;
  node.prev = shape.prev;
  node.input = shape.input;
  node.received_offset =
      narrow_store_index(received_pool_.size(), "pool offset");
  node.received_size = narrow_store_index(shape.received.size(), "tuple size");
  node.tags_offset = narrow_store_index(tags_pool_.size(), "tag pool offset");
  node.tags_size = narrow_store_index(shape.tags.size(), "tag count");
  node.time = shape.time;
  node.board = shape.board;
  received_pool_.insert(received_pool_.end(), shape.received.begin(),
                        shape.received.end());
  tags_pool_.insert(tags_pool_.end(), shape.tags.begin(), shape.tags.end());
  return push_node(node);
}

void KnowledgeStore::index_nodes() {
  for (std::size_t id = node_index_.size(); id < nodes_.size(); ++id) {
    node_index_.append(shape_hash(stored_shape(nodes_[id])), "knowledge id");
  }
}

KnowledgeStore::NodeShape KnowledgeStore::stored_shape(const Node& n) const {
  NodeShape shape;
  shape.kind = n.kind;
  shape.bit = n.bit;
  shape.prev = n.prev;
  shape.input = n.input;
  shape.received = node_received(n);
  shape.tags = node_tags(n);
  shape.board = n.board;
  shape.time = n.time;
  return shape;
}

std::uint64_t KnowledgeStore::shape_hash(const NodeShape& n) const {
  std::uint64_t h = fold(0, static_cast<std::uint64_t>(n.kind) |
                                std::uint64_t{n.bit} << 8 |
                                std::uint64_t{n.received.size()} << 32);
  h = fold(h, n.prev | std::uint64_t{n.board} << 32);
  h = fold(h, static_cast<std::uint64_t>(n.input));
  // A message step folds each port's (received id, tag) pair as one word;
  // tags are either absent (the literal variant) or one per port
  // (message_step_view checks).
  for (std::size_t p = 0; p < n.received.size(); ++p) {
    const std::uint64_t tag =
        n.tags.empty() ? 0 : static_cast<std::uint32_t>(n.tags[p]);
    h = fold(h, n.received[p] | tag << 32);
  }
  return mix64(h);
}

bool KnowledgeStore::shape_equal(const Node& a, const NodeShape& b) const {
  if (a.kind != b.kind || a.bit != b.bit || a.prev != b.prev ||
      a.input != b.input || a.board != b.board ||
      a.received_size != b.received.size() || a.tags_size != b.tags.size()) {
    return false;
  }
  const std::span<const KnowledgeId> received = node_received(a);
  if (!std::equal(received.begin(), received.end(), b.received.begin())) {
    return false;
  }
  const std::span<const int> tags = node_tags(a);
  return std::equal(tags.begin(), tags.end(), b.tags.begin());
}

void KnowledgeStore::throw_unknown_id(KnowledgeId id) {
  throw InvalidArgument("KnowledgeStore: unknown id " + std::to_string(id));
}

}  // namespace rsb
