#include "knowledge/knowledge.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rsb {

namespace {
constexpr KnowledgeId kEmptySlot = static_cast<KnowledgeId>(-1);
constexpr std::size_t kInitialSlots = 64;  // power of two

/// Smallest power-of-two table that holds `nodes` entries at load <= 1/2.
std::size_t table_size_for(std::size_t nodes) {
  std::size_t wanted = kInitialSlots;
  while (wanted < (nodes + 1) * 2) wanted *= 2;
  return wanted;
}
}  // namespace

KnowledgeStore::KnowledgeStore() { reset(); }

void KnowledgeStore::reset() {
  // clear() keeps the vectors' storage and the slot table is vacated in
  // place, so repeated runs through one store stop allocating once the
  // largest run has been seen; the reserve()s from the high-water mark
  // additionally spare a store that has only seen small runs the growth
  // reallocations when a deep recursion arrives. Reserve id 0 for ⊥.
  peak_nodes_ = std::max(peak_nodes_, nodes_.size());
  peak_received_ = std::max(peak_received_, received_pool_.size());
  peak_tags_ = std::max(peak_tags_, tags_pool_.size());
  nodes_.clear();
  hashes_.clear();
  received_pool_.clear();
  tags_pool_.clear();
  nodes_.reserve(peak_nodes_);
  hashes_.reserve(peak_nodes_);
  received_pool_.reserve(peak_received_);
  tags_pool_.reserve(peak_tags_);
  const std::size_t wanted = table_size_for(peak_nodes_);
  if (slots_.size() < wanted) {
    slots_.assign(wanted, kEmptySlot);
  } else {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  }
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
  std::sort(others.begin(), others.end());  // multiset canonicalization
  return blackboard_step_sorted(prev, bit, others);
}

KnowledgeId KnowledgeStore::blackboard_step_sorted(
    KnowledgeId prev, bool bit, std::span<const KnowledgeId> others_sorted) {
  NodeShape shape;
  shape.kind = KnowledgeKind::kBlackboardStep;
  shape.prev = prev;
  shape.bit = bit;
  shape.received = others_sorted;
  shape.time = time(prev) + 1;
  return intern_shape(shape);
}

KnowledgeId KnowledgeStore::message_step(KnowledgeId prev, bool bit,
                                         std::vector<KnowledgeId> by_port) {
  return message_step_view(prev, bit, by_port, {});
}

KnowledgeId KnowledgeStore::message_step_tagged(KnowledgeId prev, bool bit,
                                                std::vector<KnowledgeId> by_port,
                                                std::vector<int> tags) {
  if (tags.size() != by_port.size()) {
    throw InvalidArgument(
        "KnowledgeStore::message_step_tagged: tags/ports size mismatch");
  }
  return message_step_view(prev, bit, by_port, tags);
}

KnowledgeId KnowledgeStore::message_step_view(KnowledgeId prev, bool bit,
                                              std::span<const KnowledgeId> by_port,
                                              std::span<const int> tags) {
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
  if (n.kind != KnowledgeKind::kBlackboardStep &&
      n.kind != KnowledgeKind::kMessageStep) {
    throw InvalidArgument("KnowledgeStore::received: not a step value");
  }
  return node_received(n);
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
      std::string out = "#" + std::to_string(id) + "=(prev=#" +
                        std::to_string(n.prev) +
                        ",bit=" + (n.bit ? "1" : "0") + ",";
      out += n.kind == KnowledgeKind::kBlackboardStep ? "{" : "(";
      const std::span<const KnowledgeId> received = node_received(n);
      for (std::size_t i = 0; i < received.size(); ++i) {
        if (i != 0) out += ",";
        out += "#" + std::to_string(received[i]);
      }
      out += n.kind == KnowledgeKind::kBlackboardStep ? "}" : ")";
      return out + ")";
    }
  }
  return "?";
}

KnowledgeId KnowledgeStore::intern_shape(const NodeShape& shape) {
  const std::uint64_t h = shape_hash(shape);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (true) {
    const KnowledgeId occupant = slots_[i];
    if (occupant == kEmptySlot) break;
    if (hashes_[occupant] == h && shape_equal(nodes_[occupant], shape)) {
      return occupant;
    }
    i = (i + 1) & mask;
  }
  // First insertion: materialize the borrowed spans into the flat pools.
  Node node;
  node.kind = shape.kind;
  node.bit = shape.bit;
  node.prev = shape.prev;
  node.input = shape.input;
  node.received_offset = static_cast<std::uint32_t>(received_pool_.size());
  node.received_size = static_cast<std::uint32_t>(shape.received.size());
  node.tags_offset = static_cast<std::uint32_t>(tags_pool_.size());
  node.tags_size = static_cast<std::uint32_t>(shape.tags.size());
  node.time = shape.time;
  received_pool_.insert(received_pool_.end(), shape.received.begin(),
                        shape.received.end());
  tags_pool_.insert(tags_pool_.end(), shape.tags.begin(), shape.tags.end());
  const KnowledgeId id = static_cast<KnowledgeId>(nodes_.size());
  nodes_.push_back(node);
  hashes_.push_back(h);
  slots_[i] = id;
  // Keep the load factor at most 1/2 so probe chains stay short. (The
  // constant-time check is equivalent to table_size_for(nodes_.size()) >
  // slots_.size() because slots_.size() is always a power of two >=
  // kInitialSlots — don't pay the sizing loop on the hot path.)
  if ((nodes_.size() + 1) * 2 > slots_.size()) grow_slots();
  return id;
}

void KnowledgeStore::grow_slots() {
  std::vector<KnowledgeId> bigger(table_size_for(nodes_.size()), kEmptySlot);
  const std::size_t mask = bigger.size() - 1;
  for (KnowledgeId id = 0; id < static_cast<KnowledgeId>(nodes_.size());
       ++id) {
    std::size_t i = static_cast<std::size_t>(hashes_[id]) & mask;
    while (bigger[i] != kEmptySlot) i = (i + 1) & mask;
    bigger[i] = id;
  }
  slots_ = std::move(bigger);
}

std::uint64_t KnowledgeStore::shape_hash(const NodeShape& n) const {
  std::uint64_t seed = mix64(static_cast<std::uint64_t>(n.kind));
  seed = hash_combine(seed, static_cast<std::uint64_t>(n.bit));
  seed = hash_combine(seed, n.prev);
  seed = hash_combine(seed, static_cast<std::uint64_t>(n.input));
  seed = hash_range(n.received.begin(), n.received.end(), seed);
  return hash_range(n.tags.begin(), n.tags.end(), seed);
}

bool KnowledgeStore::shape_equal(const Node& a, const NodeShape& b) const {
  if (a.kind != b.kind || a.bit != b.bit || a.prev != b.prev ||
      a.input != b.input || a.received_size != b.received.size() ||
      a.tags_size != b.tags.size()) {
    return false;
  }
  const std::span<const KnowledgeId> received = node_received(a);
  if (!std::equal(received.begin(), received.end(), b.received.begin())) {
    return false;
  }
  const std::span<const int> tags = node_tags(a);
  return std::equal(tags.begin(), tags.end(), b.tags.begin());
}

const KnowledgeStore::Node& KnowledgeStore::node(KnowledgeId id) const {
  if (id >= nodes_.size()) {
    throw InvalidArgument("KnowledgeStore: unknown id " + std::to_string(id));
  }
  return nodes_[id];
}

}  // namespace rsb
