#include "algo/protocol.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <map>

#include "engine/engine.hpp"
#include "util/error.hpp"

namespace rsb {

namespace {

/// The multiset of every party's knowledge at time t−1, reconstructed from
/// one party's knowledge at time t, sorted: a blackboard step's board, or
/// a message step's received values plus the party's own previous value.
/// Empty when t = 0 (nothing received yet). Silence entries (crash-masked
/// channels, KnowledgeKind::kSilence) are dropped: a dead channel is not a
/// party's knowledge, so decision rules range over the still-participating
/// parties only — the message-passing counterpart of Eq. (1)'s
/// survivor-restricted multiset.
std::vector<KnowledgeId> knowledge_multiset_previous_round(
    const KnowledgeStore& store, KnowledgeId knowledge) {
  const KnowledgeKind k = store.kind(knowledge);
  if (k == KnowledgeKind::kBlackboardStep) {
    const std::span<const KnowledgeId> board = store.board(knowledge);
    return {board.begin(), board.end()};
  }
  if (k != KnowledgeKind::kMessageStep) return {};
  std::vector<KnowledgeId> multiset;
  multiset.reserve(store.received(knowledge).size() + 1);
  for (KnowledgeId id : store.received(knowledge)) {
    if (store.kind(id) != KnowledgeKind::kSilence) multiset.push_back(id);
  }
  multiset.push_back(store.previous(knowledge));
  std::sort(multiset.begin(), multiset.end());
  return multiset;
}

std::map<KnowledgeId, int> count_by_value(
    const std::vector<KnowledgeId>& multiset) {
  std::map<KnowledgeId, int> counts;
  for (KnowledgeId id : multiset) ++counts[id];
  return counts;
}

/// Index of the first value at or after `from` that occurs exactly once in
/// the sorted span, or sorted.size() if there is none.
std::size_t next_singleton(std::span<const KnowledgeId> sorted,
                           std::size_t from) {
  while (from < sorted.size()) {
    std::size_t next = from + 1;
    while (next < sorted.size() && sorted[next] == sorted[from]) ++next;
    if (next - from == 1) return from;
    from = next;
  }
  return sorted.size();
}

}  // namespace

AnonymousProtocol::RoundVerdicts AnonymousProtocol::decide_round_from_prev(
    const KnowledgeStore& /*store*/,
    std::span<const KnowledgeId> /*knowledge*/,
    std::span<const KnowledgeId> /*sorted_prev*/,
    std::vector<std::optional<std::int64_t>>& /*verdicts*/) const {
  return RoundVerdicts::kUnsupported;
}

std::optional<std::int64_t> BlackboardUniqueStringLE::decide(
    const KnowledgeStore& store, KnowledgeId knowledge) const {
  const std::vector<KnowledgeId> multiset =
      knowledge_multiset_previous_round(store, knowledge);
  if (multiset.empty()) return std::nullopt;
  // On the blackboard, knowledge equality is string equality; decide on the
  // randomness strings embedded in the knowledge values.
  std::vector<std::vector<bool>> strings;
  strings.reserve(multiset.size());
  for (KnowledgeId id : multiset) strings.push_back(store.randomness(id));
  std::map<std::vector<bool>, int> counts;
  for (const auto& s : strings) ++counts[s];
  const std::vector<bool>* leader_string = nullptr;
  for (const auto& [s, c] : counts) {
    if (c == 1) {  // std::map iterates in lexicographic order
      leader_string = &s;
      break;
    }
  }
  if (leader_string == nullptr) return std::nullopt;
  const std::vector<bool> own =
      store.randomness(store.previous(knowledge));
  return own == *leader_string ? 1 : 0;
}

namespace {

/// True iff every party of the round behind `sorted_prev` (a complete
/// fault-free blackboard party vector, sorted) started from ⊥. Any one
/// party's time-1 ancestor K(1) has the board {K_j(0) : all j}, every
/// party's time-0 value, so one chain walk checks them all.
bool rooted_at_bottom(const KnowledgeStore& store,
                      std::span<const KnowledgeId> sorted_prev) {
  const KnowledgeId bottom = store.bottom();
  KnowledgeId value = sorted_prev.front();
  if (store.time(value) == 0) return sorted_prev.back() == bottom;
  while (store.time(value) > 1) value = store.previous(value);
  return store.board(value).back() == bottom;  // ⊥ is the smallest id
}

/// Lexicographic order of the randomness strings of two distinct values
/// of one round, without materializing either: walk both previous chains
/// back in lockstep until they meet (hash-consing makes the values equal
/// from there down, and so the string prefixes); the last bit difference
/// seen is the first position at which the strings differ.
bool string_less(const KnowledgeStore& store, KnowledgeId a, KnowledgeId b) {
  bool less = false;
  while (a != b) {
    const bool bit_a = store.bit(a);
    if (bit_a != store.bit(b)) less = !bit_a;
    a = store.previous(a);
    b = store.previous(b);
  }
  return less;
}

}  // namespace

AnonymousProtocol::RoundVerdicts
BlackboardUniqueStringLE::decide_round_from_prev(
    const KnowledgeStore& store, std::span<const KnowledgeId> knowledge,
    std::span<const KnowledgeId> sorted_prev,
    std::vector<std::optional<std::int64_t>>& verdicts) const {
  // The round-t rule ranges over the strings x(1..t−1) of the time-(t−1)
  // multiset, which pre-round is sorted_prev. On a fault-free blackboard
  // whose parties all start from ⊥, value and string determine each other:
  // equal strings give equal values by induction on Eq. (1), since the
  // shared multiset minus one copy of an equal value is the same multiset.
  // So the unique strings are exactly the singleton values. Message steps
  // (the wiring can split one string over several values) and input roots
  // keep the post-round decide.
  if (sorted_prev.empty()) return RoundVerdicts::kUnsupported;
  const KnowledgeKind kind = store.kind(sorted_prev.front());
  if (kind != KnowledgeKind::kBottom &&
      kind != KnowledgeKind::kBlackboardStep) {
    return RoundVerdicts::kUnsupported;
  }
  std::size_t i = next_singleton(sorted_prev, 0);
  // No singleton means no unique string whatever the roots (a value embeds
  // its string), so only a verdict needs the rooting check.
  if (i == sorted_prev.size()) return RoundVerdicts::kNone;
  if (!rooted_at_bottom(store, sorted_prev)) {
    return RoundVerdicts::kUnsupported;
  }
  KnowledgeId leader = sorted_prev[i];
  while ((i = next_singleton(sorted_prev, i + 1)) < sorted_prev.size()) {
    if (string_less(store, sorted_prev[i], leader)) leader = sorted_prev[i];
  }
  verdicts.resize(knowledge.size());
  for (std::size_t p = 0; p < knowledge.size(); ++p) {
    verdicts[p] = knowledge[p] == leader ? 1 : 0;
  }
  return RoundVerdicts::kSome;
}

std::optional<std::int64_t> WaitForSingletonLE::decide(
    const KnowledgeStore& store, KnowledgeId knowledge) const {
  // Allocation-free hot path on the blackboard (this decide runs once per
  // undecided party per round of every replayed sweep). The time-(t−1)
  // multiset is a blackboard step's board, already sorted, so the smallest
  // singleton falls out of one run-length scan. The canonical order on
  // knowledge values is their interned id; ids are deterministic content
  // handles, so this is a name-independent rule.
  const KnowledgeKind k = store.kind(knowledge);
  if (k != KnowledgeKind::kBlackboardStep && k != KnowledgeKind::kMessageStep) {
    return std::nullopt;
  }
  const KnowledgeId prev = store.previous(knowledge);
  const auto decide_on =
      [prev](std::span<const KnowledgeId> multiset)
      -> std::optional<std::int64_t> {
    const std::size_t first = next_singleton(multiset, 0);
    if (first == multiset.size()) return std::nullopt;
    return prev == multiset[first] ? 1 : 0;
  };
  if (k == KnowledgeKind::kBlackboardStep) {
    return decide_on(store.board(knowledge));
  }
  // Port tuples are port-ordered, not sorted (and may contain crash-masked
  // silence entries): they take the general sorted path.
  return decide_on(knowledge_multiset_previous_round(store, knowledge));
}

AnonymousProtocol::RoundVerdicts WaitForSingletonLE::decide_round_from_prev(
    const KnowledgeStore& /*store*/, std::span<const KnowledgeId> knowledge,
    std::span<const KnowledgeId> sorted_prev,
    std::vector<std::optional<std::int64_t>>& verdicts) const {
  // The round-t verdict of the scalar decide ranges over the time-(t−1)
  // multiset its step value carries (a blackboard step's board, a message
  // step's tuple plus its previous value), and in a fault-free round that
  // is exactly {K_j(t−1) : all j} for every party — which is sorted_prev.
  // No reconstruction from a step value is needed, so this also covers
  // round 1, where the scalar decide sees the all-⊥ multiset.
  const std::size_t first = next_singleton(sorted_prev, 0);
  if (first == sorted_prev.size()) return RoundVerdicts::kNone;
  const KnowledgeId singleton = sorted_prev[first];
  verdicts.resize(knowledge.size());
  for (std::size_t i = 0; i < knowledge.size(); ++i) {
    verdicts[i] = knowledge[i] == singleton ? 1 : 0;
  }
  return RoundVerdicts::kSome;
}

WaitForClassSplitMLE::WaitForClassSplitMLE(int num_leaders)
    : num_leaders_(num_leaders) {
  if (num_leaders < 0) {
    throw InvalidArgument("WaitForClassSplitMLE: m must be >= 0");
  }
}

std::string WaitForClassSplitMLE::name() const {
  return "wait-for-class-split-" + std::to_string(num_leaders_) + "-LE";
}

namespace {

/// Finds the canonical (first in include-preferring DFS over classes sorted
/// by id) sub-collection of classes totalling exactly `target`; returns the
/// chosen class ids, or nullopt.
std::optional<std::vector<KnowledgeId>> canonical_subset_with_sum(
    const std::vector<std::pair<KnowledgeId, int>>& classes, int target) {
  std::vector<KnowledgeId> chosen;
  std::function<bool(std::size_t, int)> dfs = [&](std::size_t index,
                                                  int remaining) -> bool {
    if (remaining == 0) return true;
    if (index == classes.size()) return false;
    const auto& [id, count] = classes[index];
    if (count <= remaining) {
      chosen.push_back(id);
      if (dfs(index + 1, remaining - count)) return true;
      chosen.pop_back();
    }
    return dfs(index + 1, remaining);
  };
  if (dfs(0, target)) return chosen;
  return std::nullopt;
}

}  // namespace

std::optional<std::int64_t> WaitForClassSplitMLE::decide(
    const KnowledgeStore& store, KnowledgeId knowledge) const {
  const std::vector<KnowledgeId> multiset =
      knowledge_multiset_previous_round(store, knowledge);
  if (multiset.empty()) return std::nullopt;
  const std::map<KnowledgeId, int> counts = count_by_value(multiset);
  std::vector<std::pair<KnowledgeId, int>> classes(counts.begin(),
                                                   counts.end());
  const auto chosen = canonical_subset_with_sum(classes, num_leaders_);
  if (!chosen.has_value()) return std::nullopt;
  const KnowledgeId own = store.previous(knowledge);
  const bool is_leader =
      std::find(chosen->begin(), chosen->end(), own) != chosen->end();
  return is_leader ? 1 : 0;
}

ProtocolOutcome run_protocol(Model model, const SourceConfiguration& config,
                             const std::optional<PortAssignment>& ports,
                             const AnonymousProtocol& protocol,
                             std::uint64_t seed, int max_rounds,
                             MessageVariant variant) {
  if ((model == Model::kMessagePassing) != ports.has_value()) {
    throw InvalidArgument(
        "run_protocol: ports must be given exactly for message passing");
  }
  Experiment spec;
  spec.model = model;
  spec.config = config;
  // Non-owning view: the caller's protocol outlives this single run.
  spec.protocol = std::shared_ptr<const AnonymousProtocol>(
      &protocol, [](const AnonymousProtocol*) {});
  if (ports.has_value()) {
    spec.with_ports(*ports);
  }
  spec.variant = variant;
  spec.max_rounds = max_rounds;
  spec.seeds = SeedRange::single(seed);
  Engine engine;
  return engine.run(spec, seed);
}

}  // namespace rsb
