// The decision rules as per-party bodies over one party's post-round
// knowledge: each protocol's decide(store, knowledge) as it read before
// the rules became one function of the sorted time-(t−1) multiset
// (AnonymousProtocol::decide_multiset). They are kept unchanged as the
// reference that rule is checked against — tests/reference_run.hpp
// decides every party through them, and the algo cases compare the rule's
// verdicts with them — so a rewrite of a rule cannot pass by agreeing with
// itself. None of them shares code with src/: each rebuilds the multiset
// itself, wait-for-singleton reads the board, unique-string counts
// materialized strings in a std::map, and class-split searches subsets
// depth first.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "algo/protocol.hpp"
#include "knowledge/knowledge.hpp"

namespace rsb::testing {

namespace reference_detail {

/// The multiset of every party's knowledge at time t−1, reconstructed from
/// one party's knowledge at time t, sorted: a blackboard step's board, or
/// a message step's received values plus the party's own previous value.
/// Empty when t = 0 (nothing received yet). Silence entries are dropped.
inline std::vector<KnowledgeId> knowledge_multiset_previous_round(
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

inline std::map<KnowledgeId, int> count_by_value(
    const std::vector<KnowledgeId>& multiset) {
  std::map<KnowledgeId, int> counts;
  for (KnowledgeId id : multiset) ++counts[id];
  return counts;
}

/// Index of the first value at or after `from` that occurs exactly once in
/// the sorted span, or sorted.size() if there is none.
inline std::size_t next_singleton(std::span<const KnowledgeId> sorted,
                                  std::size_t from) {
  while (from < sorted.size()) {
    std::size_t next = from + 1;
    while (next < sorted.size() && sorted[next] == sorted[from]) ++next;
    if (next - from == 1) return from;
    from = next;
  }
  return sorted.size();
}

/// Finds the canonical (first in include-preferring DFS over classes sorted
/// by id) sub-collection of classes totalling exactly `target`; returns the
/// chosen class ids, or nullopt.
inline std::optional<std::vector<KnowledgeId>> canonical_subset_with_sum(
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

}  // namespace reference_detail

/// blackboard-unique-string-LE: the lexicographically smallest string that
/// occurs once in the time-(t−1) multiset crowns its holder.
inline std::optional<std::int64_t> unique_string_decide(
    const KnowledgeStore& store, KnowledgeId knowledge) {
  const std::vector<KnowledgeId> multiset =
      reference_detail::knowledge_multiset_previous_round(store, knowledge);
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

/// wait-for-singleton-LE: the smallest value that occurs once in the
/// time-(t−1) multiset crowns its holder.
inline std::optional<std::int64_t> singleton_decide(
    const KnowledgeStore& store, KnowledgeId knowledge) {
  const KnowledgeKind k = store.kind(knowledge);
  if (k != KnowledgeKind::kBlackboardStep && k != KnowledgeKind::kMessageStep) {
    return std::nullopt;
  }
  const KnowledgeId prev = store.previous(knowledge);
  const auto decide_on =
      [prev](std::span<const KnowledgeId> multiset)
      -> std::optional<std::int64_t> {
    const std::size_t first = reference_detail::next_singleton(multiset, 0);
    if (first == multiset.size()) return std::nullopt;
    return prev == multiset[first] ? 1 : 0;
  };
  if (k == KnowledgeKind::kBlackboardStep) {
    return decide_on(store.board(knowledge));
  }
  // Port tuples are port-ordered, not sorted (and may contain crash-masked
  // silence entries): they take the general sorted path.
  return decide_on(
      reference_detail::knowledge_multiset_previous_round(store, knowledge));
}

/// wait-for-class-split-LE(m): the canonical sub-collection of classes of
/// total size m crowns its members.
inline std::optional<std::int64_t> class_split_decide(
    int num_leaders, const KnowledgeStore& store, KnowledgeId knowledge) {
  const std::vector<KnowledgeId> multiset =
      reference_detail::knowledge_multiset_previous_round(store, knowledge);
  if (multiset.empty()) return std::nullopt;
  const std::map<KnowledgeId, int> counts =
      reference_detail::count_by_value(multiset);
  std::vector<std::pair<KnowledgeId, int>> classes(counts.begin(),
                                                   counts.end());
  const auto chosen =
      reference_detail::canonical_subset_with_sum(classes, num_leaders);
  if (!chosen.has_value()) return std::nullopt;
  const KnowledgeId own = store.previous(knowledge);
  const bool is_leader =
      std::find(chosen->begin(), chosen->end(), own) != chosen->end();
  return is_leader ? 1 : 0;
}

/// The reference body of `protocol`'s rule, for one party's knowledge.
inline std::optional<std::int64_t> reference_decide(
    const AnonymousProtocol& protocol, const KnowledgeStore& store,
    KnowledgeId knowledge) {
  if (dynamic_cast<const BlackboardUniqueStringLE*>(&protocol) != nullptr) {
    return unique_string_decide(store, knowledge);
  }
  if (dynamic_cast<const WaitForSingletonLE*>(&protocol) != nullptr) {
    return singleton_decide(store, knowledge);
  }
  if (const auto* split = dynamic_cast<const WaitForClassSplitMLE*>(&protocol);
      split != nullptr) {
    return class_split_decide(split->num_leaders(), store, knowledge);
  }
  throw std::logic_error("no reference decide for " + protocol.name());
}

}  // namespace rsb::testing
