#include "model/models.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/partitions.hpp"

namespace rsb {

std::string to_string(Model model) {
  switch (model) {
    case Model::kBlackboard:
      return "blackboard";
    case Model::kMessagePassing:
      return "message-passing";
  }
  return "?";
}

std::string to_string(MessageVariant variant) {
  switch (variant) {
    case MessageVariant::kPortTagged:
      return "port-tagged";
    case MessageVariant::kLiteral:
      return "literal";
  }
  return "?";
}

std::vector<KnowledgeId> initial_knowledge(KnowledgeStore& store,
                                           int num_parties) {
  if (num_parties < 1) {
    throw InvalidArgument("initial_knowledge: n must be >= 1");
  }
  return std::vector<KnowledgeId>(static_cast<std::size_t>(num_parties),
                                  store.bottom());
}

std::vector<KnowledgeId> initial_knowledge_with_inputs(
    KnowledgeStore& store, const std::vector<std::int64_t>& inputs) {
  std::vector<KnowledgeId> out;
  out.reserve(inputs.size());
  for (std::int64_t v : inputs) out.push_back(store.input(v));
  return out;
}

std::vector<KnowledgeId> blackboard_round(KnowledgeStore& store,
                                          const std::vector<KnowledgeId>& prev,
                                          const std::vector<bool>& bits) {
  const std::size_t n = prev.size();
  if (bits.size() != n) {
    throw InvalidArgument("blackboard_round: bits/knowledge size mismatch");
  }
  std::vector<KnowledgeId> next;
  next.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<KnowledgeId> others;
    others.reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) others.push_back(prev[j]);
    }
    next.push_back(store.blackboard_step(prev[i], bits[i], std::move(others)));
  }
  return next;
}

std::vector<KnowledgeId> blackboard_round_crash(
    KnowledgeStore& store, const std::vector<KnowledgeId>& prev,
    const std::vector<bool>& bits, const std::vector<int>& crash_round,
    int round) {
  if (crash_round.empty()) return blackboard_round(store, prev, bits);
  const std::size_t n = prev.size();
  if (bits.size() != n || crash_round.size() != n) {
    throw InvalidArgument(
        "blackboard_round_crash: bits/crash/knowledge size mismatch");
  }
  const auto alive = [&](std::size_t j) {
    return crash_round[j] < 0 || round < crash_round[j];
  };
  std::vector<KnowledgeId> next;
  next.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive(i)) {
      next.push_back(prev[i]);  // frozen at the last pre-crash value
      continue;
    }
    std::vector<KnowledgeId> others;
    others.reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i && alive(j)) others.push_back(prev[j]);
    }
    next.push_back(store.blackboard_step(prev[i], bits[i], std::move(others)));
  }
  return next;
}

namespace {

/// Party j has halted by round `round` of a non-empty crash schedule: it
/// halts at the start of its crash round.
bool halted(std::span<const int> crash_round, std::size_t j, int round) {
  return crash_round[j] >= 0 && round >= crash_round[j];
}

}  // namespace

void blackboard_round_inplace(KnowledgeStore& store,
                              std::vector<KnowledgeId>& knowledge,
                              const std::vector<bool>& bits,
                              RoundScratch& scratch,
                              std::span<const int> crash_round, int round,
                              std::span<const KnowledgeId> sorted_prev) {
  const std::size_t n = knowledge.size();
  const bool faulty = !crash_round.empty();
  if (bits.size() != n || (faulty && crash_round.size() != n)) {
    throw InvalidArgument(
        "blackboard_round_inplace: bits/crash/knowledge size mismatch");
  }
  if (!sorted_prev.empty() && (faulty || sorted_prev.size() != n)) {
    throw InvalidArgument(
        "blackboard_round_inplace: a caller-sorted multiset must be the "
        "sorted knowledge of a fault-free round");
  }
  // Eq. (1)'s participant multiset, sorted once: each participating
  // party's multiset is that vector minus one occurrence of its own value.
  if (sorted_prev.empty()) {
    scratch.sorted_prev.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (!faulty || !halted(crash_round, j, round)) {
        scratch.sorted_prev.push_back(knowledge[j]);
      }
    }
    std::sort(scratch.sorted_prev.begin(), scratch.sorted_prev.end());
    sorted_prev = scratch.sorted_prev;
  }
  scratch.next.clear();
  scratch.next.reserve(n);
  scratch.received.resize(sorted_prev.empty() ? 0 : sorted_prev.size() - 1);
  scratch.memo_prev.clear();
  scratch.memo_bit.clear();
  scratch.memo_id.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const KnowledgeId own = knowledge[i];
    if (faulty && halted(crash_round, i, round)) {
      scratch.next.push_back(own);  // frozen at the last pre-crash value
      continue;
    }
    const unsigned char bit = bits[i] ? 1 : 0;
    std::size_t m = 0;
    for (; m < scratch.memo_prev.size(); ++m) {
      if (scratch.memo_prev[m] == own && scratch.memo_bit[m] == bit) break;
    }
    if (m < scratch.memo_prev.size()) {
      scratch.next.push_back(scratch.memo_id[m]);
      continue;
    }
    const auto it =
        std::lower_bound(sorted_prev.begin(), sorted_prev.end(), own);
    const std::size_t skip =
        static_cast<std::size_t>(it - sorted_prev.begin());
    std::copy(sorted_prev.begin(), it, scratch.received.begin());
    std::copy(it + 1, sorted_prev.end(),
              scratch.received.begin() + static_cast<std::ptrdiff_t>(skip));
    const KnowledgeId id =
        store.blackboard_step_sorted(own, bits[i], scratch.received);
    scratch.memo_prev.push_back(own);
    scratch.memo_bit.push_back(bit);
    scratch.memo_id.push_back(id);
    scratch.next.push_back(id);
  }
  knowledge.swap(scratch.next);
}

void message_round_inplace(KnowledgeStore& store,
                           std::vector<KnowledgeId>& knowledge,
                           const std::vector<bool>& bits,
                           const PortAssignment& ports, MessageVariant variant,
                           RoundScratch& scratch,
                           std::span<const int> crash_round, int round) {
  const std::size_t n = knowledge.size();
  const bool faulty = !crash_round.empty();
  if (bits.size() != n || (faulty && crash_round.size() != n)) {
    throw InvalidArgument(
        "message_round_inplace: bits/crash/knowledge size mismatch");
  }
  if (ports.num_parties() != static_cast<int>(n)) {
    throw InvalidArgument(
        "message_round_inplace: ports/knowledge size mismatch");
  }
  const bool tagged = variant == MessageVariant::kPortTagged;
  scratch.next.clear();
  scratch.next.reserve(n);
  scratch.received.resize(n > 0 ? n - 1 : 0);
  scratch.tags.resize(tagged && n > 0 ? n - 1 : 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (faulty && halted(crash_round, i, round)) {
      scratch.next.push_back(knowledge[i]);  // frozen at last pre-crash value
      continue;
    }
    for (int p = 1; p <= static_cast<int>(n) - 1; ++p) {
      const int sender = ports.neighbor(static_cast<int>(i), p);
      const bool silent =
          faulty &&
          halted(crash_round, static_cast<std::size_t>(sender), round);
      // silence() interns lazily on first use — the same point in the id
      // sequence as the allocating version, keeping ids byte-identical.
      scratch.received[static_cast<std::size_t>(p - 1)] =
          silent ? store.silence()
                 : knowledge[static_cast<std::size_t>(sender)];
      if (tagged) {
        // A silent channel transmits nothing, so no reciprocal tag; 0 is
        // outside the valid port range [1, n-1].
        scratch.tags[static_cast<std::size_t>(p - 1)] =
            silent ? 0 : ports.port_to(sender, static_cast<int>(i));
      }
    }
    scratch.next.push_back(store.message_step_view(
        knowledge[i], bits[i], scratch.received, scratch.tags));
  }
  knowledge.swap(scratch.next);
}

std::vector<KnowledgeId> message_round(KnowledgeStore& store,
                                       const std::vector<KnowledgeId>& prev,
                                       const std::vector<bool>& bits,
                                       const PortAssignment& ports,
                                       MessageVariant variant) {
  const std::size_t n = prev.size();
  if (bits.size() != n) {
    throw InvalidArgument("message_round: bits/knowledge size mismatch");
  }
  if (ports.num_parties() != static_cast<int>(n)) {
    throw InvalidArgument("message_round: ports/knowledge size mismatch");
  }
  std::vector<KnowledgeId> next;
  next.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<KnowledgeId> by_port;
    std::vector<int> tags;
    by_port.reserve(n - 1);
    tags.reserve(n - 1);
    for (int p = 1; p <= static_cast<int>(n) - 1; ++p) {
      const int sender = ports.neighbor(static_cast<int>(i), p);
      by_port.push_back(prev[static_cast<std::size_t>(sender)]);
      if (variant == MessageVariant::kPortTagged) {
        tags.push_back(ports.port_to(sender, static_cast<int>(i)));
      }
    }
    if (variant == MessageVariant::kPortTagged) {
      next.push_back(store.message_step_tagged(prev[i], bits[i],
                                               std::move(by_port),
                                               std::move(tags)));
    } else {
      next.push_back(store.message_step(prev[i], bits[i], std::move(by_port)));
    }
  }
  return next;
}

std::vector<KnowledgeId> message_round_crash(
    KnowledgeStore& store, const std::vector<KnowledgeId>& prev,
    const std::vector<bool>& bits, const PortAssignment& ports,
    MessageVariant variant, const std::vector<int>& crash_round, int round) {
  if (crash_round.empty()) {
    return message_round(store, prev, bits, ports, variant);
  }
  const std::size_t n = prev.size();
  if (bits.size() != n || crash_round.size() != n) {
    throw InvalidArgument(
        "message_round_crash: bits/crash/knowledge size mismatch");
  }
  if (ports.num_parties() != static_cast<int>(n)) {
    throw InvalidArgument("message_round_crash: ports/knowledge size mismatch");
  }
  const auto alive = [&](std::size_t j) {
    return crash_round[j] < 0 || round < crash_round[j];
  };
  std::vector<KnowledgeId> next;
  next.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive(i)) {
      next.push_back(prev[i]);  // frozen at the last pre-crash value
      continue;
    }
    std::vector<KnowledgeId> by_port;
    std::vector<int> tags;
    by_port.reserve(n - 1);
    if (variant == MessageVariant::kPortTagged) tags.reserve(n - 1);
    for (int p = 1; p <= static_cast<int>(n) - 1; ++p) {
      const int sender = ports.neighbor(static_cast<int>(i), p);
      const bool sender_alive = alive(static_cast<std::size_t>(sender));
      by_port.push_back(sender_alive ? prev[static_cast<std::size_t>(sender)]
                                     : store.silence());
      if (variant == MessageVariant::kPortTagged) {
        // A silent channel transmits nothing, so no reciprocal tag; 0 is
        // outside the valid port range [1, n-1].
        tags.push_back(sender_alive ? ports.port_to(sender, static_cast<int>(i))
                                    : 0);
      }
    }
    if (variant == MessageVariant::kPortTagged) {
      next.push_back(store.message_step_tagged(prev[i], bits[i],
                                               std::move(by_port),
                                               std::move(tags)));
    } else {
      next.push_back(store.message_step(prev[i], bits[i], std::move(by_port)));
    }
  }
  return next;
}

namespace {

std::vector<bool> round_bits(const Realization& realization, int round) {
  std::vector<bool> bits;
  bits.reserve(static_cast<std::size_t>(realization.num_parties()));
  for (int party = 0; party < realization.num_parties(); ++party) {
    bits.push_back(realization.string_of(party).bit_at_round(round));
  }
  return bits;
}

}  // namespace

std::vector<KnowledgeId> knowledge_at_blackboard(
    KnowledgeStore& store, const Realization& realization) {
  std::vector<KnowledgeId> knowledge =
      initial_knowledge(store, realization.num_parties());
  for (int round = 1; round <= realization.time(); ++round) {
    knowledge = blackboard_round(store, knowledge, round_bits(realization, round));
  }
  return knowledge;
}

std::vector<KnowledgeId> knowledge_at_message_passing(
    KnowledgeStore& store, const Realization& realization,
    const PortAssignment& ports, MessageVariant variant) {
  std::vector<KnowledgeId> knowledge =
      initial_knowledge(store, realization.num_parties());
  for (int round = 1; round <= realization.time(); ++round) {
    knowledge = message_round(store, knowledge, round_bits(realization, round),
                              ports, variant);
  }
  return knowledge;
}

std::vector<int> knowledge_partition(
    const std::vector<KnowledgeId>& knowledge) {
  std::vector<int> labels;
  labels.reserve(knowledge.size());
  for (KnowledgeId id : knowledge) labels.push_back(static_cast<int>(id));
  return canonical_blocks(labels);
}

}  // namespace rsb
