#include "model/models.hpp"

#include <algorithm>
#include <optional>
#include <string>

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

std::vector<KnowledgeId> blackboard_round(
    KnowledgeStore& store, const std::vector<KnowledgeId>& prev,
    const std::vector<bool>& bits, const std::vector<int>& crash_round,
    int round) {
  const std::size_t n = prev.size();
  if (bits.size() != n || (!crash_round.empty() && crash_round.size() != n)) {
    throw InvalidArgument(
        "blackboard_round: bits/crash/knowledge size mismatch");
  }
  const auto alive = [&](std::size_t j) {
    return crash_round.empty() || crash_round[j] < 0 || round < crash_round[j];
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

/// `bits` as one byte per party, in scratch.bits.
std::span<const std::uint8_t> byte_bits(const std::vector<bool>& bits,
                                        RoundScratch& scratch) {
  scratch.bits.assign(bits.begin(), bits.end());
  return scratch.bits;
}

}  // namespace

void blackboard_round_inplace(KnowledgeStore& store,
                              std::vector<KnowledgeId>& knowledge,
                              std::span<const std::uint8_t> bits,
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
  // Every participant's Eq. (1) value is (own value, bit, that multiset):
  // open the round on the multiset as its board, once. The store memoizes
  // each (prev, bit)'s step, so repeats make no second insertion.
  store.open_round(sorted_prev);
  scratch.next.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const KnowledgeId own = knowledge[i];
    if (faulty && halted(crash_round, i, round)) {
      scratch.next[i] = own;  // frozen at the last pre-crash value
      continue;
    }
    const std::optional<KnowledgeId> step = store.round_step(own, bits[i] != 0);
    if (!step.has_value()) {
      throw InvalidArgument(
          "blackboard_round_inplace: party " + std::to_string(i) +
          "'s value #" + std::to_string(own) +
          " does not occur in the round's sorted multiset");
    }
    scratch.next[i] = *step;
  }
  knowledge.swap(scratch.next);
}

void blackboard_round_inplace(KnowledgeStore& store,
                              std::vector<KnowledgeId>& knowledge,
                              const std::vector<bool>& bits,
                              RoundScratch& scratch,
                              std::span<const int> crash_round, int round,
                              std::span<const KnowledgeId> sorted_prev) {
  blackboard_round_inplace(store, knowledge, byte_bits(bits, scratch), scratch,
                           crash_round, round, sorted_prev);
}

void message_round_inplace(KnowledgeStore& store,
                           std::vector<KnowledgeId>& knowledge,
                           std::span<const std::uint8_t> bits,
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
  const std::size_t ports_per_party = n > 0 ? n - 1 : 0;
  scratch.next.clear();
  scratch.next.reserve(n);
  scratch.received.resize(ports_per_party);
  scratch.tags.resize(tagged && faulty ? ports_per_party : 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (faulty && halted(crash_round, i, round)) {
      scratch.next.push_back(knowledge[i]);  // frozen at last pre-crash value
      continue;
    }
    // Port p's sender and the reciprocal tag it attaches are entry p−1 of
    // party i's two wiring rows.
    const std::span<const int> senders = ports.neighbors(static_cast<int>(i));
    const std::span<const int> reciprocal =
        ports.reciprocal(static_cast<int>(i));
    for (std::size_t p = 0; p < ports_per_party; ++p) {
      const std::size_t sender = static_cast<std::size_t>(senders[p]);
      const bool silent = faulty && halted(crash_round, sender, round);
      // silence() interns lazily on first use — the same point in the id
      // sequence as the allocating version, keeping ids byte-identical.
      scratch.received[p] = silent ? store.silence() : knowledge[sender];
      if (tagged && faulty) {
        // A silent channel transmits nothing, so no reciprocal tag; 0 is
        // outside the valid port range [1, n-1].
        scratch.tags[p] = silent ? 0 : reciprocal[p];
      }
    }
    // A fault-free tagged step's tags are the reciprocal row itself.
    const std::span<const int> tags =
        !tagged ? std::span<const int>()
                : faulty ? std::span<const int>(scratch.tags) : reciprocal;
    scratch.next.push_back(store.message_step_view(knowledge[i], bits[i] != 0,
                                                   scratch.received, tags));
  }
  knowledge.swap(scratch.next);
}

void message_round_inplace(KnowledgeStore& store,
                           std::vector<KnowledgeId>& knowledge,
                           const std::vector<bool>& bits,
                           const PortAssignment& ports, MessageVariant variant,
                           RoundScratch& scratch,
                           std::span<const int> crash_round, int round) {
  message_round_inplace(store, knowledge, byte_bits(bits, scratch), ports,
                        variant, scratch, crash_round, round);
}

std::vector<KnowledgeId> message_round(
    KnowledgeStore& store, const std::vector<KnowledgeId>& prev,
    const std::vector<bool>& bits, const PortAssignment& ports,
    MessageVariant variant, const std::vector<int>& crash_round, int round) {
  const std::size_t n = prev.size();
  if (bits.size() != n || (!crash_round.empty() && crash_round.size() != n)) {
    throw InvalidArgument("message_round: bits/crash/knowledge size mismatch");
  }
  if (ports.num_parties() != static_cast<int>(n)) {
    throw InvalidArgument("message_round: ports/knowledge size mismatch");
  }
  const bool tagged = variant == MessageVariant::kPortTagged;
  const auto alive = [&](std::size_t j) {
    return crash_round.empty() || crash_round[j] < 0 || round < crash_round[j];
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
    if (tagged) tags.reserve(n - 1);
    for (int p = 1; p <= static_cast<int>(n) - 1; ++p) {
      const int sender = ports.neighbor(static_cast<int>(i), p);
      const bool sender_alive = alive(static_cast<std::size_t>(sender));
      by_port.push_back(sender_alive ? prev[static_cast<std::size_t>(sender)]
                                     : store.silence());
      if (tagged) {
        // A silent channel transmits nothing, so no reciprocal tag; 0 is
        // outside the valid port range [1, n-1].
        tags.push_back(sender_alive ? ports.port_to(sender, static_cast<int>(i))
                                    : 0);
      }
    }
    next.push_back(store.message_step(prev[i], bits[i], std::move(by_port),
                                      std::move(tags)));
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
