#include "algo/protocol.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "engine/engine.hpp"
#include "util/error.hpp"

namespace rsb {

namespace {

/// The multiset of every party's knowledge at time t−1 that one party's
/// knowledge at time t observed, sorted: a blackboard step's board, read
/// in place, or a message step's received values plus the party's own
/// previous value, gathered into `scratch`. Empty when t = 0 (nothing
/// received yet). Silence entries (crash-masked channels,
/// KnowledgeKind::kSilence) are dropped: a dead channel is not a party's
/// knowledge, so decision rules range over the still-participating
/// parties only — the message-passing counterpart of Eq. (1)'s
/// survivor-restricted multiset.
std::span<const KnowledgeId> knowledge_multiset_previous_round(
    const KnowledgeStore& store, KnowledgeId knowledge,
    std::vector<KnowledgeId>& scratch) {
  const KnowledgeKind k = store.kind(knowledge);
  if (k == KnowledgeKind::kBlackboardStep) return store.board(knowledge);
  if (k != KnowledgeKind::kMessageStep) return {};
  for (KnowledgeId id : store.received(knowledge)) {
    if (store.kind(id) != KnowledgeKind::kSilence) scratch.push_back(id);
  }
  scratch.push_back(store.previous(knowledge));
  std::sort(scratch.begin(), scratch.end());
  return scratch;
}

/// Index of the first value at or after `from` that occurs exactly once in
/// the sorted span, or sorted.size() if there is none.
template <typename T>
std::size_t next_singleton(std::span<const T> sorted, std::size_t from) {
  while (from < sorted.size()) {
    std::size_t next = from + 1;
    while (next < sorted.size() && sorted[next] == sorted[from]) ++next;
    if (next - from == 1) return from;
    from = next;
  }
  return sorted.size();
}

/// One verdict per position: 1 where the multiset holds `leader`, else 0.
void crown(std::span<const KnowledgeId> multiset, KnowledgeId leader,
           std::vector<std::int64_t>& verdicts) {
  verdicts.resize(multiset.size());
  for (std::size_t i = 0; i < multiset.size(); ++i) {
    verdicts[i] = multiset[i] == leader ? 1 : 0;
  }
}

}  // namespace

std::optional<std::int64_t> AnonymousProtocol::decide(
    const KnowledgeStore& store, KnowledgeId knowledge) const {
  std::vector<KnowledgeId> scratch;
  const std::span<const KnowledgeId> multiset =
      knowledge_multiset_previous_round(store, knowledge, scratch);
  std::vector<std::int64_t> verdicts;
  if (multiset.empty() || !decide_multiset(store, multiset, verdicts)) {
    return std::nullopt;
  }
  const auto own = std::lower_bound(multiset.begin(), multiset.end(),
                                    store.previous(knowledge));
  return verdicts[static_cast<std::size_t>(own - multiset.begin())];
}

namespace {

/// True iff every value of `multiset` (one round's values, sorted) is ⊥ or
/// a blackboard step whose run started from ⊥. Any one value's time-1
/// ancestor K(1) has the board {K_j(0) : all j}, every participant's
/// time-0 value, so one chain walk checks them all.
bool rooted_blackboard(const KnowledgeStore& store,
                       std::span<const KnowledgeId> multiset) {
  const KnowledgeId bottom = store.bottom();
  KnowledgeId value = multiset.front();
  if (store.time(value) == 0) return multiset.back() == bottom;
  if (store.kind(value) != KnowledgeKind::kBlackboardStep) return false;
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

bool BlackboardUniqueStringLE::decide_multiset(
    const KnowledgeStore& store, std::span<const KnowledgeId> multiset,
    std::vector<std::int64_t>& verdicts) const {
  // A value embeds its string, so a unique string sits on a singleton
  // value: no singleton, no unique string, whatever the grouping.
  std::size_t i = next_singleton(multiset, 0);
  if (i == multiset.size()) return false;
  if (rooted_blackboard(store, multiset)) {
    // Value and string determine each other here: equal strings give equal
    // values by induction on Eq. (1), since every participant sees one
    // board. So the unique strings are exactly the singleton values.
    KnowledgeId leader = multiset[i];
    while ((i = next_singleton(multiset, i + 1)) < multiset.size()) {
      if (string_less(store, multiset[i], leader)) leader = multiset[i];
    }
    crown(multiset, leader, verdicts);
    return true;
  }
  // Elsewhere one string can span several values: count the strings
  // themselves, and crown the smallest that occurs once.
  std::vector<std::vector<bool>> strings;
  strings.reserve(multiset.size());
  for (KnowledgeId id : multiset) strings.push_back(store.randomness(id));
  std::vector<std::vector<bool>> sorted = strings;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t unique =
      next_singleton(std::span<const std::vector<bool>>(sorted), 0);
  if (unique == sorted.size()) return false;
  verdicts.resize(multiset.size());
  for (std::size_t p = 0; p < multiset.size(); ++p) {
    verdicts[p] = strings[p] == sorted[unique] ? 1 : 0;
  }
  return true;
}

bool WaitForSingletonLE::decide_multiset(
    const KnowledgeStore& /*store*/, std::span<const KnowledgeId> multiset,
    std::vector<std::int64_t>& verdicts) const {
  // The canonical order on knowledge values is their interned id; ids are
  // deterministic content handles, so this is a name-independent rule.
  const std::size_t first = next_singleton(multiset, 0);
  if (first == multiset.size()) return false;
  crown(multiset, multiset[first], verdicts);
  return true;
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

bool WaitForClassSplitMLE::decide_multiset(
    const KnowledgeStore& /*store*/, std::span<const KnowledgeId> multiset,
    std::vector<std::int64_t>& verdicts) const {
  // The classes are the multiset's runs, in id order.
  std::vector<int> sizes;
  for (std::size_t i = 0; i < multiset.size(); ++i) {
    if (i == 0 || multiset[i] != multiset[i - 1]) {
      sizes.push_back(1);
    } else {
      ++sizes.back();
    }
  }
  std::vector<bool> chosen;
  if (!select_class_split(sizes, num_leaders_, chosen)) return false;
  verdicts.clear();
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    verdicts.insert(verdicts.end(), static_cast<std::size_t>(sizes[c]),
                    chosen[c] ? 1 : 0);
  }
  return true;
}

bool select_class_split(std::span<const int> sizes, int m,
                        std::vector<bool>& chosen) {
  std::size_t total = 0;
  for (const int size : sizes) total += static_cast<std::size_t>(size);
  if (m < 0 || static_cast<std::size_t>(m) > total) return false;
  const std::size_t target = static_cast<std::size_t>(m);
  // Bit s of row c: the classes from c on have a sub-collection of total
  // size s. A row is m + 1 bits in 64-bit words, and row c = row c+1 |
  // row c+1 << size(c).
  const std::size_t classes = sizes.size();
  const std::size_t words = target / 64 + 1;
  std::vector<std::uint64_t> reach((classes + 1) * words, 0);
  const auto row = [&](std::size_t c) { return reach.data() + c * words; };
  const auto reaches = [&](std::size_t c, std::size_t s) {
    return (row(c)[s / 64] >> (s % 64) & 1) != 0;
  };
  row(classes)[0] = 1;
  const std::uint64_t last_word_mask =
      (target + 1) % 64 == 0 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << ((target + 1) % 64)) - 1;
  for (std::size_t c = classes; c-- > 0;) {
    const std::size_t size = static_cast<std::size_t>(sizes[c]);
    const std::size_t word_shift = size / 64;
    const unsigned bit_shift = static_cast<unsigned>(size % 64);
    const std::uint64_t* next = row(c + 1);
    std::uint64_t* out = row(c);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t shifted = 0;
      if (w >= word_shift) {
        shifted = next[w - word_shift] << bit_shift;
        if (bit_shift != 0 && w > word_shift) {
          shifted |= next[w - word_shift - 1] >> (64 - bit_shift);
        }
      }
      out[w] = next[w] | shifted;
    }
    out[words - 1] &= last_word_mask;
  }
  if (!reaches(0, target)) return false;
  // The depth-first search's first find: take a class whenever the classes
  // after it can still make up the rest.
  chosen.assign(classes, false);
  std::size_t rest = target;
  for (std::size_t c = 0; c < classes && rest > 0; ++c) {
    const std::size_t size = static_cast<std::size_t>(sizes[c]);
    if (size <= rest && reaches(c + 1, rest - size)) {
      chosen[c] = true;
      rest -= size;
    }
  }
  return true;
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
