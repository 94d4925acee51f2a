#include "tasks/tasks.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "util/error.hpp"

namespace rsb {

SymmetricTask::SymmetricTask(std::string name, int num_parties,
                             std::vector<int> alphabet,
                             std::function<bool(const std::vector<int>&)> admits)
    : name_(std::move(name)),
      num_parties_(num_parties),
      alphabet_(std::move(alphabet)),
      admits_(std::move(admits)) {
  if (num_parties_ < 1) {
    throw InvalidArgument("SymmetricTask: n must be >= 1");
  }
  if (alphabet_.empty()) {
    throw InvalidArgument("SymmetricTask: alphabet must be non-empty");
  }
  std::sort(alphabet_.begin(), alphabet_.end());
  if (std::adjacent_find(alphabet_.begin(), alphabet_.end()) !=
      alphabet_.end()) {
    throw InvalidArgument("SymmetricTask: alphabet has duplicates");
  }
}

SymmetricTask&& SymmetricTask::with_refinement(Refinement refine) && {
  refine_ = std::move(refine);
  return std::move(*this);
}

SymmetricTask SymmetricTask::leader_election(int num_parties) {
  return m_leader_election(num_parties, 1);
}

SymmetricTask SymmetricTask::m_leader_election(int num_parties,
                                               int num_leaders) {
  if (num_leaders < 0 || num_leaders > num_parties) {
    throw InvalidArgument("m_leader_election: m outside [0,n]");
  }
  const std::string task_name =
      num_leaders == 1 ? "LE" : std::to_string(num_leaders) + "-LE";
  // alphabet {0,1}; counts[1] == m.
  return SymmetricTask(
      task_name, num_parties, {0, 1},
      [num_leaders](const std::vector<int>& counts) {
        return counts[1] == num_leaders;
      });
}

SymmetricTask SymmetricTask::weak_symmetry_breaking(int num_parties) {
  if (num_parties < 2) {
    throw InvalidArgument("weak_symmetry_breaking: n must be >= 2");
  }
  return SymmetricTask("WSB", num_parties, {0, 1},
                       [num_parties](const std::vector<int>& counts) {
                         return counts[0] != num_parties &&
                                counts[1] != num_parties;
                       });
}

SymmetricTask SymmetricTask::exact_census(int num_parties,
                                          const std::map<int, int>& census) {
  int total = 0;
  std::vector<int> alphabet;
  std::vector<int> expected;
  for (const auto& [value, count] : census) {
    if (count < 0) throw InvalidArgument("exact_census: negative count");
    alphabet.push_back(value);
    expected.push_back(count);
    total += count;
  }
  if (total != num_parties) {
    throw InvalidArgument("exact_census: counts sum to " +
                          std::to_string(total) + ", expected n=" +
                          std::to_string(num_parties));
  }
  return SymmetricTask(
      "census", num_parties, alphabet,
      [expected](const std::vector<int>& counts) { return counts == expected; });
}

SymmetricTask SymmetricTask::resilient_leader_election(int num_parties,
                                                       int max_crashes) {
  return resilient_m_leader_election(num_parties, 1, max_crashes);
}

SymmetricTask SymmetricTask::resilient_m_leader_election(int num_parties,
                                                         int num_leaders,
                                                         int max_crashes) {
  if (num_leaders < 0 || num_leaders > num_parties) {
    throw InvalidArgument("resilient_m_leader_election: m outside [0,n]");
  }
  if (max_crashes < 0 || max_crashes >= num_parties) {
    throw InvalidArgument(
        "resilient_m_leader_election: t outside [0,n-1] (at least one "
        "survivor)");
  }
  const std::string task_name = std::to_string(max_crashes) + "-resilient-" +
                                std::to_string(num_leaders) + "-LE";
  return SymmetricTask(
      task_name, num_parties, {0, 1},
      [num_parties, num_leaders, max_crashes](const std::vector<int>& counts) {
        const int survivors = counts[0] + counts[1];
        return survivors >= num_parties - max_crashes &&
               counts[1] == num_leaders;
      });
}

SymmetricTask SymmetricTask::resilient_two_leader(int num_parties,
                                                  int max_crashes) {
  return resilient_m_leader_election(num_parties, 2, max_crashes);
}

SymmetricTask SymmetricTask::matching(int num_parties) {
  return SymmetricTask("matching", num_parties, {-1, 0, 1},
                       [](const std::vector<int>& counts) {
                         return counts[2] % 2 == 0;  // matched count even
                       });
}

SymmetricTask SymmetricTask::resilient_matching(int num_parties,
                                                int max_crashes) {
  if (max_crashes < 0 || max_crashes >= num_parties) {
    throw InvalidArgument(
        "resilient_matching: t outside [0,n-1] (at least one survivor)");
  }
  const std::string task_name =
      std::to_string(max_crashes) + "-resilient-matching";
  return SymmetricTask(
      task_name, num_parties, {-1, 0, 1},
      [num_parties, max_crashes](const std::vector<int>& counts) {
        const int survivors = counts[0] + counts[1] + counts[2];
        if (survivors < num_parties - max_crashes) return false;
        // An odd matched count is only explicable by a crashed partner.
        return counts[2] % 2 == 0 || survivors < num_parties;
      });
}

template <typename Value>
bool SymmetricTask::admits_census(std::span<const Value> values,
                                  std::span<const int> crash_round) const {
  // One reusable census per thread: record() runs on every engine worker,
  // each judging into its own shard but through the shared task object.
  static thread_local std::vector<int> counts;
  counts.assign(alphabet_.size(), 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!crash_round.empty() && crash_round[i] >= 0) continue;  // crashed
    const int v = static_cast<int>(values[i]);  // the historical narrowing
    const auto it = std::lower_bound(alphabet_.begin(), alphabet_.end(), v);
    if (it == alphabet_.end() || *it != v) return false;  // off-alphabet
    ++counts[static_cast<std::size_t>(it - alphabet_.begin())];
  }
  if (!admits_(counts)) return false;
  if (refine_ == nullptr) return true;
  if constexpr (std::is_same_v<Value, int>) {
    return refine_(values, crash_round);
  } else {
    static thread_local std::vector<int> narrowed;
    narrowed.resize(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      narrowed[i] = static_cast<int>(values[i]);
    }
    return refine_(std::span<const int>(narrowed), crash_round);
  }
}

bool SymmetricTask::admits_vector(const std::vector<int>& value_per_party) const {
  if (static_cast<int>(value_per_party.size()) != num_parties_) {
    throw InvalidArgument("SymmetricTask::admits_vector: size mismatch");
  }
  return admits_census(std::span<const int>(value_per_party), {});
}

bool SymmetricTask::admits_surviving(const std::vector<int>& value_per_party,
                                     const std::vector<bool>& alive) const {
  if (static_cast<int>(value_per_party.size()) != num_parties_ ||
      alive.size() != value_per_party.size()) {
    throw InvalidArgument("SymmetricTask::admits_surviving: size mismatch");
  }
  // The census takes crash state in the outcome's crash_round encoding
  // (entry >= 0 means crashed); alive masks translate to -1 / 0.
  static thread_local std::vector<int> crash_round;
  crash_round.assign(alive.size(), -1);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (!alive[i]) crash_round[i] = 0;
  }
  return admits_census(std::span<const int>(value_per_party),
                       std::span<const int>(crash_round));
}

bool SymmetricTask::admits_outputs(
    std::span<const std::int64_t> outputs) const {
  if (static_cast<int>(outputs.size()) != num_parties_) {
    throw InvalidArgument("SymmetricTask::admits_outputs: size mismatch");
  }
  return admits_census(outputs, {});
}

bool SymmetricTask::admits_surviving_outputs(
    std::span<const std::int64_t> outputs,
    std::span<const int> crash_round) const {
  if (static_cast<int>(outputs.size()) != num_parties_ ||
      crash_round.size() != outputs.size()) {
    throw InvalidArgument(
        "SymmetricTask::admits_surviving_outputs: size mismatch");
  }
  return admits_census(outputs, crash_round);
}

bool SymmetricTask::admits_counts(const std::vector<int>& counts) const {
  if (counts.size() != alphabet_.size()) {
    throw InvalidArgument("SymmetricTask::admits_counts: size mismatch");
  }
  int total = 0;
  for (int c : counts) {
    if (c < 0) return false;
    total += c;
  }
  return total == num_parties_ && admits_(counts);
}

OutputComplex SymmetricTask::output_complex() const {
  const std::size_t a = alphabet_.size();
  OutputComplex out;
  std::vector<int> vector_values(static_cast<std::size_t>(num_parties_), 0);
  // Odometer over alphabet indices.
  std::vector<std::size_t> digits(static_cast<std::size_t>(num_parties_), 0);
  for (;;) {
    for (int i = 0; i < num_parties_; ++i) {
      vector_values[static_cast<std::size_t>(i)] =
          alphabet_[digits[static_cast<std::size_t>(i)]];
    }
    if (admits_vector(vector_values)) {
      std::vector<Vertex<int>> verts;
      verts.reserve(static_cast<std::size_t>(num_parties_));
      for (int i = 0; i < num_parties_; ++i) {
        verts.push_back(Vertex<int>{i, vector_values[static_cast<std::size_t>(i)]});
      }
      out.add_simplex(Simplex<int>(std::move(verts)));
    }
    int pos = num_parties_ - 1;
    while (pos >= 0) {
      auto& d = digits[static_cast<std::size_t>(pos)];
      if (++d < a) break;
      d = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return out;
}

OutputComplex SymmetricTask::projected_output_complex() const {
  return project_complex(output_complex());
}

bool SymmetricTask::partition_solves(const std::vector<int>& class_sizes) const {
  int total = 0;
  for (int s : class_sizes) {
    if (s < 1) {
      throw InvalidArgument("partition_solves: class sizes must be positive");
    }
    total += s;
  }
  if (total != num_parties_) {
    throw InvalidArgument("partition_solves: class sizes sum to " +
                          std::to_string(total) + ", expected n=" +
                          std::to_string(num_parties_));
  }
  std::vector<int> counts(alphabet_.size(), 0);
  return partition_solves_rec(class_sizes, 0, counts);
}

bool SymmetricTask::partition_solves_rec(const std::vector<int>& class_sizes,
                                         std::size_t next_class,
                                         std::vector<int>& counts) const {
  if (next_class == class_sizes.size()) return admits_(counts);
  for (std::size_t a = 0; a < alphabet_.size(); ++a) {
    counts[a] += class_sizes[next_class];
    if (partition_solves_rec(class_sizes, next_class + 1, counts)) {
      counts[a] -= class_sizes[next_class];
      return true;
    }
    counts[a] -= class_sizes[next_class];
  }
  return false;
}

std::vector<std::vector<int>> SymmetricTask::admissible_count_vectors() const {
  std::vector<std::vector<int>> out;
  std::vector<int> counts(alphabet_.size(), 0);
  // Enumerate all count vectors summing to n over |alphabet| values.
  std::function<void(std::size_t, int)> rec = [&](std::size_t pos,
                                                  int remaining) {
    if (pos + 1 == counts.size()) {
      counts[pos] = remaining;
      if (admits_(counts)) out.push_back(counts);
      return;
    }
    for (int c = 0; c <= remaining; ++c) {
      counts[pos] = c;
      rec(pos + 1, remaining - c);
    }
  };
  rec(0, num_parties_);
  return out;
}

}  // namespace rsb
