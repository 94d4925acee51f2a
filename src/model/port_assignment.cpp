#include "model/port_assignment.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace rsb {

namespace {

/// Throws the row check's ValidationError for a port of `party` leading
/// to `target`: out of range, the party itself, or a second port to it.
/// Kept out of line so the check's loop stays tight.
[[noreturn]] void reject_port(int party, int target, int num_parties) {
  const std::string who = "PortAssignment: party " + std::to_string(party);
  if (target < 0 || target >= num_parties) {
    throw ValidationError(who + " port leads to invalid party " +
                          std::to_string(target));
  }
  if (target == party) {
    throw ValidationError(who + " has a port leading to itself");
  }
  throw ValidationError(who + " has two ports leading to party " +
                        std::to_string(target));
}

}  // namespace

PortAssignment::PortAssignment(std::vector<std::vector<int>> neighbor_of)
    : num_parties_(static_cast<int>(neighbor_of.size())) {
  const int n = num_parties_;
  if (n < 1) {
    throw ValidationError("PortAssignment: at least one party required");
  }
  neighbor_.reserve(static_cast<std::size_t>(n) * row_size());
  for (int i = 0; i < n; ++i) {
    const auto& row = neighbor_of[static_cast<std::size_t>(i)];
    if (static_cast<int>(row.size()) != n - 1) {
      throw ValidationError("PortAssignment: party " + std::to_string(i) +
                            " has " + std::to_string(row.size()) +
                            " ports, expected " + std::to_string(n - 1));
    }
    neighbor_.insert(neighbor_.end(), row.begin(), row.end());
  }
  std::vector<int> scratch;
  check_rows(scratch);
  link(scratch);
}

void PortAssignment::check_rows(std::vector<int>& seen) const {
  const int n = num_parties_;
  const std::size_t m = row_size();
  const int* const rows = neighbor_.data();
  // seen[t] = i + 1 once row i has a port to t, so a second one is found
  // without clearing the table between rows.
  seen.assign(static_cast<std::size_t>(n), 0);
  int* const marks = seen.data();
  for (int i = 0; i < n; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * m;
    for (std::size_t p = 0; p < m; ++p) {
      const int target = rows[base + p];
      if (target < 0 || target >= n || target == i ||
          marks[target] == i + 1) {
        reject_port(i, target, n);
      }
      marks[target] = i + 1;
    }
  }
}

void PortAssignment::link(std::vector<int>& inverse) {
  const int n = num_parties_;
  const std::size_t m = row_size();
  // Row i of each table starts at i·m; column(i, t) is t's rank among the
  // n−1 parties other than i (branch-free: on random rows a branch here
  // mispredicts half the time).
  const auto column = [](int party, int other) {
    return static_cast<std::size_t>(other - (other > party ? 1 : 0));
  };
  const int* const rows = neighbor_.data();
  // Pass 1: each row's inverse, inverse[i·m + column(i, t)] = the port at
  // which i sees t.
  inverse.resize(neighbor_.size());
  int* const inv = inverse.data();
  for (int i = 0; i < n; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * m;
    for (std::size_t p = 0; p < m; ++p) {
      inv[base + column(i, rows[base + p])] = static_cast<int>(p) + 1;
    }
  }
  // Pass 2: port p of i leads to t, which sees i at the port t's inverse
  // row records.
  reciprocal_.resize(neighbor_.size());
  int* const rec = reciprocal_.data();
  for (int i = 0; i < n; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * m;
    for (std::size_t p = 0; p < m; ++p) {
      const int t = rows[base + p];
      rec[base + p] = inv[static_cast<std::size_t>(t) * m + column(t, i)];
    }
  }
}

int PortAssignment::neighbor(int party, int port) const {
  const int n = num_parties();
  if (party < 0 || party >= n) {
    throw InvalidArgument("PortAssignment::neighbor: bad party " +
                          std::to_string(party));
  }
  if (port < 1 || port > n - 1) {
    throw InvalidArgument("PortAssignment::neighbor: port " +
                          std::to_string(port) + " outside [1," +
                          std::to_string(n - 1) + "]");
  }
  return neighbors(party)[static_cast<std::size_t>(port - 1)];
}

int PortAssignment::port_to(int party, int target) const {
  if (party < 0 || party >= num_parties()) {
    throw InvalidArgument("PortAssignment::port_to: bad party " +
                          std::to_string(party));
  }
  const std::span<const int> row = neighbors(party);
  for (std::size_t p = 0; p < row.size(); ++p) {
    if (row[p] == target) return static_cast<int>(p) + 1;
  }
  throw InvalidArgument("PortAssignment::port_to: party " +
                        std::to_string(party) + " has no port to " +
                        std::to_string(target));
}

PortAssignment PortAssignment::cyclic(int num_parties) {
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(num_parties));
  for (int i = 0; i < num_parties; ++i) {
    for (int p = 1; p <= num_parties - 1; ++p) {
      rows[static_cast<std::size_t>(i)].push_back((i + p) % num_parties);
    }
  }
  return PortAssignment(std::move(rows));
}

PortAssignment PortAssignment::random(int num_parties,
                                      Xoshiro256StarStar& rng) {
  PortAssignment drawn;
  std::vector<int> scratch;
  drawn.redraw_random(num_parties, rng, scratch);
  return drawn;
}

void PortAssignment::redraw_random(int num_parties, Xoshiro256StarStar& rng,
                                   std::vector<int>& scratch) {
  if (num_parties < 1) {
    throw ValidationError("PortAssignment: at least one party required");
  }
  num_parties_ = num_parties;
  const std::size_t m = row_size();
  neighbor_.resize(static_cast<std::size_t>(num_parties) * m);
  for (int i = 0; i < num_parties; ++i) {
    int* const row = neighbor_.data() + static_cast<std::size_t>(i) * m;
    std::size_t k = 0;
    for (int other = 0; other < num_parties; ++other) {
      if (other != i) row[k++] = other;
    }
    // Fisher–Yates with the library RNG.
    for (std::size_t a = m; a > 1; --a) {
      const std::size_t b = rng.below(a);
      std::swap(row[a - 1], row[b]);
    }
  }
  // A shuffled row is a permutation of [0..n−1] ∖ {i} by construction, so
  // there is nothing to check.
  link(scratch);
}

void PortAssignment::discard_random(int num_parties,
                                    Xoshiro256StarStar& rng) {
  // Must mirror random()'s consumption exactly: per party, a Fisher–Yates
  // pass over a row of num_parties - 1 entries — which draws nothing for
  // n < 3 (and the unsigned row size would wrap for n = 0).
  if (num_parties < 2) return;
  for (int i = 0; i < num_parties; ++i) {
    for (std::size_t a = static_cast<std::size_t>(num_parties) - 1; a > 1;
         --a) {
      (void)rng.below(a);
    }
  }
}

PortAssignment PortAssignment::adversarial(int num_parties, int block_size) {
  if (block_size < 1 || num_parties % block_size != 0) {
    throw InvalidArgument(
        "PortAssignment::adversarial: block size must divide n (" +
        std::to_string(block_size) + " vs n=" + std::to_string(num_parties) +
        ")");
  }
  const int n = num_parties;
  const int g = block_size;
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int m = i / g;  // block of party i
    const int r = i % g;  // residue of party i
    for (int j = 1; j <= n - 1; ++j) {
      const int q = j / g;
      const int s = j % g;
      const int target = (((r + s) % g) + m * g + q * g) % n;
      rows[static_cast<std::size_t>(i)].push_back(target);
    }
  }
  return PortAssignment(std::move(rows));
}

PortAssignment PortAssignment::adversarial_for(
    const SourceConfiguration& config) {
  const int g = config.gcd_of_loads();
  // Every block of g consecutive parties must belong to one source, which
  // holds exactly when the assignment is source-contiguous.
  for (int i = 1; i < config.num_parties(); ++i) {
    if (config.source_of(i) < config.source_of(i - 1)) {
      throw InvalidArgument(
          "PortAssignment::adversarial_for: configuration must be "
          "source-contiguous (use SourceConfiguration::from_loads)");
    }
  }
  for (int i = 0; i < config.num_parties(); ++i) {
    if (config.source_of(i) != config.source_of((i / g) * g)) {
      throw InvalidArgument(
          "PortAssignment::adversarial_for: block " + std::to_string(i / g) +
          " spans two sources; loads must all be divisible by gcd");
    }
  }
  return adversarial(config.num_parties(), g);
}

void PortAssignment::for_each(
    int num_parties, const std::function<void(const PortAssignment&)>& visit) {
  if (num_parties < 1) {
    throw InvalidArgument("PortAssignment::for_each: n must be >= 1");
  }
  if (num_parties > 4) {
    throw InvalidArgument(
        "PortAssignment::for_each: ((n-1)!)^n explodes beyond n=4");
  }
  // Precompute all permutations of each party's neighbor set.
  std::vector<std::vector<std::vector<int>>> options(
      static_cast<std::size_t>(num_parties));
  for (int i = 0; i < num_parties; ++i) {
    std::vector<int> base;
    for (int other = 0; other < num_parties; ++other) {
      if (other != i) base.push_back(other);
    }
    std::sort(base.begin(), base.end());
    do {
      options[static_cast<std::size_t>(i)].push_back(base);
    } while (std::next_permutation(base.begin(), base.end()));
  }
  std::vector<std::size_t> choice(static_cast<std::size_t>(num_parties), 0);
  const std::size_t per_party = options.front().size();
  for (;;) {
    std::vector<std::vector<int>> rows;
    rows.reserve(static_cast<std::size_t>(num_parties));
    for (int i = 0; i < num_parties; ++i) {
      rows.push_back(options[static_cast<std::size_t>(i)]
                            [choice[static_cast<std::size_t>(i)]]);
    }
    visit(PortAssignment(std::move(rows)));
    // Odometer increment.
    int pos = num_parties - 1;
    while (pos >= 0) {
      auto& c = choice[static_cast<std::size_t>(pos)];
      if (++c < per_party) break;
      c = 0;
      --pos;
    }
    if (pos < 0) return;
  }
}

std::vector<PortAssignment> PortAssignment::enumerate_all(int num_parties) {
  std::vector<PortAssignment> out;
  for_each(num_parties,
           [&out](const PortAssignment& pa) { out.push_back(pa); });
  return out;
}

bool PortAssignment::is_automorphism(const std::vector<int>& f) const {
  const int n = num_parties();
  if (static_cast<int>(f.size()) != n) {
    throw InvalidArgument("PortAssignment::is_automorphism: size mismatch");
  }
  std::vector<bool> hit(static_cast<std::size_t>(n), false);
  for (int v : f) {
    if (v < 0 || v >= n || hit[static_cast<std::size_t>(v)]) {
      throw InvalidArgument(
          "PortAssignment::is_automorphism: f is not a permutation");
    }
    hit[static_cast<std::size_t>(v)] = true;
  }
  for (int i = 0; i < n; ++i) {
    for (int p = 1; p <= n - 1; ++p) {
      if (neighbor(f[static_cast<std::size_t>(i)], p) !=
          f[static_cast<std::size_t>(neighbor(i, p))]) {
        return false;
      }
    }
  }
  return true;
}

std::string PortAssignment::to_string() const {
  std::string out = "Ports[";
  for (int i = 0; i < num_parties(); ++i) {
    if (i != 0) out += " ";
    out += std::to_string(i) + ":(";
    const std::span<const int> row = neighbors(i);
    for (std::size_t p = 0; p < row.size(); ++p) {
      if (p != 0) out += ",";
      out += std::to_string(row[p]);
    }
    out += ")";
  }
  return out + "]";
}

}  // namespace rsb
