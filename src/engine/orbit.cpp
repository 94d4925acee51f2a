#include "engine/orbit.hpp"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

namespace rsb {

namespace {

// Crash rounds are -1 (never crashes) or >= 1; shift into unsigned space.
std::uint64_t crash_code(const OrbitProbe& probe, int party) {
  const int crash =
      probe.faulty ? probe.crash[static_cast<std::size_t>(party)] : -1;
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(crash) + 1);
}

}  // namespace

bool OrbitTable::eligible(const Experiment& spec) {
  if (spec.protocol == nullptr || spec.factory) return false;  // knowledge only
  if (spec.topology != nullptr) return false;
  if (!spec.scheduler.is_synchronous()) return false;
  if (spec.model == Model::kBlackboard) {
    return spec.port_policy == PortPolicy::kNone;
  }
  return spec.port_policy == PortPolicy::kRandomPerRun;
}

OrbitTable::OrbitTable(const Experiment& spec)
    : spec_(&spec),
      n_(spec.config.num_parties()),
      sources_(spec.config.num_sources()),
      equivariant_(spec.protocol->knowledge_order_invariant()) {}

void OrbitTable::prepare(OrbitProbe& probe, std::uint64_t seed,
                         const PortAssignment* assignment) const {
  probe.seed = seed;
  probe.hit = false;
  if (assignment != nullptr &&
      spec_->port_policy == PortPolicy::kRandomPerRun) {
    // next() hands back a pointer into the provider's transient storage;
    // the probe owns its candidate's wiring for the whole lookup/execute/
    // insert window (and lends it to run_prepared on a miss).
    probe.ports_copy = *assignment;
    probe.ports = &*probe.ports_copy;
  } else {
    probe.ports = assignment;
  }
  spec_->faults.draw(n_, seed, probe.crash);
  probe.faulty = !probe.crash.empty();
  // Replay engines mirror the run paths exactly: both the SourceBank and
  // run_prepared derive one bit stream per source from
  // derive_seed(seed, source) and take the top bit per draw.
  probe.coins.clear();
  for (int source = 0; source < sources_; ++source) {
    probe.coins.emplace_back(
        derive_seed(seed, static_cast<std::uint64_t>(source)));
  }
  probe.source_cols.assign(static_cast<std::size_t>(sources_), 0);
  probe.bits_drawn = 0;
}

void OrbitTable::ensure_bits(OrbitProbe& probe, int r) const {
  while (probe.bits_drawn < r) {
    for (int s = 0; s < sources_; ++s) {
      const std::size_t source = static_cast<std::size_t>(s);
      probe.source_cols[source] =
          (probe.source_cols[source] << 1) |
          (probe.coins[source].next_bit() ? 1u : 0u);
    }
    ++probe.bits_drawn;
  }
}

std::uint64_t OrbitTable::column_at(const OrbitProbe& probe, int party,
                                    int r) const {
  if (r == 0) return 0;
  const int source =
      spec_->config.source_of_party()[static_cast<std::size_t>(party)];
  // A lookup may have drawn deeper than this level; the level-r key wants
  // exactly the first r bits.
  return probe.source_cols[static_cast<std::size_t>(source)] >>
         (probe.bits_drawn - r);
}

void OrbitTable::build_key(OrbitProbe& probe, int r) const {
  if (!equivariant_) {
    // Id-order-dependent protocol: only the identity relabeling certainly
    // preserves outcomes, so match configurations literally.
    canonicalize_identity(probe, r);
  } else if (spec_->model == Model::kBlackboard) {
    canonicalize_multiset(probe, r);
  } else {
    canonicalize_wiring(probe, r);
  }
}

void OrbitTable::canonicalize_identity(OrbitProbe& probe, int r) const {
  probe.key.clear();
  probe.key.push_back(3);
  probe.rank.resize(static_cast<std::size_t>(n_));
  for (int p = 0; p < n_; ++p) {
    probe.rank[static_cast<std::size_t>(p)] = p;
    probe.key.push_back(column_at(probe, p, r));
    probe.key.push_back(crash_code(probe, p));
    if (probe.ports != nullptr) {
      for (int port = 1; port < n_; ++port) {
        probe.key.push_back(
            static_cast<std::uint64_t>(probe.ports->neighbor(p, port)));
      }
    }
  }
}

void OrbitTable::canonicalize_multiset(OrbitProbe& probe, int r) const {
  probe.triples.clear();
  for (int p = 0; p < n_; ++p) {
    probe.triples.push_back({column_at(probe, p, r), crash_code(probe, p),
                             static_cast<std::uint64_t>(p)});
  }
  // The sorted (column, crash) multiset IS the canonical form under S_n;
  // the party index rides along only to derive the ranks. Ties land
  // adjacent in declaration order — tied parties have identical
  // trajectories, so either rank assignment replicates the same bytes.
  std::sort(probe.triples.begin(), probe.triples.end());
  probe.key.clear();
  probe.key.push_back(1);
  probe.rank.resize(static_cast<std::size_t>(n_));
  for (int k = 0; k < n_; ++k) {
    const auto& t = probe.triples[static_cast<std::size_t>(k)];
    probe.key.push_back(t[0]);
    probe.key.push_back(t[1]);
    probe.rank[static_cast<std::size_t>(t[2])] = k;
  }
}

void OrbitTable::canonicalize_wiring(OrbitProbe& probe, int r) const {
  const PortAssignment& wiring = *probe.ports;
  // Initial colors: dense ranks of the invariant (column, crash) pairs.
  probe.triples.clear();
  for (int p = 0; p < n_; ++p) {
    probe.triples.push_back({column_at(probe, p, r), crash_code(probe, p),
                             static_cast<std::uint64_t>(p)});
  }
  std::sort(probe.triples.begin(), probe.triples.end());
  probe.color.assign(static_cast<std::size_t>(n_), 0);
  int colors = 0;
  for (int k = 0; k < n_; ++k) {
    const auto& t = probe.triples[static_cast<std::size_t>(k)];
    if (k > 0) {
      const auto& prev = probe.triples[static_cast<std::size_t>(k - 1)];
      if (t[0] != prev[0] || t[1] != prev[1]) ++colors;
    }
    probe.color[static_cast<std::size_t>(t[2])] = colors;
  }
  ++colors;

  // Port-ordered color refinement (1-WL over the wiring): a party's
  // signature is (own color, color of the neighbor on each port). The
  // signature multiset is an isomorphism invariant, so dense-ranking it
  // keeps the coloring equivariant at every iteration.
  const auto signature_less = [&](int a, int b) {
    const std::size_t sa = static_cast<std::size_t>(a);
    const std::size_t sb = static_cast<std::size_t>(b);
    if (probe.color[sa] != probe.color[sb]) {
      return probe.color[sa] < probe.color[sb];
    }
    for (int port = 1; port < n_; ++port) {
      const int ca =
          probe.color[static_cast<std::size_t>(wiring.neighbor(a, port))];
      const int cb =
          probe.color[static_cast<std::size_t>(wiring.neighbor(b, port))];
      if (ca != cb) return ca < cb;
    }
    return false;
  };
  while (colors < n_) {
    probe.order.resize(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) probe.order[static_cast<std::size_t>(p)] = p;
    std::sort(probe.order.begin(), probe.order.end(), [&](int a, int b) {
      if (signature_less(a, b)) return true;
      if (signature_less(b, a)) return false;
      return a < b;
    });
    probe.next_color.resize(static_cast<std::size_t>(n_));
    int next = 0;
    for (int k = 0; k < n_; ++k) {
      if (k > 0 && signature_less(probe.order[static_cast<std::size_t>(k - 1)],
                                  probe.order[static_cast<std::size_t>(k)])) {
        ++next;
      }
      probe.next_color[static_cast<std::size_t>(
          probe.order[static_cast<std::size_t>(k)])] = next;
    }
    ++next;
    if (next == colors) break;  // stable but not discrete
    probe.color.swap(probe.next_color);
    colors = next;
  }

  probe.key.clear();
  probe.rank.resize(static_cast<std::size_t>(n_));
  if (colors == n_) {
    // Discrete partition: the refinement is a canonical labeling. The key
    // spells the whole configuration in rank order — columns, crashes, and
    // the wiring with neighbors renamed to ranks — so equal keys mean
    // isomorphic configurations, exactly.
    probe.key.push_back(2);
    probe.inverse.resize(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      probe.rank[static_cast<std::size_t>(p)] =
          probe.color[static_cast<std::size_t>(p)];
      probe.inverse[static_cast<std::size_t>(
          probe.color[static_cast<std::size_t>(p)])] = p;
    }
    for (int k = 0; k < n_; ++k) {
      const int p = probe.inverse[static_cast<std::size_t>(k)];
      probe.key.push_back(column_at(probe, p, r));
      probe.key.push_back(crash_code(probe, p));
      for (int port = 1; port < n_; ++port) {
        probe.key.push_back(static_cast<std::uint64_t>(
            probe.rank[static_cast<std::size_t>(wiring.neighbor(p, port))]));
      }
    }
  } else {
    // Symmetric configuration (e.g. n = 2 with equal columns): bail to the
    // literal form. Only literally identical configurations match — missed
    // hits, never a wrong replication.
    canonicalize_identity(probe, r);
  }
}

bool OrbitTable::lookup(OrbitProbe& probe) {
  const int deepest = std::min(max_level_.load(std::memory_order_acquire),
                               kMaxMemoRounds);
  for (int r = 0; r <= deepest; ++r) {
    Level& level = levels_[static_cast<std::size_t>(r)];
    if (level.count.load(std::memory_order_acquire) == 0) continue;
    ensure_bits(probe, r);
    build_key(probe, r);
    std::shared_lock lock(mutex_);
    const auto it = level.entries.find(probe.key);
    if (it == level.entries.end()) continue;
    const Entry& entry = it->second;
    ProtocolOutcome& out = probe.outcome;
    out.terminated = entry.terminated;
    out.rounds = entry.rounds;
    out.outputs.resize(static_cast<std::size_t>(n_));
    out.decision_round.resize(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      const std::size_t k =
          static_cast<std::size_t>(probe.rank[static_cast<std::size_t>(p)]);
      out.outputs[static_cast<std::size_t>(p)] = entry.outputs[k];
      out.decision_round[static_cast<std::size_t>(p)] = entry.decision_round[k];
    }
    // The crash schedule is the candidate's own draw, not the
    // representative's — byte-identical to what executing would report.
    if (probe.faulty) {
      out.crash_round = probe.crash;
    } else {
      out.crash_round.clear();
    }
    probe.hit = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void OrbitTable::insert(OrbitProbe& probe, const ProtocolOutcome& outcome,
                        int consumed) {
  // Every executed run is a representative, whether or not it is
  // memoizable — hits() + reps() equals the swept run count.
  reps_.fetch_add(1, std::memory_order_relaxed);
  if (consumed < 0 || consumed > kMaxMemoRounds) return;
  ensure_bits(probe, consumed);
  build_key(probe, consumed);
  Level& level = levels_[static_cast<std::size_t>(consumed)];
  {
    std::unique_lock lock(mutex_);
    const auto [it, inserted] = level.entries.try_emplace(probe.key);
    // A lost race inserted an isomorphic configuration's entry — by the
    // replication law its bytes are the ones this insert would have
    // written, so first-writer-wins is exact.
    if (!inserted) return;
    Entry& entry = it->second;
    entry.terminated = outcome.terminated;
    entry.rounds = outcome.rounds;
    entry.outputs.resize(static_cast<std::size_t>(n_));
    entry.decision_round.resize(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      const std::size_t k =
          static_cast<std::size_t>(probe.rank[static_cast<std::size_t>(p)]);
      entry.outputs[k] = outcome.outputs[static_cast<std::size_t>(p)];
      entry.decision_round[k] =
          outcome.decision_round[static_cast<std::size_t>(p)];
    }
    level.count.store(level.entries.size(), std::memory_order_release);
  }
  int cur = max_level_.load(std::memory_order_relaxed);
  while (cur < consumed &&
         !max_level_.compare_exchange_weak(cur, consumed,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
}

}  // namespace rsb
