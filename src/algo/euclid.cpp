#include "algo/euclid.hpp"

#include <string>
#include <vector>

#include "util/error.hpp"

namespace rsb::sim {

namespace {

constexpr char kStatus[] = "T|";  // post-matching status payloads

}  // namespace

void EuclidLeaderElectionAgent::begin(const Init& init) {
  if (init.model != Model::kMessagePassing) {
    throw InvalidArgument(
        "EuclidLeaderElectionAgent: Theorem 4.2's algorithm runs on the "
        "message-passing model");
  }
  RefinementAgent::begin(init);
}

void EuclidLeaderElectionAgent::send_phase(int round,
                                           std::uint64_t random_word,
                                           Outbox& out) {
  switch (phase_) {
    case Phase::kRefine:
      RefinementAgent::send_phase(round, random_word, out);
      break;
    case Phase::kMatch:
      matching_.send(random_word, out);
      break;
    case Phase::kStatus: {
      // The refinement signature and what the matching made of the party:
      // m1 (V1, all matched), m2 / u2 (V2, matched / not), id (neither).
      std::string status = kStatus;
      status += own_signature_text();
      switch (matching_.role()) {
        case MatchingRole::kV1:
          status += "|m1";
          break;
        case MatchingRole::kV2:
          status += matching_.matched() ? "|m2" : "|u2";
          break;
        case MatchingRole::kBystander:
          status += "|id";
          break;
      }
      send_ranked(out, status);
      break;
    }
  }
}

void EuclidLeaderElectionAgent::receive_phase(int round,
                                              const Delivery& delivery) {
  switch (phase_) {
    case Phase::kRefine:
      // Completing a step calls on_step_complete, which may start a
      // matching.
      RefinementAgent::receive_phase(round, delivery);
      break;
    case Phase::kMatch:
      if (matching_.receive(delivery)) {
        ++matchings_run_;
        phase_ = Phase::kStatus;
      }
      break;
    case Phase::kStatus:
      // Port labels are stale after a status labeling, so the next
      // matching waits for a refinement step.
      rank(delivery, kStatus);
      elect_first_singleton();
      phase_ = Phase::kRefine;
      break;
  }
}

void EuclidLeaderElectionAgent::on_step_complete() {
  elect_first_singleton();
  if (decided()) return;
  // Pick the smallest and the next class with a strictly larger size; if
  // all classes share one size, subtraction makes no progress — refine
  // instead and let randomness split something first.
  const std::vector<int>& sizes = class_sizes();
  std::size_t v1 = 0;
  for (std::size_t c = 1; c < sizes.size(); ++c) {
    if (sizes[c] < sizes[v1]) v1 = c;
  }
  std::size_t v2 = sizes.size();
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    if (sizes[c] > sizes[v1] && (v2 == sizes.size() || sizes[c] < sizes[v2])) {
      v2 = c;
    }
  }
  if (v2 == sizes.size()) return;
  const PayloadId v1_signature = class_signatures()[v1];
  const PayloadId v2_signature = class_signatures()[v2];
  std::vector<MatchingRole> port_roles;
  for (const PayloadId signature : port_signatures()) {
    port_roles.push_back(signature == v1_signature   ? MatchingRole::kV1
                         : signature == v2_signature ? MatchingRole::kV2
                                                     : MatchingRole::kBystander);
  }
  const std::size_t own = static_cast<std::size_t>(label());
  const MatchingRole role = own == v1   ? MatchingRole::kV1
                            : own == v2 ? MatchingRole::kV2
                                        : MatchingRole::kBystander;
  matching_.start(role, std::move(port_roles), sizes[v1]);
  phase_ = Phase::kMatch;
}

}  // namespace rsb::sim
