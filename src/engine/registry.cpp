#include "engine/registry.hpp"

#include <vector>

namespace rsb {

template <>
const ProtocolRegistry& ProtocolRegistry::global() {
  using Args = const std::vector<int>&;
  using Product = std::shared_ptr<const AnonymousProtocol>;
  static const auto* registry = new ProtocolRegistry(
      "protocol",
      {
          {"blackboard-unique-string-LE", 0,
           "leader election via the first unique randomness string "
           "(complete on the blackboard, Theorem 4.1)",
           [](Args) -> Product {
             return std::make_shared<const BlackboardUniqueStringLE>();
           }},
          {"wait-for-singleton-LE", 0,
           "model-agnostic leader election: decide once a knowledge class "
           "is a singleton (isolated vertex of the projected complex)",
           [](Args) -> Product {
             return std::make_shared<const WaitForSingletonLE>();
           }},
          {"wait-for-class-split-LE", 1,
           "m-leader election: decide once the consistency classes admit a "
           "sub-collection of total size m; argument is m",
           [](Args args) -> Product {
             return std::make_shared<const WaitForClassSplitMLE>(args[0]);
           }},
      });
  return *registry;
}

template <>
const TaskRegistry& TaskRegistry::global() {
  using Args = const std::vector<int>&;
  static const auto* registry = new TaskRegistry(
      "task",
      {
          {"leader-election", 0, "exactly one party outputs 1 (O_LE)",
           [](Args, int n) { return SymmetricTask::leader_election(n); }},
          {"m-leader-election", 1, "exactly m parties output 1; argument is m",
           [](Args args, int n) {
             return SymmetricTask::m_leader_election(n, args[0]);
           }},
          {"weak-symmetry-breaking", 0,
           "not all parties output the same value (binary alphabet)",
           [](Args, int n) {
             return SymmetricTask::weak_symmetry_breaking(n);
           }},
          {"matching", 0,
           "matched/unmatched/bystander census: matched count even",
           [](Args, int n) { return SymmetricTask::matching(n); }},
          {"t-resilient-leader-election", 1,
           "exactly one surviving leader, at most t parties missing; "
           "argument is t",
           [](Args args, int n) {
             return SymmetricTask::resilient_leader_election(n, args[0]);
           }},
          {"t-resilient-two-leader", 1,
           "exactly two surviving leaders, at most t parties missing; "
           "argument is t",
           [](Args args, int n) {
             return SymmetricTask::resilient_two_leader(n, args[0]);
           }},
          {"t-resilient-m-leader-election", 2,
           "exactly m surviving leaders, at most t parties missing; "
           "arguments are m, t",
           [](Args args, int n) {
             return SymmetricTask::resilient_m_leader_election(n, args[0],
                                                               args[1]);
           }},
          {"t-resilient-matching", 1,
           "matching census over survivors, at most t parties missing; "
           "argument is t",
           [](Args args, int n) {
             return SymmetricTask::resilient_matching(n, args[0]);
           }},
      });
  return *registry;
}

std::shared_ptr<const AnonymousProtocol> make_protocol(
    const std::string& spec) {
  return ProtocolRegistry::global().make(spec);
}

SymmetricTask make_task(const std::string& spec, int num_parties) {
  return TaskRegistry::global().make(spec, num_parties);
}

}  // namespace rsb
