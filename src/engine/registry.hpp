// The protocol and task vocabularies (util/registry.hpp has the grammar):
//
//   ProtocolRegistry   blackboard-unique-string-LE, wait-for-singleton-LE,
//                      wait-for-class-split-LE(m)
//   TaskRegistry       leader-election, m-leader-election(m),
//                      weak-symmetry-breaking, matching,
//                      t-resilient-leader-election(t),
//                      t-resilient-two-leader(t),
//                      t-resilient-m-leader-election(m,t),
//                      t-resilient-matching(t)
#pragma once

#include <memory>
#include <string>

#include "algo/protocol.hpp"
#include "tasks/tasks.hpp"
#include "util/registry.hpp"

namespace rsb {

using ProtocolRegistry = Registry<std::shared_ptr<const AnonymousProtocol>()>;
/// Tasks are built for the spec's party count.
using TaskRegistry = Registry<SymmetricTask(int num_parties)>;

template <>
const ProtocolRegistry& ProtocolRegistry::global();
template <>
const TaskRegistry& TaskRegistry::global();

/// Shorthands over the global registries.
std::shared_ptr<const AnonymousProtocol> make_protocol(const std::string& spec);
SymmetricTask make_task(const std::string& spec, int num_parties);

}  // namespace rsb
