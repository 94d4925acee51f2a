#include "sim/network.hpp"

#include <algorithm>

#include "graph/topology.hpp"
#include "util/error.hpp"

namespace rsb::sim {

PayloadId Outbox::post(std::string_view payload) {
  if (model_ != Model::kBlackboard) {
    throw InvalidArgument("Outbox::post: not a blackboard network");
  }
  const PayloadId id = net_->arena_->intern(payload);
  net_->round_posts_.push_back(Network::Post{sender_, id});
  return id;
}

PayloadId Outbox::send(int port, std::string_view payload) {
  if (model_ != Model::kMessagePassing) {
    throw InvalidArgument("Outbox::send: not a message-passing network");
  }
  if (port < 1 || port > num_ports_) {
    throw InvalidArgument("Outbox::send: port " + std::to_string(port) +
                          " outside [1," + std::to_string(num_ports_) + "]");
  }
  const PayloadId id = net_->arena_->intern(payload);
  net_->round_sends_.push_back(Network::Send{sender_, port, id});
  return id;
}

PayloadId Outbox::send_all(std::string_view payload) {
  if (model_ != Model::kMessagePassing) {
    throw InvalidArgument("Outbox::send_all: not a message-passing network");
  }
  // One interned copy shared by every port — the broadcast fast path the
  // arena exists for (pinned by the payload tests).
  const PayloadId id = net_->arena_->intern(payload);
  for (int port = 1; port <= num_ports_; ++port) {
    net_->round_sends_.push_back(Network::Send{sender_, port, id});
  }
  return id;
}

Outbox::Outbox(Network* net, int sender, Model model, int num_ports)
    : net_(net), sender_(sender), model_(model), num_ports_(num_ports) {}

std::int64_t Agent::output() const {
  if (!decided_) throw InvalidArgument("Agent::output: not decided yet");
  return output_;
}

void Agent::decide(std::int64_t value) {
  if (decided_) throw InvalidArgument("Agent::decide: already decided");
  decided_ = true;
  output_ = value;
}

Network::Network(Model model, const SourceConfiguration& config,
                 std::uint64_t seed, std::optional<PortAssignment> ports,
                 const AgentFactory& factory, const SchedulerSpec& scheduler,
                 const std::vector<int>& crash_round, PayloadArena* arena,
                 const graph::Topology* topology)
    : model_(model),
      config_(config),
      ports_(std::move(ports)),
      topology_(topology),
      crash_round_(crash_round),
      scheduler_(scheduler, config.num_parties(), seed),
      arena_(arena) {
  if (arena_ == nullptr) {
    owned_arena_ = std::make_unique<PayloadArena>();
    arena_ = owned_arena_.get();
  }
  arena_->reset();  // this run starts from an observationally fresh pool
  if (topology_ != nullptr) {
    if (model_ != Model::kMessagePassing) {
      throw InvalidArgument("Network: a topology requires message passing");
    }
    if (ports_.has_value()) {
      throw InvalidArgument(
          "Network: topology and port assignment are exclusive (the "
          "topology's canonical numbering IS the wiring)");
    }
    if (topology_->num_parties() != config_.num_parties()) {
      throw InvalidArgument("Network: topology/config party mismatch");
    }
  } else if (model_ == Model::kMessagePassing) {
    if (!ports_.has_value()) {
      throw InvalidArgument("Network: message passing requires ports");
    }
    if (ports_->num_parties() != config_.num_parties()) {
      throw InvalidArgument("Network: ports/config party mismatch");
    }
  } else if (ports_.has_value()) {
    throw InvalidArgument("Network: blackboard model takes no ports");
  }
  if (!crash_round_.empty() &&
      crash_round_.size() != static_cast<std::size_t>(config_.num_parties())) {
    throw InvalidArgument("Network: crash schedule/config party mismatch");
  }
  source_words_.reserve(static_cast<std::size_t>(config_.num_sources()));
  for (int source = 0; source < config_.num_sources(); ++source) {
    source_words_.emplace_back(
        derive_seed(seed, static_cast<std::uint64_t>(source)));
  }
  Agent::Init init;
  init.num_parties = config_.num_parties();
  init.model = model_;
  agents_.reserve(static_cast<std::size_t>(config_.num_parties()));
  decision_round_.assign(static_cast<std::size_t>(config_.num_parties()), -1);
  for (int party = 0; party < config_.num_parties(); ++party) {
    if (model_ == Model::kMessagePassing) {
      init.num_ports = topology_ != nullptr ? topology_->degree(party)
                                            : config_.num_parties() - 1;
      init.max_degree = topology_ != nullptr ? topology_->max_degree()
                                             : config_.num_parties() - 1;
    }
    agents_.push_back(factory(party));
    if (!agents_.back()) throw InvalidArgument("Network: factory returned null");
    agents_.back()->begin(init);
  }
}

bool Network::alive_in_round(int party, int round) const noexcept {
  if (crash_round_.empty()) return true;
  const int crash = crash_round_[static_cast<std::size_t>(party)];
  return crash < 0 || round < crash;
}

/// Routes the round's blackboard traffic: scheduler triage of the fresh
/// posts, merge-in of held posts falling due, one canonical sort by
/// payload bytes, then a per-receiver board view (everyone's due posts
/// except the receiver's own) delivered as a span.
void Network::deliver_blackboard() {
  const int n = config_.num_parties();
  due_posts_.clear();
  for (const Post& post : round_posts_) {
    const int due = scheduler_.delivery_round(round_, post.sender, -1);
    if (due <= round_) {
      due_posts_.push_back(RoutedPost{post.sender, post.payload});
    } else {
      held_posts_.push_back(HeldPost{due, post.sender, post.payload});
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < held_posts_.size(); ++i) {
    const HeldPost held = held_posts_[i];
    if (held.due != round_) {
      held_posts_[kept] = held;
      ++kept;
      continue;
    }
    due_posts_.push_back(RoutedPost{held.sender, held.payload});
  }
  held_posts_.resize(kept);
  std::sort(due_posts_.begin(), due_posts_.end(),
            [this](const RoutedPost& a, const RoutedPost& b) {
              return arena_->less(a.payload, b.payload);
            });
  for (int receiver = 0; receiver < n; ++receiver) {
    if (!alive_in_round(receiver, round_)) continue;  // dropped at delivery
    board_scratch_.clear();
    for (const RoutedPost& post : due_posts_) {
      if (post.sender != receiver) board_scratch_.push_back(post.payload);
    }
    Delivery delivery;
    delivery.board = board_scratch_;
    delivery.arena = arena_;
    Agent& agent = *agents_[static_cast<std::size_t>(receiver)];
    const bool was_decided = agent.decided();
    agent.receive_phase(round_, delivery);
    if (!was_decided && agent.decided()) {
      decision_round_[static_cast<std::size_t>(receiver)] = round_;
    }
  }
}

/// Routes the round's port traffic to (receiver, receiving port) pairs,
/// merges in held messages falling due, sorts once by (receiver, port,
/// payload bytes) and delivers each receiver its contiguous span.
void Network::deliver_message_passing() {
  const int n = config_.num_parties();
  due_sends_.clear();
  for (const Send& send : round_sends_) {
    const int receiver = topology_ != nullptr
                             ? topology_->neighbor(send.sender, send.port)
                             : ports_->neighbor(send.sender, send.port);
    const int receiving_port =
        topology_ != nullptr
            ? topology_->port_of(receiver, send.sender)
            : ports_->reciprocal(send.sender)[static_cast<std::size_t>(
                  send.port - 1)];
    const int due = scheduler_.delivery_round(round_, send.sender, receiver);
    if (due <= round_) {
      due_sends_.push_back(
          RoutedSend{receiver, PortMessage{receiving_port, send.payload}});
    } else {
      held_sends_.push_back(
          HeldSend{due, receiver, receiving_port, send.payload});
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < held_sends_.size(); ++i) {
    const HeldSend held = held_sends_[i];
    if (held.due != round_) {
      held_sends_[kept] = held;
      ++kept;
      continue;
    }
    due_sends_.push_back(
        RoutedSend{held.receiver, PortMessage{held.port, held.payload}});
  }
  held_sends_.resize(kept);
  messages_routed_ += static_cast<std::uint64_t>(due_sends_.size());
  std::sort(due_sends_.begin(), due_sends_.end(),
            [this](const RoutedSend& a, const RoutedSend& b) {
              if (a.receiver != b.receiver) return a.receiver < b.receiver;
              if (a.message.port != b.message.port) {
                return a.message.port < b.message.port;
              }
              return arena_->less(a.message.payload, b.message.payload);
            });
  by_port_flat_.clear();
  by_port_flat_.reserve(due_sends_.size());
  for (const RoutedSend& routed : due_sends_) {
    by_port_flat_.push_back(routed.message);
  }
  std::size_t cursor = 0;
  for (int receiver = 0; receiver < n; ++receiver) {
    const std::size_t begin = cursor;
    while (cursor < due_sends_.size() && due_sends_[cursor].receiver == receiver) {
      ++cursor;
    }
    if (!alive_in_round(receiver, round_)) continue;  // dropped at delivery
    Delivery delivery;
    delivery.by_port = std::span<const PortMessage>(
        by_port_flat_.data() + begin, cursor - begin);
    delivery.arena = arena_;
    Agent& agent = *agents_[static_cast<std::size_t>(receiver)];
    const bool was_decided = agent.decided();
    agent.receive_phase(round_, delivery);
    if (!was_decided && agent.decided()) {
      decision_round_[static_cast<std::size_t>(receiver)] = round_;
    }
  }
}

bool Network::step() {
  const int n = config_.num_parties();
  ++round_;

  // Draw this round's word per source; all same-source parties share it.
  // Drawn regardless of crashes, so survivor randomness never depends on
  // the fault pattern.
  word_of_source_.resize(static_cast<std::size_t>(config_.num_sources()));
  for (int source = 0; source < config_.num_sources(); ++source) {
    word_of_source_[static_cast<std::size_t>(source)] =
        source_words_[static_cast<std::size_t>(source)].next();
  }

  // Send phase: agents append into the network's flat transmission
  // buffers (sender order, then transmission order — the scheduler's
  // stream-consumption order). Crashed parties transmit nothing.
  round_posts_.clear();
  round_sends_.clear();
  for (int party = 0; party < n; ++party) {
    if (!alive_in_round(party, round_)) continue;
    Outbox out(this, party, model_,
               topology_ != nullptr ? topology_->degree(party) : n - 1);
    agents_[static_cast<std::size_t>(party)]->send_phase(
        round_,
        word_of_source_[static_cast<std::size_t>(config_.source_of(party))],
        out);
  }

  // Delivery + receive phase: messages addressed to crashed parties are
  // dropped at delivery time, inside the per-model router.
  if (model_ == Model::kBlackboard) {
    deliver_blackboard();
  } else {
    deliver_message_passing();
  }

  bool all_decided = true;
  for (int party = 0; party < n; ++party) {
    if (!alive_in_round(party, round_)) continue;  // crashed: never blocks
    all_decided =
        all_decided && agents_[static_cast<std::size_t>(party)]->decided();
  }
  return all_decided;
}

Network::Outcome Network::run(int max_rounds) {
  Outcome outcome;
  bool done = false;
  for (int r = 0; r < max_rounds && !done; ++r) done = step();
  outcome.all_decided = done;
  outcome.rounds = round_;
  outcome.outputs.assign(static_cast<std::size_t>(config_.num_parties()), 0);
  outcome.decision_round = decision_round_;
  for (int party = 0; party < config_.num_parties(); ++party) {
    const Agent& agent = *agents_[static_cast<std::size_t>(party)];
    outcome.outputs[static_cast<std::size_t>(party)] =
        agent.decided() ? agent.output() : 0;
  }
  return outcome;
}

const Agent& Network::agent(int party) const {
  if (party < 0 || party >= config_.num_parties()) {
    throw InvalidArgument("Network::agent: bad party index");
  }
  return *agents_[static_cast<std::size_t>(party)];
}

}  // namespace rsb::sim
