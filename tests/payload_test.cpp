// Tests for the payload arena: intern/dedup semantics, byte-stable views,
// lexicographic ordering, reset reuse, and the zero-copy contract through
// sim::Network — in particular the satellite guarantee that
// Outbox::send_all (and any equal-bytes broadcast) interns its payload
// exactly once, pinned by asserting the arena's size.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/payload.hpp"

namespace rsb::sim {
namespace {

TEST(PayloadArena, InternDeduplicates) {
  PayloadArena arena;
  const PayloadId a = arena.intern("alpha");
  const PayloadId b = arena.intern("beta");
  const PayloadId a2 = arena.intern("alpha");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena.view(a), "alpha");
  EXPECT_EQ(arena.view(b), "beta");
  EXPECT_EQ(arena.bytes_interned(), 9u);
}

TEST(PayloadArena, EmptyPayloadIsInternable) {
  PayloadArena arena;
  const PayloadId e = arena.intern("");
  EXPECT_EQ(arena.view(e), "");
  EXPECT_EQ(arena.intern(""), e);
  EXPECT_EQ(arena.size(), 1u);
}

TEST(PayloadArena, ViewsStayStableWhileTheArenaGrows) {
  // Bump blocks never move: a view taken early must survive thousands of
  // later interns (held-message queues rely on exactly this).
  PayloadArena arena;
  const PayloadId first = arena.intern("the-first-payload");
  const std::string_view early = arena.view(first);
  const char* early_data = early.data();
  for (int i = 0; i < 20000; ++i) {
    arena.intern("filler-" + std::to_string(i));
  }
  EXPECT_EQ(arena.view(first).data(), early_data);
  EXPECT_EQ(arena.view(first), "the-first-payload");
}

TEST(PayloadArena, LessIsLexicographicByteOrder) {
  PayloadArena arena;
  // Intern out of lexicographic order so id order != byte order.
  const PayloadId z = arena.intern("zz");
  const PayloadId a = arena.intern("aa");
  const PayloadId ab = arena.intern("ab");
  const PayloadId a_short = arena.intern("a");
  EXPECT_TRUE(arena.less(a, z));
  EXPECT_FALSE(arena.less(z, a));
  EXPECT_TRUE(arena.less(a, ab));
  EXPECT_TRUE(arena.less(a_short, a));  // prefix sorts first
  EXPECT_FALSE(arena.less(z, z));       // irreflexive
}

TEST(PayloadArena, OversizedPayloadsGetDedicatedBlocks) {
  PayloadArena arena;
  const std::string big(1 << 18, 'x');  // 4x the block size
  const PayloadId id = arena.intern(big);
  EXPECT_EQ(arena.view(id), big);
  const PayloadId small = arena.intern("small");
  EXPECT_EQ(arena.view(small), "small");
  EXPECT_EQ(arena.view(id).size(), big.size());
}

TEST(PayloadArena, ResetRestartsIdsAndReusesStorage) {
  PayloadArena arena;
  for (int i = 0; i < 100; ++i) arena.intern("payload-" + std::to_string(i));
  EXPECT_EQ(arena.size(), 100u);
  arena.reset();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.bytes_interned(), 0u);
  // Ids restart from 0 in insertion order, like a fresh arena.
  EXPECT_EQ(arena.intern("first-after-reset"), 0u);
  EXPECT_EQ(arena.intern("second"), 1u);
  EXPECT_EQ(arena.view(0), "first-after-reset");
}

TEST(PayloadArena, ResetKeepsTheIndexSizedForTheLastRunNotThePeak) {
  // The arena shares the knowledge store's intern index and its reset
  // rule: after a large run and a small one, a reset keeps what an arena
  // that only saw the small run keeps.
  PayloadArena fresh;
  for (int i = 0; i < 10; ++i) fresh.intern("small-" + std::to_string(i));
  fresh.reset();

  PayloadArena arena;
  for (int i = 0; i < 100000; ++i) arena.intern("large-" + std::to_string(i));
  const std::size_t large_slots = arena.slot_count();
  arena.reset();
  for (int i = 0; i < 10; ++i) arena.intern("small-" + std::to_string(i));
  arena.reset();
  EXPECT_GT(large_slots, 64 * fresh.slot_count());
  EXPECT_EQ(arena.slot_count(), fresh.slot_count());
}

// ------------------------------------------- network intern sharing

/// Broadcasts one fixed payload via send_all every round.
class BroadcastAgent final : public Agent {
 public:
  explicit BroadcastAgent(std::string payload) : payload_(std::move(payload)) {}

  void send_phase(int, std::uint64_t, Outbox& out) override {
    out.send_all(payload_);
  }
  void receive_phase(int, const Delivery& delivery) override {
    if (!decided()) decide(static_cast<std::int64_t>(delivery.by_port.size()));
  }

 private:
  std::string payload_;
};

TEST(PayloadNetwork, SendAllInternsThePayloadExactlyOnce) {
  // The satellite fix: send_all used to copy its payload once per port.
  // Under the arena the n-1 port sends of one agent share a single
  // interned payload — with 5 agents broadcasting 5 distinct payloads,
  // the arena holds exactly 5 entries, not 5 * 4.
  const int n = 5;
  const auto config = SourceConfiguration::all_private(n);
  Network net(Model::kMessagePassing, config, 7, PortAssignment::cyclic(n),
              [](int party) {
                return std::make_unique<BroadcastAgent>(
                    "broadcast-from-" + std::to_string(party));
              });
  net.step();
  EXPECT_EQ(net.arena().size(), static_cast<std::size_t>(n));
  // Round 2 re-broadcasts the same bytes: still n distinct payloads.
  net.step();
  EXPECT_EQ(net.arena().size(), static_cast<std::size_t>(n));
}

/// Posts a fixed payload each round.
class PosterAgent final : public Agent {
 public:
  explicit PosterAgent(std::string payload) : payload_(std::move(payload)) {}

  void send_phase(int, std::uint64_t, Outbox& out) override {
    out.post(payload_);
  }
  void receive_phase(int, const Delivery& delivery) override {
    if (!decided()) decide(static_cast<std::int64_t>(delivery.board.size()));
  }

 private:
  std::string payload_;
};

TEST(PayloadNetwork, EqualBlackboardPostsDeduplicate) {
  const int n = 6;
  const auto config = SourceConfiguration::all_private(n);
  Network net(Model::kBlackboard, config, 3, std::nullopt, [](int) {
    return std::make_unique<PosterAgent>("same-for-everyone");
  });
  net.step();
  EXPECT_EQ(net.arena().size(), 1u);
  // Every receiver still sees n-1 board entries (the multiset fans out by
  // id, not by copied bytes).
  for (int party = 0; party < n; ++party) {
    EXPECT_EQ(net.agent(party).output(), n - 1);
  }
}

TEST(PayloadNetwork, LentArenaIsReusedAcrossRuns) {
  // The engine lends RunContext::arena to every run's network; a second
  // run through the same arena must behave exactly like a fresh one.
  PayloadArena arena;
  const auto config = SourceConfiguration::all_private(3);
  for (int run = 0; run < 3; ++run) {
    Network net(Model::kMessagePassing, config, 11 + run,
                PortAssignment::cyclic(3),
                [](int party) {
                  return std::make_unique<BroadcastAgent>(
                      "hello-" + std::to_string(party));
                },
                SchedulerSpec{}, {}, &arena);
    net.step();
    EXPECT_EQ(arena.size(), 3u) << "run " << run;
  }
}

}  // namespace
}  // namespace rsb::sim
