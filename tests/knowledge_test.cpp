// Tests for the hash-consed knowledge store: interning semantics, the
// recursion structure of Eqs. (1) and (2), interned blackboard boards, the
// 32-bit limit, and randomness recovery (the substance of the map h of
// Section 3.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsb {
namespace {

TEST(Knowledge, BottomIsIdZeroAndTimeZero) {
  KnowledgeStore store;
  EXPECT_EQ(store.bottom(), 0u);
  EXPECT_EQ(store.kind(store.bottom()), KnowledgeKind::kBottom);
  EXPECT_EQ(store.time(store.bottom()), 0);
  EXPECT_TRUE(store.randomness(store.bottom()).empty());
}

TEST(Knowledge, InputValuesInternByValue) {
  KnowledgeStore store;
  const KnowledgeId a = store.input(5);
  const KnowledgeId b = store.input(5);
  const KnowledgeId c = store.input(6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(store.input_value(a), 5);
  EXPECT_EQ(store.time(a), 0);
}

TEST(Knowledge, StructurallyEqualBlackboardStepsShareId) {
  KnowledgeStore store;
  const KnowledgeId bot = store.bottom();
  const KnowledgeId a = store.blackboard_step(bot, true, {bot, bot});
  const KnowledgeId b = store.blackboard_step(bot, true, {bot, bot});
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.time(a), 1);
  EXPECT_EQ(store.previous(a), bot);
  EXPECT_TRUE(store.bit(a));
}

TEST(Knowledge, BlackboardMultisetIsOrderInsensitive) {
  KnowledgeStore store;
  const KnowledgeId bot = store.bottom();
  const KnowledgeId x = store.blackboard_step(bot, false, {});
  const KnowledgeId y = store.blackboard_step(bot, true, {});
  const KnowledgeId ab = store.blackboard_step(bot, true, {x, y});
  const KnowledgeId ba = store.blackboard_step(bot, true, {y, x});
  EXPECT_EQ(ab, ba) << "Eq. (1) receives a multiset — order must not matter";
}

TEST(Knowledge, MessageTupleIsOrderSensitive) {
  KnowledgeStore store;
  const KnowledgeId bot = store.bottom();
  const KnowledgeId x = store.message_step(bot, false, {bot});
  const KnowledgeId y = store.message_step(bot, true, {bot});
  const KnowledgeId xy = store.message_step(bot, true, {x, y});
  const KnowledgeId yx = store.message_step(bot, true, {y, x});
  EXPECT_NE(xy, yx) << "Eq. (2) is a port-indexed tuple — order matters";
}

TEST(Knowledge, TaggedStepsDistinguishReciprocalPorts) {
  KnowledgeStore store;
  const KnowledgeId bot = store.bottom();
  const KnowledgeId a =
      store.message_step(bot, true, {bot, bot}, {1, 2});
  const KnowledgeId b =
      store.message_step(bot, true, {bot, bot}, {2, 1});
  EXPECT_NE(a, b) << "reciprocal port tags are part of the knowledge";
  const KnowledgeId c =
      store.message_step(bot, true, {bot, bot}, {1, 2});
  EXPECT_EQ(a, c);
  const std::span<const int> tags = store.tags(a);
  EXPECT_EQ(std::vector<int>(tags.begin(), tags.end()),
            (std::vector<int>{1, 2}));
}

TEST(Knowledge, TaggedAndUntaggedStepsDiffer) {
  KnowledgeStore store;
  const KnowledgeId bot = store.bottom();
  const KnowledgeId untagged = store.message_step(bot, true, {bot});
  const KnowledgeId tagged = store.message_step(bot, true, {bot}, {1});
  EXPECT_NE(untagged, tagged);
}

TEST(Knowledge, TagSizeMismatchRejected) {
  KnowledgeStore store;
  const KnowledgeId bot = store.bottom();
  EXPECT_THROW(store.message_step(bot, true, {bot, bot}, {1}),
               InvalidArgument);
}

TEST(Knowledge, DifferentBitsGiveDifferentIds) {
  KnowledgeStore store;
  const KnowledgeId bot = store.bottom();
  EXPECT_NE(store.blackboard_step(bot, false, {}),
            store.blackboard_step(bot, true, {}));
}

TEST(Knowledge, RandomnessRecoversOwnBits) {
  KnowledgeStore store;
  KnowledgeId k = store.bottom();
  const std::vector<bool> bits = {true, false, false, true, true};
  for (bool bit : bits) k = store.blackboard_step(k, bit, {});
  EXPECT_EQ(store.randomness(k), bits);
  EXPECT_EQ(store.time(k), 5);
}

TEST(Knowledge, DeepChainsStayCompact) {
  // Hash-consing keeps the store linear in the number of distinct values,
  // even though the written-out knowledge is exponential.
  KnowledgeStore store;
  KnowledgeId a = store.bottom(), b = store.bottom();
  for (int round = 1; round <= 200; ++round) {
    const KnowledgeId next_a = store.blackboard_step(a, false, {b});
    const KnowledgeId next_b = store.blackboard_step(b, false, {a});
    a = next_a;
    b = next_b;
  }
  EXPECT_EQ(store.time(a), 200);
  EXPECT_LT(store.size(), 1000u);
}

TEST(Knowledge, IdenticalHistoriesConvergeToSameId) {
  // Two parties with the same randomness and symmetric views must intern to
  // the same id at every round — the i ~_t j relation (Eq. 4).
  KnowledgeStore store;
  KnowledgeId p = store.bottom(), q = store.bottom();
  for (int round = 1; round <= 20; ++round) {
    const KnowledgeId np = store.blackboard_step(p, round % 3 == 0, {q});
    const KnowledgeId nq = store.blackboard_step(q, round % 3 == 0, {p});
    p = np;
    q = nq;
    EXPECT_EQ(p, q) << "round " << round;
  }
}

TEST(Knowledge, AccessorsValidateKind) {
  KnowledgeStore store;
  EXPECT_THROW(store.previous(store.bottom()), InvalidArgument);
  EXPECT_THROW(store.bit(store.bottom()), InvalidArgument);
  EXPECT_THROW(store.received(store.bottom()), InvalidArgument);
  EXPECT_THROW(store.input_value(store.bottom()), InvalidArgument);
  EXPECT_THROW(store.tags(store.bottom()), InvalidArgument);
  EXPECT_THROW(store.kind(999999), InvalidArgument);
}

TEST(Knowledge, ResetReplaysIdsInInsertionOrder) {
  // The engine's reuse contract: after reset() the store must hand out the
  // same ids for the same insertion sequence as a fresh store, including
  // when the reset table was pre-sized by a much larger earlier run (the
  // flat intern index keeps its high-water capacity across resets).
  KnowledgeStore store;
  // A deep run to push the high-water mark well past the initial table.
  KnowledgeId deep = store.bottom();
  for (int i = 0; i < 2000; ++i) {
    deep = store.blackboard_step(deep, i % 2 == 0, {store.input(i)});
  }
  const std::size_t big = store.size();
  EXPECT_GT(big, 2000u);

  auto build = [](KnowledgeStore& s) {
    std::vector<KnowledgeId> ids;
    ids.push_back(s.input(7));
    ids.push_back(s.blackboard_step(s.bottom(), true, {ids[0]}));
    ids.push_back(s.message_step(ids[1], false, {ids[0], ids[1]}, {2, 1}));
    ids.push_back(s.blackboard_step(ids[1], true, {ids[2], ids[0]}));
    return ids;
  };
  store.reset();
  KnowledgeStore fresh;
  EXPECT_EQ(build(store), build(fresh));
  EXPECT_EQ(store.size(), fresh.size());
  EXPECT_EQ(store.bottom(), 0u);

  // And the pre-sized store can grow past its old peak again.
  store.reset();
  KnowledgeId deeper = store.bottom();
  for (int i = 0; i < 3000; ++i) {
    deeper = store.blackboard_step(deeper, i % 3 == 0, {store.input(i)});
  }
  EXPECT_GT(store.size(), big);
}

TEST(Knowledge, ResetKeepsTablesSizedForTheLastRunNotThePeak) {
  // Regression: reset() re-reserved the largest run the store had ever
  // seen and refilled that run's slot tables, so after one long run every
  // later reset paid for it (a 4096-run sweep went from 5 ms to 0.5 s in
  // one engine) and the memory never came back. After a large run and a
  // small one, a reset now keeps what a store that only saw the small run
  // keeps.
  const auto small_run = [](KnowledgeStore& store) {
    KnowledgeId value = store.bottom();
    for (int i = 0; i < 10; ++i) {
      value = store.blackboard_step(value, i % 2 == 0, {store.input(i)});
    }
  };
  KnowledgeStore fresh;
  small_run(fresh);
  fresh.reset();

  KnowledgeStore store;
  KnowledgeId deep = store.bottom();
  for (int i = 0; i < 100000; ++i) {
    deep = store.message_step(deep, i % 2 == 0, {deep});
  }
  const std::size_t large_slots = store.slot_count();
  store.reset();
  small_run(store);
  store.reset();
  EXPECT_GT(large_slots, 64 * fresh.slot_count());
  EXPECT_EQ(store.slot_count(), fresh.slot_count());
}

TEST(Knowledge, ToStringRendersStructure) {
  KnowledgeStore store;
  EXPECT_EQ(store.to_string(store.bottom()), "⊥");
  const KnowledgeId in = store.input(3);
  EXPECT_EQ(store.to_string(in), "in(3)");
  const KnowledgeId step = store.blackboard_step(store.bottom(), true, {in});
  EXPECT_NE(store.to_string(step).find("bit=1"), std::string::npos);
}

TEST(Knowledge, SilenceIsDistinguishedAndLazilyInterned) {
  KnowledgeStore store;
  // Lazily interned: a store that never sees a crash hands out the exact
  // historical id sequence (⊥ = 0, first step = 1, ...) — pinned here
  // because every byte-identity law depends on it.
  const KnowledgeId step = store.blackboard_step(store.bottom(), true, {});
  EXPECT_EQ(step, 1u);
  const KnowledgeId silence = store.silence();
  EXPECT_EQ(silence, 2u);  // interned on first use, not at reset
  EXPECT_EQ(store.silence(), silence);  // idempotent
  EXPECT_EQ(store.kind(silence), KnowledgeKind::kSilence);
  EXPECT_EQ(store.time(silence), 0);
  EXPECT_EQ(store.to_string(silence), "silence");
  EXPECT_NE(silence, store.bottom());
  // Silence is no step: the step accessors reject it.
  EXPECT_THROW(store.previous(silence), InvalidArgument);
  EXPECT_THROW(store.received(silence), InvalidArgument);
  // A tuple containing silence is distinct from one containing ⊥ — a
  // receiver can tell a dead channel from a fresh peer.
  const KnowledgeId with_bottom =
      store.message_step(store.bottom(), false, {store.bottom()});
  const KnowledgeId with_silence =
      store.message_step(store.bottom(), false, {silence});
  EXPECT_NE(with_bottom, with_silence);
  // Reset replays silence at the same point of the insertion order.
  store.reset();
  EXPECT_EQ(store.blackboard_step(store.bottom(), true, {}), 1u);
  EXPECT_EQ(store.silence(), 2u);
}

TEST(Knowledge, BorrowedSpanPathsMatchTheVectorPaths) {
  // The zero-copy interning path must be id-for-id interchangeable with
  // the vector-taking one — same ids, same insertion order.
  KnowledgeStore a;
  KnowledgeStore b;
  const std::vector<KnowledgeId> others = {a.bottom(), a.bottom()};
  const KnowledgeId step_a = a.blackboard_step(a.bottom(), true, others);
  const KnowledgeId step_b = b.blackboard_step(b.bottom(), true, others);
  const std::vector<int> tags = {2, 1};
  const KnowledgeId t_vector =
      a.message_step(a.bottom(), false, {step_a, a.bottom()}, tags);
  const KnowledgeId t_span = b.message_step_view(
      b.bottom(), false, std::vector<KnowledgeId>{step_b, b.bottom()}, tags);
  EXPECT_EQ(t_vector, t_span);
  // Probing with borrowed storage dedups against pool-stored nodes.
  EXPECT_EQ(a.message_step_view(
                a.bottom(), false,
                std::vector<KnowledgeId>{step_a, a.bottom()}, tags),
            t_vector);
  EXPECT_EQ(a.size(), b.size());
}

// ------------------------------------------------------------------ boards

/// A few rounds of values to build boards from: ⊥, an input, and the
/// steps of a two-party blackboard over them.
std::vector<KnowledgeId> sample_values(KnowledgeStore& store) {
  std::vector<KnowledgeId> values = {store.bottom(), store.input(7)};
  values.push_back(store.blackboard_step(values[0], true, {values[1]}));
  values.push_back(store.blackboard_step(values[1], false, {values[0]}));
  values.push_back(store.blackboard_step(values[2], false, {values[3]}));
  return values;
}

TEST(Knowledge, BoardIsTheReceivedMultisetWithTheOwnValue) {
  KnowledgeStore store;
  const std::vector<KnowledgeId> values = sample_values(store);
  Xoshiro256StarStar rng(0xb0a2d);
  for (int trial = 0; trial < 200; ++trial) {
    const KnowledgeId prev = values[rng.below(values.size())];
    std::vector<KnowledgeId> others;
    const std::size_t count = rng.below(6);
    for (std::size_t j = 0; j < count; ++j) {
      others.push_back(values[rng.below(values.size())]);
    }
    const KnowledgeId step = store.blackboard_step(prev, trial % 2 == 0, others);
    std::vector<KnowledgeId> expected = others;
    expected.push_back(prev);
    std::sort(expected.begin(), expected.end());
    const std::span<const KnowledgeId> board = store.board(step);
    EXPECT_TRUE(std::equal(board.begin(), board.end(), expected.begin(),
                           expected.end()))
        << "trial " << trial;
    EXPECT_EQ(store.previous(step), prev);
  }
  // Boards belong to blackboard steps; message steps keep received().
  const KnowledgeId message = store.message_step(values[0], true, {values[1]});
  EXPECT_THROW(store.board(message), InvalidArgument);
  EXPECT_THROW(store.board(store.bottom()), InvalidArgument);
  EXPECT_THROW(store.received(values[2]), InvalidArgument);
  EXPECT_EQ(store.received(message).size(), 1u);
}

TEST(Knowledge, EveryBlackboardPathGivesTheSameIds) {
  // blackboard_step, the board path the in-place operator takes, and the
  // operator itself intern one value under one id, in one insertion
  // order, in three stores fed the same rounds.
  KnowledgeStore by_vector, by_board, by_operator;
  std::vector<KnowledgeId> k_vector = initial_knowledge(by_vector, 6);
  std::vector<KnowledgeId> k_board = k_vector;
  std::vector<KnowledgeId> k_operator = k_vector;
  RoundScratch scratch;
  Xoshiro256StarStar rng(0x5a3e);
  for (int round = 1; round <= 6; ++round) {
    std::vector<bool> bits;
    for (int party = 0; party < 6; ++party) bits.push_back(rng.next_bit());
    std::vector<KnowledgeId> sorted = k_board;
    std::sort(sorted.begin(), sorted.end());
    const BoardId board = by_board.intern_board(sorted);
    std::vector<KnowledgeId> n_vector, n_board;
    for (std::size_t i = 0; i < 6; ++i) {
      std::vector<KnowledgeId> others;
      for (std::size_t j = 0; j < 6; ++j) {
        if (j != i) others.push_back(k_vector[j]);
      }
      n_vector.push_back(by_vector.blackboard_step(k_vector[i], bits[i], others));
      n_board.push_back(by_board.blackboard_step_on(k_board[i], bits[i], board));
    }
    blackboard_round_inplace(by_operator, k_operator, bits, scratch);
    k_vector = n_vector;
    k_board = n_board;
    EXPECT_EQ(k_board, k_vector) << "round " << round;
    EXPECT_EQ(k_operator, k_vector) << "round " << round;
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(by_operator.to_string(k_operator[i]),
                by_vector.to_string(k_vector[i]));
    }
  }
  EXPECT_EQ(by_board.size(), by_vector.size());
  EXPECT_EQ(by_operator.size(), by_vector.size());
}

TEST(Knowledge, BoardsConsumeNoIdsAndAreNotCounted) {
  KnowledgeStore store;
  const std::vector<KnowledgeId> values = sample_values(store);
  const std::size_t size = store.size();
  std::vector<KnowledgeId> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const BoardId board = store.intern_board(sorted);
  EXPECT_EQ(store.intern_board(sorted), board);  // interned once
  sorted.pop_back();
  EXPECT_NE(store.intern_board(sorted), board);
  EXPECT_EQ(store.size(), size);
  // The next value takes the next id, as if no board had been interned.
  const KnowledgeId next = store.input(99);
  EXPECT_EQ(next, static_cast<KnowledgeId>(size));
  // A step names a board that exists.
  EXPECT_THROW(store.blackboard_step_on(values[0], true, board + 100),
               InvalidArgument);
  // The step is rendered with what it received: the board less one copy
  // of its own value.
  const KnowledgeId step = store.blackboard_step_on(values[0], true, board);
  std::string rendered = "#" + std::to_string(step) + "=(prev=#0,bit=1,{";
  for (std::size_t j = 1; j < values.size(); ++j) {
    rendered += (j == 1 ? "#" : ",#") + std::to_string(values[j]);
  }
  EXPECT_EQ(store.to_string(step), rendered + "})");
}

// ------------------------------------------------------------ fresh rounds

/// Each party crashes at a round in [1, rounds] with probability 1/2, else
/// never (-1).
std::vector<int> random_crashes(int n, int rounds, Xoshiro256StarStar& rng) {
  std::vector<int> crash_round;
  for (int party = 0; party < n; ++party) {
    crash_round.push_back(
        rng.next_bit() ? 1 + static_cast<int>(rng.below(rounds)) : -1);
  }
  return crash_round;
}

TEST(Knowledge, FreshAndProbedRoundsShareOneStore) {
  // The in-place operator appends a round's new board and steps without
  // probing; the reference operator probes for every one. Run both on
  // one store, on copies of one knowledge vector, in either order each
  // round: both land on the ids of a store that only probes, and the
  // second of the two adds nothing.
  constexpr int kRounds = 6;
  Xoshiro256StarStar rng(0xf7e5);
  RoundScratch scratch;
  for (const int n : {1, 2, 5, 16}) {
    for (const bool crashes : {false, true}) {
      for (const bool inplace_first : {true, false}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " crashes=" +
                     std::to_string(crashes) + " inplace_first=" +
                     std::to_string(inplace_first));
        const std::vector<int> crash_round =
            crashes ? random_crashes(n, kRounds, rng) : std::vector<int>{};
        KnowledgeStore probing, mixed;
        std::vector<KnowledgeId> ref = initial_knowledge(probing, n);
        std::vector<KnowledgeId> knowledge = initial_knowledge(mixed, n);
        for (int round = 1; round <= kRounds; ++round) {
          SCOPED_TRACE("round " + std::to_string(round));
          std::vector<bool> bits;
          for (int party = 0; party < n; ++party) {
            bits.push_back(rng.next_bit());
          }
          ref = blackboard_round(probing, ref, bits, crash_round, round);
          std::vector<KnowledgeId> inplace = knowledge;
          const auto run_inplace = [&] {
            blackboard_round_inplace(mixed, inplace, bits, scratch,
                                     crash_round, round);
          };
          const auto run_reference = [&] {
            return blackboard_round(mixed, knowledge, bits, crash_round,
                                    round);
          };
          std::vector<KnowledgeId> probed;
          if (inplace_first) {
            run_inplace();
            const std::size_t size = mixed.size();
            probed = run_reference();
            EXPECT_EQ(mixed.size(), size) << "the probes made duplicates";
          } else {
            probed = run_reference();
            const std::size_t size = mixed.size();
            run_inplace();
            EXPECT_EQ(mixed.size(), size) << "the round made duplicates";
          }
          EXPECT_EQ(inplace, ref);
          EXPECT_EQ(probed, ref);
          EXPECT_EQ(mixed.size(), probing.size());
          for (std::size_t p = 0; p < ref.size(); ++p) {
            EXPECT_EQ(mixed.to_string(inplace[p]), probing.to_string(ref[p]))
                << "party " << p;
          }
          knowledge = inplace;
        }
      }
    }
  }
}

TEST(Knowledge, ABoardBelowTheCeilingIsProbed) {
  // Round 1 on ⊥ again, in a store whose rounds went past it: the board
  // [⊥, ⊥, ⊥] exists, and so do its steps. The round finds them all.
  KnowledgeStore store;
  RoundScratch scratch;
  const std::vector<KnowledgeId> start = initial_knowledge(store, 3);
  const std::vector<bool> bits = {true, false, true};
  std::vector<KnowledgeId> round1 = start;
  blackboard_round_inplace(store, round1, bits, scratch);
  std::vector<KnowledgeId> later = round1;
  for (int round = 2; round <= 4; ++round) {
    blackboard_round_inplace(store, later, bits, scratch);
  }
  const std::size_t size = store.size();
  std::vector<KnowledgeId> again = start;
  blackboard_round_inplace(store, again, bits, scratch);
  EXPECT_EQ(again, round1);
  EXPECT_EQ(store.size(), size);
  EXPECT_EQ(store.open_round(start), BoardId{0});
  // The public probes find what the fresh rounds appended.
  EXPECT_EQ(store.blackboard_step(start[0], true, {start[1], start[2]}),
            round1[0]);
  EXPECT_EQ(store.intern_board(start), BoardId{0});
  EXPECT_EQ(store.size(), size);
}

TEST(Knowledge, FreshRoundsLeaveTheSlotTablesAtTheirInitialSize) {
  // A fault-free run's boards and steps are all new, so none is indexed:
  // the slot tables stay as a fresh store has them, through the run and
  // the reset after it, however many values the run interned.
  const std::size_t initial = KnowledgeStore().slot_count();
  KnowledgeStore store;
  RoundScratch scratch;
  std::vector<KnowledgeId> knowledge = initial_knowledge(store, 64);
  Xoshiro256StarStar rng(0x5107);
  for (int round = 1; round <= 40; ++round) {
    std::vector<bool> bits;
    for (int party = 0; party < 64; ++party) bits.push_back(rng.next_bit());
    blackboard_round_inplace(store, knowledge, bits, scratch);
  }
  EXPECT_GT(store.size(), 4 * initial);
  EXPECT_EQ(store.slot_count(), initial);
  store.reset();
  EXPECT_EQ(store.slot_count(), initial);
}

TEST(Knowledge, RoundStepRejectsAValueOffTheBoard) {
  KnowledgeStore store;
  EXPECT_FALSE(store.round_step(store.bottom(), true).has_value())
      << "no round is open";
  const std::vector<KnowledgeId> board = {store.bottom(), store.bottom()};
  store.open_round(board);
  const std::optional<KnowledgeId> step =
      store.round_step(store.bottom(), true);
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(store.round_step(store.bottom(), true), step);  // memoized
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.round_step(*step, false).has_value());
  // A public call steps on the open board first: the round finds its
  // step instead of appending a second one.
  const KnowledgeId probed = store.blackboard_step_on(store.bottom(), false, 0);
  EXPECT_EQ(store.round_step(store.bottom(), false), probed);
  EXPECT_EQ(store.size(), 3u);
  store.reset();
  EXPECT_FALSE(store.round_step(store.bottom(), true).has_value())
      << "reset closes the round";
}

TEST(Knowledge, StoreIndicesPastThirtyTwoBitsAreANamedError) {
  // Ids, pool offsets and sizes are 32-bit fields; one narrowing helper
  // guards every one of them, so a store that outgrew them raises an
  // error naming the field instead of wrapping into another value's id.
  EXPECT_EQ(narrow_store_index(0, "knowledge id"), 0u);
  EXPECT_EQ(narrow_store_index(kMaxStoreIndex, "knowledge id"),
            static_cast<std::uint32_t>(kMaxStoreIndex));
  try {
    narrow_store_index(kMaxStoreIndex + 1, "pool offset");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pool offset 4294967295"), std::string::npos) << what;
    EXPECT_NE(what.find("32-bit store limit 4294967294"), std::string::npos)
        << what;
  }
  EXPECT_THROW(narrow_store_index(std::size_t{1} << 32, "board id"), Error);
}

}  // namespace
}  // namespace rsb
