// Tests for the communication models: port-assignment algebra (including
// the Lemma 4.3 adversarial construction and its automorphism, the
// reciprocal-port rows and the in-place random redraw), the knowledge
// rounds of Eqs. (1)/(2) — the in-place operators byte for byte against
// the value-returning ones, with and without crashes — and the modeling
// distinction between the literal and port-tagged readings of Eq. (2).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "model/models.hpp"
#include "model/port_assignment.hpp"
#include "randomness/realization.hpp"
#include "util/error.hpp"
#include "util/partitions.hpp"
#include "util/rng.hpp"

namespace rsb {
namespace {

// ---------------------------------------------------------- PortAssignment

TEST(PortAssignment, ValidatesRows) {
  // Port to self.
  EXPECT_THROW(PortAssignment({{0}, {0}}), ValidationError);
  // Duplicate target.
  EXPECT_THROW(PortAssignment({{1, 1, 2}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}),
               ValidationError);
  // Wrong row size.
  EXPECT_THROW(PortAssignment({{1}, {0}, {0}}), ValidationError);
  // Out of range.
  EXPECT_THROW(PortAssignment({{5}, {0}}), ValidationError);
  EXPECT_THROW(PortAssignment({{1, 2}, {0, 2}, {0, -1}}), ValidationError);
  // No parties at all.
  EXPECT_THROW(PortAssignment(std::vector<std::vector<int>>{}),
               ValidationError);
  Xoshiro256StarStar rng(1);
  EXPECT_THROW(PortAssignment::random(0, rng), ValidationError);
  // One party has no ports, and nothing to check.
  EXPECT_EQ(PortAssignment(std::vector<std::vector<int>>(1)).num_parties(), 1);
}

TEST(PortAssignment, RowChecksNameTheBadPort) {
  // The row checks run before the rows are linked; a bad row is still
  // reported the way the constructor always reported it.
  const auto message = [](std::vector<std::vector<int>> rows) {
    try {
      PortAssignment pa(std::move(rows));
    } catch (const ValidationError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message({{1, 2}, {2, 2}, {0, 1}}),
            "PortAssignment: party 1 has two ports leading to party 2");
  EXPECT_EQ(message({{1, 2}, {0, 1}, {0, 1}}),
            "PortAssignment: party 1 has a port leading to itself");
  EXPECT_EQ(message({{1, 2}, {0, 2}, {0, 3}}),
            "PortAssignment: party 2 port leads to invalid party 3");
  EXPECT_EQ(message({{1, 2}, {0}, {0, 1}}),
            "PortAssignment: party 1 has 1 ports, expected 2");
  EXPECT_EQ(message({{1, 2}, {0, 2}, {0, 1}}), "accepted");
}

/// reciprocal(i)[p−1] is the port at which i's port-p neighbor sees i —
/// checked against the row-scanning port_to, and as the receiving port of
/// a message i sends on p.
void expect_reciprocal_rows(const PortAssignment& pa) {
  const int n = pa.num_parties();
  for (int i = 0; i < n; ++i) {
    const std::span<const int> senders = pa.neighbors(i);
    const std::span<const int> reciprocal = pa.reciprocal(i);
    ASSERT_EQ(senders.size(), static_cast<std::size_t>(n - 1));
    ASSERT_EQ(reciprocal.size(), static_cast<std::size_t>(n - 1));
    for (int p = 1; p <= n - 1; ++p) {
      const int u = pa.neighbor(i, p);
      EXPECT_EQ(senders[static_cast<std::size_t>(p - 1)], u);
      EXPECT_EQ(reciprocal[static_cast<std::size_t>(p - 1)], pa.port_to(u, i))
          << pa.to_string() << " party " << i << " port " << p;
      EXPECT_EQ(pa.neighbor(u, reciprocal[static_cast<std::size_t>(p - 1)]),
                i);
    }
  }
}

TEST(PortAssignment, ReciprocalRowsMatchPortTo) {
  // A drawn wiring's rows are linked without the row checks, so this scan
  // is their independent check, at sizes around the small and the
  // power-of-two cases; the checking constructor, fed the drawn rows,
  // must also accept them and land on the same wiring.
  for (int n = 1; n <= 4; ++n) {
    PortAssignment::for_each(n, expect_reciprocal_rows);
  }
  Xoshiro256StarStar rng(0x7ec1);
  for (const int n : {2, 3, 5, 16, 17, 64}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_reciprocal_rows(PortAssignment::cyclic(n));
    for (int g = 1; g <= n; ++g) {
      if (n % g == 0) expect_reciprocal_rows(PortAssignment::adversarial(n, g));
    }
    for (int trial = 0; trial < 8; ++trial) {
      const PortAssignment drawn = PortAssignment::random(n, rng);
      expect_reciprocal_rows(drawn);
      std::vector<std::vector<int>> rows;
      for (int i = 0; i < n; ++i) {
        const std::span<const int> row = drawn.neighbors(i);
        rows.emplace_back(row.begin(), row.end());
      }
      EXPECT_EQ(PortAssignment(std::move(rows)), drawn);
    }
  }
}

TEST(PortAssignment, InPlaceRedrawEqualsRandom) {
  // One wiring redrawn over and over, across sizes, lands on random()'s
  // wiring from the same rng state and leaves the rng exactly where
  // random() and discard_random do — which is what keeps a sweep's run-i
  // wiring independent of which worker draws it.
  Xoshiro256StarStar drawn_rng(0x4ed4a3), fresh_rng(0x4ed4a3),
      skipped_rng(0x4ed4a3);
  PortAssignment wiring = PortAssignment::cyclic(3);
  std::vector<int> scratch;
  for (const int n : {1, 2, 3, 5, 16, 4, 16, 9, 2, 5}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    wiring.redraw_random(n, drawn_rng, scratch);
    const PortAssignment fresh = PortAssignment::random(n, fresh_rng);
    PortAssignment::discard_random(n, skipped_rng);
    EXPECT_EQ(wiring, fresh);
    EXPECT_EQ(wiring.to_string(), fresh.to_string());
    expect_reciprocal_rows(wiring);
    const std::uint64_t drawn_next = drawn_rng.next();
    const std::uint64_t fresh_next = fresh_rng.next();
    EXPECT_EQ(drawn_next, fresh_next);
    EXPECT_EQ(skipped_rng.next(), fresh_next);
  }
  EXPECT_THROW(wiring.redraw_random(0, drawn_rng, scratch), ValidationError);
}

TEST(PortAssignment, CyclicIsValidAndInvertible) {
  const PortAssignment pa = PortAssignment::cyclic(5);
  for (int i = 0; i < 5; ++i) {
    for (int p = 1; p <= 4; ++p) {
      EXPECT_EQ(pa.neighbor(i, p), (i + p) % 5);
      EXPECT_EQ(pa.port_to(i, (i + p) % 5), p);
    }
  }
  EXPECT_THROW(pa.neighbor(0, 0), InvalidArgument);
  EXPECT_THROW(pa.neighbor(0, 5), InvalidArgument);
  EXPECT_THROW(pa.port_to(0, 0), InvalidArgument);
}

TEST(PortAssignment, RandomAssignmentsAreValid) {
  Xoshiro256StarStar rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const PortAssignment pa = PortAssignment::random(6, rng);
    for (int i = 0; i < 6; ++i) {
      std::set<int> targets;
      for (int p = 1; p <= 5; ++p) targets.insert(pa.neighbor(i, p));
      EXPECT_EQ(targets.size(), 5u);
      EXPECT_EQ(targets.count(i), 0u);
    }
  }
}

TEST(PortAssignment, EnumerationCountsForSmallN) {
  EXPECT_EQ(PortAssignment::enumerate_all(2).size(), 1u);
  EXPECT_EQ(PortAssignment::enumerate_all(3).size(), 8u);      // (2!)^3
  EXPECT_EQ(PortAssignment::enumerate_all(4).size(), 1296u);   // (3!)^4
  EXPECT_THROW(PortAssignment::enumerate_all(5), InvalidArgument);
}

TEST(PortAssignment, AdversarialIsValidForAllDivisors) {
  for (int n = 2; n <= 12; ++n) {
    for (int g = 1; g <= n; ++g) {
      if (n % g != 0) continue;
      const PortAssignment pa = PortAssignment::adversarial(n, g);
      for (int i = 0; i < n; ++i) {
        std::set<int> targets;
        for (int p = 1; p <= n - 1; ++p) targets.insert(pa.neighbor(i, p));
        EXPECT_EQ(targets.size(), static_cast<std::size_t>(n - 1))
            << "n=" << n << " g=" << g << " i=" << i;
      }
    }
  }
  EXPECT_THROW(PortAssignment::adversarial(6, 4), InvalidArgument);
}

TEST(PortAssignment, AdversarialAdmitsBlockShiftAutomorphism) {
  // f(m·g + r) = m·g + (r+1 mod g) preserves ports — the heart of the
  // Lemma 4.3 impossibility argument.
  for (const auto& [n, g] : std::vector<std::pair<int, int>>{
           {4, 2}, {6, 2}, {6, 3}, {8, 2}, {8, 4}, {9, 3}, {12, 4}}) {
    const PortAssignment pa = PortAssignment::adversarial(n, g);
    std::vector<int> f(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int m = i / g, r = i % g;
      f[static_cast<std::size_t>(i)] = m * g + (r + 1) % g;
    }
    EXPECT_TRUE(pa.is_automorphism(f)) << "n=" << n << " g=" << g;
  }
}

TEST(PortAssignment, AdversarialAutomorphismPreservesReciprocalPorts) {
  // The tagged model also needs: p's port to i equals f(p)'s port to f(i).
  const int n = 6, g = 2;
  const PortAssignment pa = PortAssignment::adversarial(n, g);
  std::vector<int> f(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) f[static_cast<std::size_t>(i)] = (i / g) * g + (i % g + 1) % g;
  for (int i = 0; i < n; ++i) {
    for (int p = 1; p <= n - 1; ++p) {
      const int u = pa.neighbor(i, p);
      EXPECT_EQ(pa.port_to(u, i),
                pa.port_to(f[static_cast<std::size_t>(u)],
                           f[static_cast<std::size_t>(i)]));
    }
  }
}

TEST(PortAssignment, IdentityIsNotAlwaysAnAutomorphismCheck) {
  const PortAssignment pa = PortAssignment::cyclic(4);
  std::vector<int> id = {0, 1, 2, 3};
  EXPECT_TRUE(pa.is_automorphism(id));
  std::vector<int> swap01 = {1, 0, 2, 3};
  EXPECT_FALSE(pa.is_automorphism(swap01));
  EXPECT_THROW(pa.is_automorphism({0, 0, 1, 2}), InvalidArgument);
  EXPECT_THROW(pa.is_automorphism({0, 1}), InvalidArgument);
}

TEST(PortAssignment, AdversarialForConfigValidation) {
  // Source-contiguous with loads divisible by gcd: fine.
  const auto c1 = SourceConfiguration::from_loads({2, 4});
  EXPECT_NO_THROW(PortAssignment::adversarial_for(c1));
  // Non-contiguous configuration: rejected.
  const SourceConfiguration scattered({0, 1, 0, 1});
  EXPECT_THROW(PortAssignment::adversarial_for(scattered), InvalidArgument);
}

// ----------------------------------------------------------- Model rounds

TEST(Models, InitialKnowledgeIsBottom) {
  KnowledgeStore store;
  const auto k0 = initial_knowledge(store, 3);
  EXPECT_EQ(k0.size(), 3u);
  for (KnowledgeId id : k0) EXPECT_EQ(id, store.bottom());
  EXPECT_THROW(initial_knowledge(store, 0), InvalidArgument);
}

TEST(Models, BlackboardRoundSeparatesByBit) {
  KnowledgeStore store;
  const auto k0 = initial_knowledge(store, 3);
  const auto k1 = blackboard_round(store, k0, {false, true, false});
  EXPECT_EQ(k1[0], k1[2]) << "same bit, same board → same knowledge";
  EXPECT_NE(k1[0], k1[1]);
  EXPECT_EQ(knowledge_partition(k1), (std::vector<int>{0, 1, 0}));
}

TEST(Models, BlackboardKnowledgeEqualsStringEquality) {
  // Property (Section 4.1): on the blackboard, K_i(t) = K_j(t) iff the
  // parties received identical randomness strings. Checked over all
  // realizations of small systems.
  KnowledgeStore store;
  for (int n = 2; n <= 4; ++n) {
    for (int t = 1; t <= (n <= 3 ? 3 : 2); ++t) {
      for_each_realization_facet(n, t, [&](const Realization& rho) {
        const auto knowledge = knowledge_at_blackboard(store, rho);
        EXPECT_EQ(knowledge_partition(knowledge), rho.equal_string_partition())
            << rho.to_string();
      });
    }
  }
}

TEST(Models, MessageRoundRespectsPorts) {
  KnowledgeStore store;
  const PortAssignment pa = PortAssignment::cyclic(3);
  const auto k0 = initial_knowledge(store, 3);
  const auto k1 = message_round(store, k0, {true, false, false}, pa);
  // Party 0 got bit 1 → distinct; parties 1 and 2 both got 0 but see party
  // 0's (still-⊥) knowledge at different ports only after round 2.
  EXPECT_NE(k1[0], k1[1]);
  EXPECT_EQ(k1[1], k1[2]);
}

TEST(Models, MessagePassingPartitionRefinesStringPartition) {
  // Knowledge can only distinguish parties whose strings differ or whose
  // views differ; parties with different strings always differ.
  KnowledgeStore store;
  const PortAssignment pa = PortAssignment::cyclic(4);
  for_each_realization_facet(4, 2, [&](const Realization& rho) {
    const auto partition =
        knowledge_partition(knowledge_at_message_passing(store, rho, pa));
    const auto strings = rho.equal_string_partition();
    // Same knowledge class ⇒ same string class.
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        if (partition[static_cast<std::size_t>(i)] ==
            partition[static_cast<std::size_t>(j)]) {
          EXPECT_EQ(strings[static_cast<std::size_t>(i)],
                    strings[static_cast<std::size_t>(j)]);
        }
      }
    }
  });
}

TEST(Models, RoundInputValidation) {
  KnowledgeStore store;
  const auto k0 = initial_knowledge(store, 3);
  EXPECT_THROW(blackboard_round(store, k0, {true}), InvalidArgument);
  const PortAssignment pa = PortAssignment::cyclic(4);
  EXPECT_THROW(message_round(store, k0, {true, false, true}, pa),
               InvalidArgument);

  RoundScratch scratch;
  std::vector<KnowledgeId> k = k0;
  const std::vector<bool> bits = {true, false, true};
  const std::vector<int> short_schedule = {-1, 2};
  EXPECT_THROW(blackboard_round_inplace(store, k, {true}, scratch),
               InvalidArgument);
  EXPECT_THROW(
      blackboard_round_inplace(store, k, bits, scratch, short_schedule, 1),
      InvalidArgument);
  // A caller-sorted multiset is the whole sorted vector of a fault-free
  // round.
  EXPECT_THROW(blackboard_round_inplace(store, k, bits, scratch, {}, 1,
                                        std::vector<KnowledgeId>{0, 0}),
               InvalidArgument);
  EXPECT_THROW(blackboard_round_inplace(store, k, bits, scratch,
                                        std::vector<int>{-1, 1, -1}, 1, k0),
               InvalidArgument);
  EXPECT_THROW(message_round_inplace(store, k, bits, pa,
                                     MessageVariant::kPortTagged, scratch),
               InvalidArgument);
  EXPECT_THROW(message_round_inplace(store, k, bits, PortAssignment::cyclic(3),
                                     MessageVariant::kPortTagged, scratch,
                                     short_schedule, 1),
               InvalidArgument);
}

TEST(Models, AValueMissingFromTheCallerSortedMultisetIsANamedReject) {
  // Regression: the in-place blackboard operator found a participant's
  // memo slot by a binary search in the caller's sorted multiset, so a
  // value the multiset lacked took another value's slot, or one past the
  // memo's end, and was stepped on a board that does not hold it. Each
  // such participant is now rejected by name.
  KnowledgeStore store;
  RoundScratch scratch;
  std::vector<KnowledgeId> knowledge = initial_knowledge(store, 3);
  blackboard_round_inplace(store, knowledge,
                           std::vector<bool>{true, false, true}, scratch);
  ASSERT_EQ(knowledge, (std::vector<KnowledgeId>{1, 2, 1}));
  const std::vector<bool> bits = {false, true, false};
  const auto reject = [&](std::vector<KnowledgeId> sorted) -> std::string {
    std::vector<KnowledgeId> k = knowledge;
    try {
      blackboard_round_inplace(store, k, bits, scratch, {}, 2, sorted);
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "no reject";
  };
  // Inside the multiset's id range, but not in it.
  EXPECT_NE(reject({0, 2, 2}).find("value #1 does not occur"),
            std::string::npos);
  // Below the range, and above it.
  EXPECT_NE(reject({2, 2, 2}).find("party 0's value #1 does not occur"),
            std::string::npos);
  EXPECT_NE(reject({1, 1, 1}).find("party 1's value #2 does not occur"),
            std::string::npos);
  // The true multiset still steps.
  std::vector<KnowledgeId> k = knowledge;
  EXPECT_NO_THROW(blackboard_round_inplace(store, k, bits, scratch, {}, 2,
                                           std::vector<KnowledgeId>{1, 1, 2}));
}

// ------------------------------ in-place operators vs the value reference

constexpr int kOperatorRounds = 4;

std::vector<bool> random_bits(int n, Xoshiro256StarStar& rng) {
  std::vector<bool> bits;
  for (int party = 0; party < n; ++party) bits.push_back(rng.next_bit());
  return bits;
}

/// Each party crashes at a round in [1, kOperatorRounds] with probability
/// 1/2, else never (-1).
std::vector<int> random_crashes(int n, Xoshiro256StarStar& rng) {
  std::vector<int> crash_round;
  for (int party = 0; party < n; ++party) {
    crash_round.push_back(
        rng.next_bit() ? 1 + static_cast<int>(rng.below(kOperatorRounds))
                       : -1);
  }
  return crash_round;
}

/// The in-place round landed on the reference's bytes: equal ids, equal
/// store sizes, and equal content per party. Ids are insertion-order
/// handles, so a wrong multiset can keep them all equal; only the rendered
/// value (prev, bit, received ids) and the reciprocal port tags, which the
/// rendering leaves out, pin the content.
void expect_same_round(const KnowledgeStore& ref_store,
                       const std::vector<KnowledgeId>& ref,
                       const KnowledgeStore& store,
                       const std::vector<KnowledgeId>& knowledge) {
  ASSERT_EQ(knowledge, ref);
  EXPECT_EQ(store.size(), ref_store.size());
  for (std::size_t p = 0; p < ref.size(); ++p) {
    EXPECT_EQ(store.to_string(knowledge[p]), ref_store.to_string(ref[p]))
        << "party " << p;
    if (store.kind(knowledge[p]) != KnowledgeKind::kMessageStep) continue;
    const std::span<const int> tags = store.tags(knowledge[p]);
    const std::span<const int> ref_tags = ref_store.tags(ref[p]);
    EXPECT_TRUE(std::equal(tags.begin(), tags.end(), ref_tags.begin(),
                           ref_tags.end()))
        << "party " << p;
  }
}

TEST(Models, InPlaceBlackboardRoundMatchesTheReference) {
  Xoshiro256StarStar rng(0xb1ac);
  RoundScratch scratch;  // reused across every size, as a sweep reuses it
  for (int n = 1; n <= 7; ++n) {
    for (const bool crashes : {false, true}) {
      for (const bool caller_sorted : {false, true}) {
        // A caller-sorted multiset is a fault-free round's option.
        if (crashes && caller_sorted) continue;
        for (int trial = 0; trial < 6; ++trial) {
          KnowledgeStore ref_store, store;
          std::vector<KnowledgeId> ref = initial_knowledge(ref_store, n);
          std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
          const std::vector<int> crash_round =
              crashes ? random_crashes(n, rng) : std::vector<int>{};
          std::vector<KnowledgeId> sorted;
          for (int round = 1; round <= kOperatorRounds; ++round) {
            SCOPED_TRACE("n=" + std::to_string(n) + " crashes=" +
                         std::to_string(crashes) + " caller_sorted=" +
                         std::to_string(caller_sorted) + " trial=" +
                         std::to_string(trial) + " round=" +
                         std::to_string(round));
            const std::vector<bool> bits = random_bits(n, rng);
            ref = blackboard_round(ref_store, ref, bits, crash_round, round);
            sorted.clear();
            if (caller_sorted) {
              sorted = knowledge;
              std::sort(sorted.begin(), sorted.end());
            }
            blackboard_round_inplace(store, knowledge, bits, scratch,
                                     crash_round, round, sorted);
            expect_same_round(ref_store, ref, store, knowledge);
          }
        }
      }
    }
  }
}

TEST(Models, InPlaceMessageRoundMatchesTheReference) {
  Xoshiro256StarStar rng(0x3e55);
  RoundScratch scratch;  // reused across every size, as a sweep reuses it
  for (int n = 1; n <= 7; ++n) {
    for (const MessageVariant variant :
         {MessageVariant::kPortTagged, MessageVariant::kLiteral}) {
      for (const bool crashes : {false, true}) {
        for (int trial = 0; trial < 6; ++trial) {
          const PortAssignment ports = PortAssignment::random(n, rng);
          KnowledgeStore ref_store, store;
          std::vector<KnowledgeId> ref = initial_knowledge(ref_store, n);
          std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
          const std::vector<int> crash_round =
              crashes ? random_crashes(n, rng) : std::vector<int>{};
          for (int round = 1; round <= kOperatorRounds; ++round) {
            SCOPED_TRACE("n=" + std::to_string(n) + " variant=" +
                         to_string(variant) + " crashes=" +
                         std::to_string(crashes) + " trial=" +
                         std::to_string(trial) + " round=" +
                         std::to_string(round));
            const std::vector<bool> bits = random_bits(n, rng);
            ref = message_round(ref_store, ref, bits, ports, variant,
                                crash_round, round);
            message_round_inplace(store, knowledge, bits, ports, variant,
                                  scratch, crash_round, round);
            expect_same_round(ref_store, ref, store, knowledge);
          }
        }
      }
    }
  }
}

/// Bits for one round of `config`: one coin per source, shared by its
/// parties.
std::vector<bool> source_bits(const SourceConfiguration& config,
                              Xoshiro256StarStar& rng) {
  std::vector<bool> per_source;
  for (int s = 0; s < config.num_sources(); ++s) {
    per_source.push_back(rng.next_bit());
  }
  std::vector<bool> bits;
  for (int party = 0; party < config.num_parties(); ++party) {
    bits.push_back(per_source[static_cast<std::size_t>(config.source_of(party))]);
  }
  return bits;
}

TEST(Models, InPlaceBlackboardRoundMatchesTheReferenceAtLargeN) {
  // The sizes where the board and the position-indexed memo matter: many
  // distinct values (all-private n=64) and many repeats (loads 8×8).
  Xoshiro256StarStar rng(0xb16b0a2d);
  RoundScratch scratch;
  for (const SourceConfiguration& config :
       {SourceConfiguration::all_private(64),
        SourceConfiguration::from_loads({8, 8, 8, 8, 8, 8, 8, 8})}) {
    const int n = config.num_parties();
    for (const bool crashes : {false, true}) {
      for (const bool caller_sorted : {false, true}) {
        if (crashes && caller_sorted) continue;
        KnowledgeStore ref_store, store;
        std::vector<KnowledgeId> ref = initial_knowledge(ref_store, n);
        std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
        const std::vector<int> crash_round =
            crashes ? random_crashes(n, rng) : std::vector<int>{};
        std::vector<KnowledgeId> sorted;
        for (int round = 1; round <= 2 * kOperatorRounds; ++round) {
          SCOPED_TRACE("sources=" + std::to_string(config.num_sources()) +
                       " crashes=" + std::to_string(crashes) +
                       " caller_sorted=" + std::to_string(caller_sorted) +
                       " round=" + std::to_string(round));
          const std::vector<bool> bits = source_bits(config, rng);
          ref = blackboard_round(ref_store, ref, bits, crash_round, round);
          sorted.clear();
          if (caller_sorted) {
            sorted = knowledge;
            std::sort(sorted.begin(), sorted.end());
          }
          blackboard_round_inplace(store, knowledge, bits, scratch,
                                   crash_round, round, sorted);
          expect_same_round(ref_store, ref, store, knowledge);
        }
      }
    }
  }
}

TEST(Models, InPlaceMessageRoundMatchesTheReferenceOnRandomWiringsWithCrashes) {
  // Random wirings at n=16 under crash schedules: survivors' tuples carry
  // silence entries with reciprocal tag 0, which the in-place operator
  // writes in place of the wiring's reciprocal row.
  Xoshiro256StarStar rng(0x511e);
  RoundScratch scratch;
  const int n = 16;
  int silent_entries = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const PortAssignment ports = PortAssignment::random(n, rng);
    KnowledgeStore ref_store, store;
    std::vector<KnowledgeId> ref = initial_knowledge(ref_store, n);
    std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
    const std::vector<int> crash_round = random_crashes(n, rng);
    for (int round = 1; round <= kOperatorRounds; ++round) {
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " round=" + std::to_string(round));
      const std::vector<bool> bits = random_bits(n, rng);
      ref = message_round(ref_store, ref, bits, ports,
                          MessageVariant::kPortTagged, crash_round, round);
      message_round_inplace(store, knowledge, bits, ports,
                            MessageVariant::kPortTagged, scratch, crash_round,
                            round);
      expect_same_round(ref_store, ref, store, knowledge);
      for (std::size_t i = 0; i < knowledge.size(); ++i) {
        if (store.kind(knowledge[i]) != KnowledgeKind::kMessageStep) continue;
        const std::span<const KnowledgeId> received = store.received(knowledge[i]);
        const std::span<const int> tags = store.tags(knowledge[i]);
        const std::span<const int> reciprocal =
            ports.reciprocal(static_cast<int>(i));
        for (std::size_t p = 0; p < received.size(); ++p) {
          const bool silent =
              store.kind(received[p]) == KnowledgeKind::kSilence;
          silent_entries += silent ? 1 : 0;
          EXPECT_EQ(tags[p], silent ? 0 : reciprocal[p]);
        }
      }
    }
  }
  EXPECT_GT(silent_entries, 0) << "no crash silenced a channel";
}

// ------------------------------------------ literal vs port-tagged Eq. (2)

// An aligned wiring for loads {2,3}: every v-party (source B) sees the two
// u-parties (source A) on ports 1,2 and the other v-parties on ports 3,4;
// every u-party sees the other u on port 1 and the v's on ports 2,3,4.
// Under the literal Eq. (2), the consistency partition can never refine
// below {u-class, v-class} — although gcd(2,3) = 1. The port-tagged model
// breaks the alignment. This is the modeling point documented in DESIGN.md.
PortAssignment aligned_ports_2_3() {
  // Parties 0,1 = source A; 2,3,4 = source B.
  return PortAssignment({
      {1, 2, 3, 4},  // u0: port1→u1, ports 2-4 → v's
      {0, 2, 3, 4},  // u1: port1→u0
      {0, 1, 3, 4},  // v2: ports1,2→u's, ports3,4→v's
      {0, 1, 2, 4},  // v3
      {0, 1, 2, 3},  // v4
  });
}

TEST(Models, LiteralEq2FreezesAlignedWiring) {
  const SourceConfiguration config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = aligned_ports_2_3();
  KnowledgeStore store;
  // For every realization the literal partition never refines below the
  // source partition {0,0,1,1,1}.
  for (int t = 1; t <= 3; ++t) {
    for_each_positive_realization(config, t, [&](const Realization& rho) {
      const auto partition = knowledge_partition(knowledge_at_message_passing(
          store, rho, pa, MessageVariant::kLiteral));
      const auto sizes = block_sizes(partition);
      for (int s : sizes) EXPECT_GE(s, 2) << rho.to_string();
    });
  }
}

TEST(Models, PortTaggedEq2SplitsAlignedWiring) {
  const SourceConfiguration config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = aligned_ports_2_3();
  KnowledgeStore store;
  // Under the tagged model some realization isolates a vertex by t = 3
  // (in fact the v-class splits as soon as the sources' strings differ).
  bool some_singleton = false;
  for_each_positive_realization(config, 3, [&](const Realization& rho) {
    const auto partition = knowledge_partition(knowledge_at_message_passing(
        store, rho, pa, MessageVariant::kPortTagged));
    const auto sizes = block_sizes(partition);
    for (int s : sizes) some_singleton = some_singleton || (s == 1);
  });
  EXPECT_TRUE(some_singleton)
      << "the tagged model must allow symmetry breaking when gcd = 1";
}

TEST(Models, ToStringNames) {
  EXPECT_EQ(to_string(Model::kBlackboard), "blackboard");
  EXPECT_EQ(to_string(Model::kMessagePassing), "message-passing");
  EXPECT_EQ(to_string(MessageVariant::kPortTagged), "port-tagged");
  EXPECT_EQ(to_string(MessageVariant::kLiteral), "literal");
}

}  // namespace
}  // namespace rsb
