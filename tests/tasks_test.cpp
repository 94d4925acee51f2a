// Tests for symmetric tasks and their output complexes: O_LE and π(O_LE)
// (Figure 3), m-leader election, census tasks, the partition-solvability
// primitive, and name-independent input-output tasks (Appendix C).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tasks/name_independent.hpp"
#include "tasks/tasks.hpp"
#include "topology/symmetry.hpp"
#include "util/error.hpp"

namespace rsb {
namespace {

// --------------------------------------------------------- Leader election

TEST(LeaderElection, OutputComplexHasNFacets) {
  for (int n = 1; n <= 5; ++n) {
    const SymmetricTask le = SymmetricTask::leader_election(n);
    const OutputComplex o = le.output_complex();
    EXPECT_EQ(o.facet_count(), n) << "O_LE has one facet per possible leader";
    EXPECT_TRUE(o.is_pure());
    EXPECT_EQ(o.dimension(), n - 1);
    EXPECT_TRUE(is_symmetric(o));
  }
}

TEST(LeaderElection, Figure3Projection) {
  // π(O_LE) for n = 3: facets {(i,1)} and {(j,0) : j ≠ i} — 2n facets, and
  // π(τ_i) is an isolated vertex plus an (n−2)-simplex.
  const SymmetricTask le = SymmetricTask::leader_election(3);
  const OutputComplex projected = le.projected_output_complex();
  EXPECT_EQ(projected.facet_count(), 6);  // 3 isolated leaders + 3 edges
  EXPECT_EQ(projected.isolated_vertices().size(), 3u);
  // The facet τ_1 = {(0,1),(1,0),(2,0)} projects to {(0,1)} ∪ {(1,0),(2,0)}.
  Simplex<int> tau1({{0, 1}, {1, 0}, {2, 0}});
  const OutputComplex pi_tau1 = project_facet(tau1);
  EXPECT_EQ(pi_tau1.facet_count(), 2);
  EXPECT_TRUE(pi_tau1.contains(Simplex<int>({{0, 1}})));
  EXPECT_TRUE(pi_tau1.contains(Simplex<int>({{1, 0}, {2, 0}})));
}

TEST(SymmetricTask, EveryAdmissionEntryPointJudgesOneCensus) {
  // 1-resilient leader election over 4 parties, refined to reject a
  // surviving leader at party 3. Over every value vector in {-1..2}^4
  // (off-alphabet values included) and every alive mask, the int and the
  // int64 entry points agree with each other and with the rule spelled
  // out here: the judged parties are the survivors, a judged value off
  // the alphabet rejects, at least 3 survive, exactly one leads, and the
  // refinement sees the crash state either way.
  const SymmetricTask task =
      SymmetricTask::resilient_leader_election(4, 1).with_refinement(
          [](std::span<const int> values, std::span<const int> crash_round) {
            const bool crashed = !crash_round.empty() && crash_round[3] >= 0;
            return values[3] != 1 || crashed;
          });
  std::vector<int> values(4);
  std::vector<std::int64_t> outputs(4);
  for (int code = 0; code < 256; ++code) {
    for (std::size_t i = 0; i < 4; ++i) {
      values[i] = ((code >> (2 * i)) & 3) - 1;
      outputs[i] = values[i];
    }
    for (int mask = 0; mask < 16; ++mask) {
      std::vector<bool> alive(4);
      std::vector<int> crash_round(4);
      bool off_alphabet = false;
      int survivors = 0;
      int leaders = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        alive[i] = ((mask >> i) & 1) != 0;
        crash_round[i] = alive[i] ? -1 : 2;
        if (!alive[i]) continue;
        off_alphabet |= values[i] != 0 && values[i] != 1;
        ++survivors;
        leaders += values[i] == 1 ? 1 : 0;
      }
      const bool expected = !off_alphabet && survivors >= 3 && leaders == 1 &&
                            (values[3] != 1 || !alive[3]);
      SCOPED_TRACE("code=" + std::to_string(code) +
                   " mask=" + std::to_string(mask));
      EXPECT_EQ(task.admits_surviving(values, alive), expected);
      EXPECT_EQ(task.admits_surviving_outputs(outputs, crash_round), expected);
      if (mask == 15) {
        EXPECT_EQ(task.admits_vector(values), expected);
        EXPECT_EQ(task.admits_outputs(outputs), expected);
      }
    }
  }
}

TEST(LeaderElection, AdmitsExactlyOneLeaderVectors) {
  const SymmetricTask le = SymmetricTask::leader_election(3);
  EXPECT_TRUE(le.admits_vector({1, 0, 0}));
  EXPECT_TRUE(le.admits_vector({0, 0, 1}));
  EXPECT_FALSE(le.admits_vector({1, 1, 0}));
  EXPECT_FALSE(le.admits_vector({0, 0, 0}));
  EXPECT_FALSE(le.admits_vector({2, 0, 0}));  // off-alphabet
  EXPECT_THROW(le.admits_vector({0, 1}), InvalidArgument);
}

TEST(LeaderElection, PartitionSolvesIffSingletonClass) {
  // The isolated-vertex criterion of Section 4.
  const SymmetricTask le = SymmetricTask::leader_election(5);
  EXPECT_TRUE(le.partition_solves({1, 4}));
  EXPECT_TRUE(le.partition_solves({1, 1, 3}));
  EXPECT_TRUE(le.partition_solves({1, 1, 1, 1, 1}));
  EXPECT_FALSE(le.partition_solves({5}));
  EXPECT_FALSE(le.partition_solves({2, 3}));
  EXPECT_THROW(le.partition_solves({2, 2}), InvalidArgument);  // sums to 4
  EXPECT_THROW(le.partition_solves({0, 5}), InvalidArgument);
}

// ------------------------------------------------------- m-leader election

TEST(MLeaderElection, CountsFacets) {
  // O_{m-LE} has C(n, m) facets.
  const SymmetricTask two = SymmetricTask::m_leader_election(4, 2);
  EXPECT_EQ(two.output_complex().facet_count(), 6);
  EXPECT_TRUE(is_symmetric(two.output_complex()));
  EXPECT_THROW(SymmetricTask::m_leader_election(3, 4), InvalidArgument);
}

TEST(MLeaderElection, PartitionSolvesIffSubsetSums) {
  const SymmetricTask two = SymmetricTask::m_leader_election(6, 2);
  EXPECT_TRUE(two.partition_solves({2, 4}));     // one class of 2 → leaders
  EXPECT_TRUE(two.partition_solves({1, 1, 4}));  // two singletons
  EXPECT_TRUE(two.partition_solves({2, 2, 2}));
  EXPECT_FALSE(two.partition_solves({3, 3}));    // no subset sums to 2
  EXPECT_FALSE(two.partition_solves({6}));
}

TEST(MLeaderElection, ZeroLeadersIsAlwaysSolvable) {
  const SymmetricTask zero = SymmetricTask::m_leader_election(4, 0);
  EXPECT_TRUE(zero.partition_solves({4}));
  EXPECT_TRUE(zero.partition_solves({2, 2}));
}

// ------------------------------------------------------------- other tasks

TEST(WeakSymmetryBreaking, NotAllSame) {
  const SymmetricTask wsb = SymmetricTask::weak_symmetry_breaking(3);
  EXPECT_TRUE(wsb.admits_vector({0, 1, 1}));
  EXPECT_FALSE(wsb.admits_vector({0, 0, 0}));
  EXPECT_FALSE(wsb.admits_vector({1, 1, 1}));
  EXPECT_TRUE(wsb.partition_solves({1, 2}));
  EXPECT_FALSE(wsb.partition_solves({3}));  // one class → constant output
  EXPECT_TRUE(is_symmetric(wsb.output_complex()));
}

TEST(ExactCensus, ValidatesAndSolves) {
  const SymmetricTask census =
      SymmetricTask::exact_census(5, {{0, 2}, {1, 3}});
  EXPECT_TRUE(census.admits_vector({0, 0, 1, 1, 1}));
  EXPECT_FALSE(census.admits_vector({0, 1, 1, 1, 1}));
  EXPECT_TRUE(census.partition_solves({2, 3}));
  EXPECT_FALSE(census.partition_solves({5}));
  EXPECT_TRUE(census.partition_solves({2, 1, 1, 1}));
  EXPECT_THROW(SymmetricTask::exact_census(5, {{0, 2}, {1, 2}}),
               InvalidArgument);
}

TEST(SymmetricTask, AdmissibleCountVectors) {
  const SymmetricTask le = SymmetricTask::leader_election(4);
  const auto counts = le.admissible_count_vectors();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], (std::vector<int>{3, 1}));  // three 0s, one 1
}

TEST(SymmetricTask, ConstructorValidation) {
  EXPECT_THROW(SymmetricTask("x", 0, {0, 1}, [](const auto&) { return true; }),
               InvalidArgument);
  EXPECT_THROW(SymmetricTask("x", 2, {}, [](const auto&) { return true; }),
               InvalidArgument);
  EXPECT_THROW(
      SymmetricTask("x", 2, {1, 1}, [](const auto&) { return true; }),
      InvalidArgument);
}

// ------------------------------------------------- name-independent tasks

TEST(NameIndependent, ConsensusMinAndMax) {
  const auto cmin = NameIndependentTask::consensus_min();
  const auto cmax = NameIndependentTask::consensus_max();
  const std::vector<std::int64_t> inputs = {5, 2, 9, 2};
  EXPECT_EQ(cmin.outputs_for(inputs),
            (std::vector<std::int64_t>{2, 2, 2, 2}));
  EXPECT_EQ(cmax.outputs_for(inputs),
            (std::vector<std::int64_t>{9, 9, 9, 9}));
}

TEST(NameIndependent, Parity) {
  const auto parity = NameIndependentTask::parity();
  EXPECT_EQ(parity.outputs_for({1, 2, 4}),
            (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_EQ(parity.outputs_for({2, 2}), (std::vector<std::int64_t>{0, 0}));
}

TEST(NameIndependent, RankIsNameIndependent) {
  const auto rank = NameIndependentTask::rank();
  const std::vector<std::int64_t> inputs = {30, 10, 30, 20};
  const auto outputs = rank.outputs_for(inputs);
  EXPECT_EQ(outputs, (std::vector<std::int64_t>{2, 0, 2, 1}));
  // Equal inputs received equal outputs — the defining property.
  EXPECT_EQ(outputs[0], outputs[2]);
}

TEST(NameIndependent, ValidateChecksRuleConformance) {
  const auto cmin = NameIndependentTask::consensus_min();
  EXPECT_TRUE(cmin.validate({3, 1}, {1, 1}));
  EXPECT_FALSE(cmin.validate({3, 1}, {1, 3}));
  EXPECT_FALSE(cmin.validate({3, 1}, {1}));
}

}  // namespace
}  // namespace rsb
