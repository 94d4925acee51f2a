// Canonical spec wire format (src/service/canonical.hpp): parse /
// canonical_text round trips, default omission, inert-knob normalization,
// hash identity, grid expansion — and a golden file pinning the canonical
// form and 64-bit hash of a spec for every registry-listed protocol and
// task, so a hash-affecting change to the format (which would orphan every
// cached result shard) cannot land silently. A fixed-seed mutation corpus
// grown from that fixture holds the spec and JSON parsers to one contract
// on outside input: a value or a named error, never another exception.
#include "service/canonical.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "golden_util.hpp"
#include "graph/agents.hpp"
#include "graph/graph_task.hpp"
#include "graph/topology.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "util/error.hpp"

namespace rsb::service {
namespace {

TEST(CanonicalSpec, ParseRoundTripsThroughCanonicalText) {
  const CanonicalSpec spec = CanonicalSpec::parse(
      "model=message-passing\nloads=2,3\nprotocol=wait-for-singleton-LE\n"
      "task=leader-election\nrounds=120\nseeds=7+100");
  const std::string canonical = spec.canonical_text();
  const CanonicalSpec reparsed = CanonicalSpec::parse(canonical);
  EXPECT_EQ(reparsed.canonical_text(), canonical);
  EXPECT_EQ(reparsed.hash(), spec.hash());
  EXPECT_EQ(spec.seeds.first, 7u);
  EXPECT_EQ(spec.seeds.count, 100u);
}

TEST(CanonicalSpec, KeyOrderAndSeparatorsDoNotChangeIdentity) {
  const CanonicalSpec a = CanonicalSpec::parse(
      "loads=2,3\nprotocol=wait-for-singleton-LE\ntask=leader-election");
  const CanonicalSpec b = CanonicalSpec::parse(
      "task = leader-election ; protocol = wait-for-singleton-LE ;"
      " loads = 2,3  # comment");
  EXPECT_EQ(a.canonical_text(), b.canonical_text());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(CanonicalSpec, ExplicitDefaultsCanonicalizeAway) {
  const CanonicalSpec bare =
      CanonicalSpec::parse("loads=2,3\nprotocol=wait-for-singleton-LE");
  const CanonicalSpec spelled = CanonicalSpec::parse(
      "loads=2,3\nprotocol=wait-for-singleton-LE\nmodel=blackboard\n"
      "rounds=300\nvariant=port-tagged\nfault-crashes=0\n"
      "sched=synchronous");
  EXPECT_EQ(spelled.canonical_text(), bare.canonical_text());
  EXPECT_EQ(spelled.hash(), bare.hash());
}

TEST(CanonicalSpec, DefaultsAreTheOnesAnOmittedKeyRunsUnder) {
  // canonical_text() omits every key whose value equals CanonicalSpec{}'s,
  // so those defaults must be what to_experiment() builds when the key is
  // absent: the Experiment, sim::FaultPlan and sim::SchedulerSpec defaults.
  const CanonicalSpec spec;
  const Experiment experiment;
  const sim::FaultPlan faults;
  const sim::SchedulerSpec scheduler;
  EXPECT_EQ(spec.model, to_string(experiment.model));
  EXPECT_EQ(spec.port_seed, experiment.port_seed);
  EXPECT_EQ(spec.topology_seed, experiment.topology_seed);
  EXPECT_EQ(spec.variant, to_string(experiment.variant));
  EXPECT_EQ(spec.rounds, experiment.max_rounds);
  EXPECT_EQ(spec.fault_crashes, faults.crashes);
  EXPECT_EQ(spec.fault_window, faults.crash_window);
  EXPECT_EQ(spec.fault_seed, faults.fault_seed);
  EXPECT_EQ(spec.sched, scheduler.to_string());
  EXPECT_EQ(spec.sched_seed, scheduler.sched_seed);
  // The experiment runs under those same fault plan and scheduler.
  EXPECT_EQ(experiment.faults.crashes, faults.crashes);
  EXPECT_EQ(experiment.faults.crash_window, faults.crash_window);
  EXPECT_EQ(experiment.faults.fault_seed, faults.fault_seed);
  EXPECT_EQ(experiment.scheduler.to_string(), scheduler.to_string());
  EXPECT_EQ(experiment.scheduler.sched_seed, scheduler.sched_seed);
}

TEST(CanonicalSpec, SeedsAreNotPartOfTheIdentity) {
  const CanonicalSpec a = CanonicalSpec::parse(
      "loads=2,3\nprotocol=wait-for-singleton-LE\nseeds=0+100");
  const CanonicalSpec b = CanonicalSpec::parse(
      "loads=2,3\nprotocol=wait-for-singleton-LE\nseeds=500+2000");
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.canonical_text(), b.canonical_text());
  EXPECT_NE(a.seeds.first, b.seeds.first);
}

TEST(CanonicalSpec, InertKnobsNormalizeAway) {
  // fault-seed and fault-window are inert without crashes; sched-seed is
  // inert under a synchronous scheduler; random-delay(0) IS synchronous.
  const CanonicalSpec bare =
      CanonicalSpec::parse("loads=2,3\nprotocol=wait-for-singleton-LE");
  const CanonicalSpec knobbed = CanonicalSpec::parse(
      "loads=2,3\nprotocol=wait-for-singleton-LE\nfault-seed=99\n"
      "fault-window=5\nsched=random-delay(0)\nsched-seed=123");
  EXPECT_EQ(knobbed.canonical_text(), bare.canonical_text());
  EXPECT_EQ(knobbed.hash(), bare.hash());
  // ... but the same knobs are live once faults / delays are on.
  const CanonicalSpec faulty = CanonicalSpec::parse(
      "loads=2,3\nprotocol=wait-for-singleton-LE\nfault-crashes=1\n"
      "fault-seed=99");
  EXPECT_NE(faulty.hash(), bare.hash());
}

TEST(CanonicalSpec, BatchKnobIsHashInert) {
  // `batch` is accepted, validated and ignored — so two requests
  // differing only in batch are the same ensemble: same canonical text,
  // same hash, shared cache shards.
  const CanonicalSpec bare =
      CanonicalSpec::parse("loads=2,3\nprotocol=wait-for-singleton-LE");
  const CanonicalSpec batched = CanonicalSpec::parse(
      "batch=16\nloads=2,3\nprotocol=wait-for-singleton-LE");
  EXPECT_EQ(batched.batch, 16);
  EXPECT_EQ(bare.batch, 0);
  EXPECT_EQ(batched.canonical_text(), bare.canonical_text());
  EXPECT_EQ(batched.hash(), bare.hash());
  EXPECT_THROW(CanonicalSpec::parse("batch=-1\nloads=2,3\nprotocol=x"),
               InvalidArgument);
}

TEST(CanonicalSpec, OrbitKnobIsHashInert) {
  // `orbit` is accepted, validated and ignored — so, like batch, the key
  // never reaches the canonical text or the hash.
  const CanonicalSpec bare =
      CanonicalSpec::parse("loads=2,3\nprotocol=wait-for-singleton-LE");
  const CanonicalSpec on = CanonicalSpec::parse(
      "loads=2,3\norbit=on\nprotocol=wait-for-singleton-LE");
  const CanonicalSpec off = CanonicalSpec::parse(
      "loads=2,3\norbit=off\nprotocol=wait-for-singleton-LE");
  EXPECT_EQ(bare.orbit, "");
  EXPECT_EQ(on.orbit, "on");
  EXPECT_EQ(off.orbit, "off");
  EXPECT_EQ(on.canonical_text(), bare.canonical_text());
  EXPECT_EQ(off.canonical_text(), bare.canonical_text());
  EXPECT_EQ(on.hash(), bare.hash());
  EXPECT_EQ(off.hash(), bare.hash());
  EXPECT_THROW(CanonicalSpec::parse("loads=2,3\norbit=maybe\nprotocol=x"),
               InvalidArgument);
}

TEST(CanonicalSpec, BackendKeysAreExclusiveAndRequired) {
  EXPECT_THROW(CanonicalSpec::parse("loads=2,3"), InvalidArgument);
  EXPECT_THROW(
      CanonicalSpec::parse(
          "loads=2,3\nprotocol=wait-for-singleton-LE\nagents=luby-mis"),
      InvalidArgument);
  const CanonicalSpec agents = CanonicalSpec::parse(
      "model=message-passing\nloads=1,1,1,1\nagents=luby-mis\n"
      "topology=ring\ntask=mis");
  EXPECT_EQ(agents.agents, "luby-mis");
  EXPECT_TRUE(agents.protocol.empty());
}

TEST(CanonicalSpec, CliqueTopologyNormalizesAway) {
  // All-to-all IS the default wiring, so `topology=clique` is the same
  // ensemble as no topology line at all — every pre-topology spec hash is
  // unchanged by the knob's existence.
  const CanonicalSpec bare = CanonicalSpec::parse(
      "model=message-passing\nloads=1,1,1,1\nagents=gossip-le\n"
      "task=leader-election");
  const CanonicalSpec spelled = CanonicalSpec::parse(
      "model=message-passing\nloads=1,1,1,1\nagents=gossip-le\n"
      "task=leader-election\ntopology=clique");
  EXPECT_EQ(spelled.canonical_text(), bare.canonical_text());
  EXPECT_EQ(spelled.hash(), bare.hash());
}

TEST(CanonicalSpec, TopologySeedLiveOnlyForRandomizedGenerators) {
  const auto with = [](const std::string& extra) {
    return CanonicalSpec::parse(
        "model=message-passing\nloads=1,1,1,1,1,1,1,1\nagents=luby-mis\n"
        "task=mis\n" +
        extra);
  };
  // The seed cannot change a deterministic generator's graph — inert.
  EXPECT_EQ(with("topology=ring\ntopology-seed=99").hash(),
            with("topology=ring").hash());
  // ... but it IS the graph for a randomized one.
  EXPECT_NE(with("topology=d-regular(3)\ntopology-seed=99").hash(),
            with("topology=d-regular(3)").hash());
  // Under a live topology the graph fixes the wiring: port-seed is inert.
  EXPECT_EQ(with("topology=ring\nport-seed=42").hash(),
            with("topology=ring").hash());
}

TEST(CanonicalSpec, ToExperimentResolvesGraphSpecs) {
  const CanonicalSpec good = CanonicalSpec::parse(
      "model=message-passing\nloads=1,1,1,1,1,1\nagents=luby-mis\n"
      "task=mis\ntopology=ring\nseeds=1+4");
  const Experiment experiment = good.to_experiment();
  ASSERT_NE(experiment.topology, nullptr);
  EXPECT_EQ(experiment.topology->name(), "ring");
  EXPECT_EQ(experiment.backend(), Experiment::Backend::kAgents);
  // A graph task without a topology rejects with a named reason — the
  // reject-reason rsbd forwards verbatim to clients.
  const CanonicalSpec graphless = CanonicalSpec::parse(
      "model=message-passing\nloads=1,1,1,1,1,1\nagents=luby-mis\ntask=mis");
  try {
    graphless.to_experiment();
    FAIL() << "expected graph-task-requires-topology";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("graph-task-requires-topology"),
              std::string::npos);
  }
  // A topology on the blackboard likewise.
  const CanonicalSpec board = CanonicalSpec::parse(
      "loads=1,1,1,1\nagents=luby-mis\ntopology=ring");
  try {
    board.to_experiment();
    FAIL() << "expected topology-requires-message-passing";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("topology-requires-message-passing"),
              std::string::npos);
  }
}

TEST(CanonicalSpec, DistinctSpecsHashDistinct) {
  const char* specs[] = {
      "loads=2,3\nprotocol=wait-for-singleton-LE",
      "loads=3,2\nprotocol=wait-for-singleton-LE",
      "loads=2,3\nprotocol=wait-for-class-split-LE(2)",
      "loads=2,3\nprotocol=wait-for-singleton-LE\ntask=leader-election",
      "loads=2,3\nprotocol=wait-for-singleton-LE\nrounds=100",
      "loads=2,3\nprotocol=wait-for-singleton-LE\nmodel=message-passing",
  };
  std::vector<std::uint64_t> hashes;
  for (const char* text : specs) {
    hashes.push_back(CanonicalSpec::parse(text).hash());
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j]) << specs[i] << " vs " << specs[j];
    }
  }
}

TEST(CanonicalSpec, RejectsMalformedInput) {
  EXPECT_THROW(CanonicalSpec::parse("loads=2,3\nloads=4"), InvalidArgument);
  EXPECT_THROW(CanonicalSpec::parse("unknown-key=1"), InvalidArgument);
  EXPECT_THROW(CanonicalSpec::parse("loads=2,3\nrounds=ten"),
               InvalidArgument);
  EXPECT_THROW(CanonicalSpec::parse("loads=2,3\nrounds=100|300"),
               InvalidArgument);  // alternatives only via expand_request
  EXPECT_THROW(CanonicalSpec::parse("loads=2,3\nseeds=xyz"), InvalidArgument);
  // A range whose exclusive end first + count passes 2^64 - 1 wraps; the
  // last seed itself stays legal.
  const std::string base = "loads=2,3\nprotocol=wait-for-singleton-LE\n";
  EXPECT_THROW(CanonicalSpec::parse(base + "seeds=18446744073709551615+2"),
               InvalidArgument);
  EXPECT_EQ(CanonicalSpec::parse(base + "seeds=18446744073709551614+1")
                .seeds.first,
            18446744073709551614u);
}

TEST(CanonicalSpec, IntegerKeysRejectValuesOutsideTheIntRange) {
  // Every integer key narrows to int once, with a range check: a value
  // that wrapped would parse as (and hash like) another spec — rounds=2^32+1
  // as rounds=1 — and rsbd would serve that spec's cached rows.
  const std::string base = "protocol=wait-for-singleton-LE\n";
  const char* wrapping[] = {
      "loads=2,3\nrounds=4294967297",
      "loads=4294967298,3",
      "loads=2,3\nport-policy=fixed\nports=4294967297",
      "loads=2,3\nfault-crashes=4294967297",
      "loads=2,3\nfault-window=-4294967295",
      "loads=2,3\nbatch=4294967312",
      "loads=2,3\nsched=random-delay(4294967299)",
      "loads=2,3\nsched=starve{4294967296}(2)",
      "loads=2,3\nrounds=99999999999999999999",
  };
  for (const char* text : wrapping) {
    try {
      CanonicalSpec::parse(base + text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << text << ": " << e.what();
    }
  }
  // The int extremes themselves are in range.
  EXPECT_EQ(CanonicalSpec::parse(base + "loads=2,3\nrounds=2147483647").rounds,
            2147483647);
  EXPECT_THROW(CanonicalSpec::parse(base + "loads=2,3\nrounds=2147483648"),
               InvalidArgument);
}

TEST(CanonicalSpec, LoadsTotalAboveThePartyBoundIsANamedReject) {
  // Regression: parse accepted any loads list and to_experiment allocated
  // per party, so one short submit (loads=2000000000) threw std::bad_alloc
  // inside rsbd. The party total is bounded at parse, before allocating.
  const std::string base = "protocol=wait-for-singleton-LE\n";
  EXPECT_EQ(CanonicalSpec::parse(base + "loads=2048,2048").loads,
            (std::vector<int>{2048, 2048}));
  std::string ones = "loads=1";
  for (int party = 1; party < kMaxParties; ++party) ones += ",1";
  EXPECT_EQ(CanonicalSpec::parse(base + ones).loads.size(),
            static_cast<std::size_t>(kMaxParties));
  const std::string over[] = {
      "loads=2000000000",
      "loads=100000000",
      "loads=2147483647,2147483647",  // an int sum would wrap
      "loads=" + std::to_string(kMaxParties) + ",1",
      ones + ",1",
  };
  for (const std::string& text : over) {
    try {
      CanonicalSpec::parse(base + text);
      ADD_FAILURE() << "accepted: " << text.substr(0, 40);
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "exceeds the party bound " + std::to_string(kMaxParties)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CanonicalSpec, RunWorkJustOverTwoToTheTwentiethIsANamedReject) {
  // The per-run work bound is 2^20: at 2^24 one run of loads 2,2,2,2 could
  // keep half a gigabyte of knowledge store. A spec exactly at 2^20 is
  // admitted on either model; one round more is a reject naming the bound.
  const auto check = [](const std::string& text) {
    CanonicalSpec::parse(text + "\nprotocol=wait-for-singleton-LE")
        .check_run_work();
  };
  const std::string blackboard = "loads=2,2,2,2\nrounds=";
  const std::string message =
      "model=message-passing\nloads=1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1\n"
      "rounds=";
  EXPECT_NO_THROW(check(blackboard + "131072"));  // 131072 x 8 = 2^20
  EXPECT_NO_THROW(check(message + "4369"));       // 4369 x 16 x 15
  for (const auto& [text, work] :
       {std::pair{blackboard + "131073", "1048584"},
        std::pair{message + "4370", "1048800"}}) {
    try {
      check(text);
      ADD_FAILURE() << "admitted: " << text;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(" = ") + work +
                                           " exceeds the work bound 1048576"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CanonicalSpec, AdmittedClassSplitSpecsRunInPolynomialTime) {
  // Regression: wait-for-class-split-LE(m) looked for classes of total
  // size m by a depth-first search over subsets of classes, once per party
  // per round. Twenty classes of size 2 never reach an odd m, so the search
  // enumerated subsets: this admitted spec (1,600 party-rounds, far under
  // kMaxRunWork) ran about 8 s, doubling with every added source. The rule
  // now reads a table of the sums each suffix of classes reaches.
  std::string loads = "loads=2";
  for (int source = 1; source < 20; ++source) loads += ",2";
  const CanonicalSpec spec = CanonicalSpec::parse(
      loads + "\nprotocol=wait-for-class-split-LE(21)\nrounds=40\nseeds=1+1");
  spec.check_run_work();
  Engine engine;
  const auto start = std::chrono::steady_clock::now();
  const RunStats stats = engine.run_batch(spec.to_experiment());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(stats.terminated, 0u);  // every class stays even
  EXPECT_LT(elapsed.count(), 1.0);
}

TEST(CanonicalSpec, ToExperimentResolvesAndValidates) {
  const CanonicalSpec good = CanonicalSpec::parse(
      "loads=2,3\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "seeds=1+10");
  const Experiment experiment = good.to_experiment();
  EXPECT_EQ(experiment.seeds.count, 10u);
  const CanonicalSpec unknown = CanonicalSpec::parse(
      "loads=2,3\nprotocol=no-such-protocol");
  EXPECT_THROW(unknown.to_experiment(), UnknownName);
}

TEST(CanonicalSpec, NonCanonicalRegistrySpellingsAreNamedRejects) {
  // Regression: each registry parsed its own spec grammar, so these
  // spellings resolved to the same protocol, task or topology as their
  // canonical forms yet hashed apart from them — two cache shards for one
  // ensemble. Each is a named reject that quotes the canonical spelling.
  const std::string graph =
      "model=message-passing\nloads=1,1,1,1,1,1,1,1\nagents=luby-mis\n"
      "task=mis\n";
  const struct {
    std::string text;
    std::string canonical;
  } cases[] = {
      {"loads=2,3\nprotocol=wait-for-singleton-LE()\ntask=leader-election",
       "'wait-for-singleton-LE'"},
      {"loads=2,3\nprotocol=wait-for-class-split-LE(02)\n"
       "task=m-leader-election(2)",
       "'wait-for-class-split-LE(2)'"},
      {"loads=2,3\nprotocol=wait-for-singleton-LE\n"
       "task=m-leader-election(002)",
       "'m-leader-election(2)'"},
      {graph + "topology=ring()", "'ring'"},
      {graph + "topology=d-regular(03)", "'d-regular(3)'"},
  };
  for (const auto& c : cases) {
    const CanonicalSpec spec = CanonicalSpec::parse(c.text);
    try {
      spec.to_experiment();
      ADD_FAILURE() << "accepted: " << c.text << "\n(hash "
                    << spec.hash_hex() << ")";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(c.canonical), std::string::npos)
          << c.text << ": " << e.what();
    }
  }
}

TEST(ExpandRequest, CartesianProductInSortedKeyOrder) {
  const std::vector<SpecPoint> points = expand_request(
      "loads=2,3|3,3\nprotocol=wait-for-singleton-LE\nrounds=100|300\n"
      "seeds=0+10");
  // Axes in sorted key order (loads before rounds), first axis slowest.
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].label, "loads=2,3 rounds=100");
  EXPECT_EQ(points[1].label, "loads=2,3 rounds=300");
  EXPECT_EQ(points[2].label, "loads=3,3 rounds=100");
  EXPECT_EQ(points[3].label, "loads=3,3 rounds=300");
  for (const SpecPoint& point : points) {
    EXPECT_EQ(point.spec.seeds.count, 10u);
  }
  EXPECT_NE(points[0].spec.hash(), points[1].spec.hash());
}

TEST(ExpandRequest, SinglePointHasNoLabelAndBoundIsEnforced) {
  const std::vector<SpecPoint> single =
      expand_request("loads=2,3\nprotocol=wait-for-singleton-LE");
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].label, "");
  EXPECT_THROW(
      expand_request("loads=2,3\nprotocol=wait-for-singleton-LE\n"
                     "rounds=1|2|3|4|5",
                     4),
      InvalidArgument);
}

// ------------------------------------------------------------- golden

// Example spec-string arguments for parametric registry entries. The
// assertion below fails when a new protocol or task is registered without
// a golden entry, so the fixture always covers the full vocabulary.
const std::map<std::string, std::string>& protocol_examples() {
  static const std::map<std::string, std::string> examples = {
      {"blackboard-unique-string-LE", "blackboard-unique-string-LE"},
      {"wait-for-singleton-LE", "wait-for-singleton-LE"},
      {"wait-for-class-split-LE", "wait-for-class-split-LE(2)"},
  };
  return examples;
}

const std::map<std::string, std::string>& task_examples() {
  static const std::map<std::string, std::string> examples = {
      {"leader-election", "leader-election"},
      {"m-leader-election", "m-leader-election(2)"},
      {"weak-symmetry-breaking", "weak-symmetry-breaking"},
      {"matching", "matching"},
      {"t-resilient-leader-election", "t-resilient-leader-election(1)"},
      {"t-resilient-two-leader", "t-resilient-two-leader(1)"},
      {"t-resilient-m-leader-election", "t-resilient-m-leader-election(2,1)"},
      {"t-resilient-matching", "t-resilient-matching(1)"},
  };
  return examples;
}

const std::map<std::string, std::string>& topology_examples() {
  static const std::map<std::string, std::string> examples = {
      {"clique", "clique"},
      {"ring", "ring"},
      {"path", "path"},
      {"tree", "tree"},
      {"d-regular", "d-regular(3)"},
      {"erdos-renyi", "erdos-renyi(3)"},
      {"power-law", "power-law(2)"},
  };
  return examples;
}

const std::map<std::string, std::string>& graph_task_examples() {
  static const std::map<std::string, std::string> examples = {
      {"mis", "mis"},
      {"coloring", "coloring"},
      {"2-ruling-set", "2-ruling-set"},
  };
  return examples;
}

TEST(CanonicalSpecGolden, EveryRegistrySpecHasAPinnedFormAndHash) {
  std::string report;
  const auto emit = [&report](const std::string& title,
                              const std::string& text) {
    const CanonicalSpec spec = CanonicalSpec::parse(text);
    report += "== " + title + "\n";
    report += spec.canonical_text();
    report += "hash " + spec.hash_hex() + "\n\n";
  };

  for (const std::string& name : ProtocolRegistry::global().names()) {
    const auto it = protocol_examples().find(name);
    ASSERT_NE(it, protocol_examples().end())
        << "protocol '" << name
        << "' has no golden example; add one to protocol_examples()";
    emit("protocol " + name,
         "loads=2,3\nprotocol=" + it->second + "\ntask=leader-election");
  }
  for (const std::string& name : TaskRegistry::global().names()) {
    const auto it = task_examples().find(name);
    ASSERT_NE(it, task_examples().end())
        << "task '" << name
        << "' has no golden example; add one to task_examples()";
    emit("task " + name,
         "loads=2,3\nprotocol=wait-for-singleton-LE\ntask=" + it->second);
  }
  // A fully-loaded message-passing spec: every non-default knob live.
  emit("full message-passing",
       "model=message-passing\nloads=2,2\nprotocol=wait-for-singleton-LE\n"
       "task=leader-election\nport-policy=random-per-run\nport-seed=42\n"
       "variant=literal\nfault-crashes=1\nfault-window=4\nfault-seed=7\n"
       "sched=random-delay(3)\nsched-seed=11\nrounds=64");
  // The batch knob canonicalizes away entirely: this block must equal the
  // plain leader-election spec's, hash included.
  emit("batched execution knob",
       "batch=16\nloads=2,3\nprotocol=wait-for-singleton-LE\n"
       "task=leader-election");
  // One section per topology generator, agent backend, graph task bound to
  // the instance. The clique section canonicalizes with no topology= line
  // at all — the knob normalizes away at the default wiring.
  for (const std::string& name : graph::TopologyRegistry::global().names()) {
    const auto it = topology_examples().find(name);
    ASSERT_NE(it, topology_examples().end())
        << "topology '" << name
        << "' has no golden example; add one to topology_examples()";
    emit("topology " + name,
         "model=message-passing\nloads=1,1,1,1,1,1,1,1\nagents=luby-mis\n"
         "task=mis\ntopology=" +
             it->second);
  }
  for (const std::string& name : graph::GraphTaskRegistry::global().names()) {
    const auto it = graph_task_examples().find(name);
    ASSERT_NE(it, graph_task_examples().end())
        << "graph task '" << name
        << "' has no golden example; add one to graph_task_examples()";
    emit("graph task " + name,
         "model=message-passing\nloads=1,1,1,1,1,1,1,1\nagents=luby-mis\n"
         "task=" +
             it->second + "\ntopology=ring");
  }

  rsb::testing::expect_matches_golden(report, "canonical_specs.txt");
}

TEST(CanonicalSpecGolden, EveryRegistryDescribeLineIsPinned) {
  // The five vocabularies a spec can name, sectioned as `rsbctl run
  // --list` prints them: a registry change that moves a name, an arity
  // slot or a help line shows up here byte for byte.
  std::string listing;
  const auto section = [&listing](const std::string& title,
                                  const std::vector<std::string>& lines) {
    listing += title + ":\n";
    for (const std::string& line : lines) listing += "  " + line + "\n";
  };
  section("protocols", ProtocolRegistry::global().describe());
  section("tasks", TaskRegistry::global().describe());
  section("agents", graph::AgentRegistry::global().describe());
  section("graph tasks (need topology=)",
          graph::GraphTaskRegistry::global().describe());
  section("topologies", graph::TopologyRegistry::global().describe());
  rsb::testing::expect_matches_golden(listing, "registry_describe.txt");
}

// ---------------------------------------------------- mutation corpus

/// The spec text of every golden case: the lines between its `== title`
/// header and its `hash` line.
std::vector<std::string> golden_inputs() {
  const std::optional<std::string> fixture = rsb::testing::read_file(
      rsb::testing::golden_path("canonical_specs.txt"));
  std::vector<std::string> inputs;
  if (!fixture.has_value()) return inputs;
  std::istringstream lines(*fixture);
  std::string line;
  std::optional<std::string> current;
  while (std::getline(lines, line)) {
    if (line.rfind("== ", 0) == 0) {
      current = std::string();
    } else if (line.rfind("hash ", 0) == 0 && current.has_value()) {
      inputs.push_back(*current);
      current.reset();
    } else if (current.has_value()) {
      *current += line + "\n";
    }
  }
  return inputs;
}

/// One mutation of `text`, drawn from `rng`: a byte replaced by one of the
/// format's structural bytes, a deleted byte, a duplicated span, a
/// truncation, or an inserted digit run (long enough to push a load past
/// the party bound or an int key out of range).
std::string mutate(std::string text, std::mt19937_64& rng) {
  static constexpr char kStructural[] = "|=,();#+-\n";
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  switch (rng() % 5) {
    case 0:
      if (!text.empty()) {
        text[below(text.size())] = kStructural[below(sizeof(kStructural) - 1)];
      }
      break;
    case 1:
      if (!text.empty()) text.erase(below(text.size()), 1);
      break;
    case 2: {
      const std::size_t from = below(text.size());
      text.insert(from, text.substr(from, 1 + below(16)));
      break;
    }
    case 3:
      text.resize(below(text.size()));
      break;
    default: {
      std::string digits(4 + below(9), '0');
      for (char& digit : digits) digit = static_cast<char>('0' + below(10));
      text.insert(below(text.size() + 1), digits);
    }
  }
  return text;
}

TEST(ParserMutationCorpus, EveryMutantIsAValueOrANamedError) {
  const std::vector<std::string> inputs = golden_inputs();
  ASSERT_EQ(inputs.size(), 23u);
  constexpr int kMutantsPerInput = 300;
  constexpr std::size_t kMaxPoints = 64;
  std::mt19937_64 rng(0x5eedc0de);
  int party_bound_rejects = 0;
  const auto expect_value_or_error = [&](const char* stage,
                                         const std::string& input,
                                         const auto& body) {
    try {
      body();
    } catch (const Error& e) {
      if (std::string(e.what()).find("party bound") != std::string::npos) {
        ++party_bound_rejects;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << stage << " threw a non-rsb exception: " << e.what()
                    << "\ninput: " << input;
    } catch (...) {
      ADD_FAILURE() << stage << " threw a non-exception\ninput: " << input;
    }
  };
  for (const std::string& input : inputs) {
    for (int m = 0; m < kMutantsPerInput; ++m) {
      std::string mutant = mutate(input, rng);
      for (int extra = static_cast<int>(rng() % 3); extra > 0; --extra) {
        mutant = mutate(std::move(mutant), rng);
      }
      expect_value_or_error("spec", mutant, [&] {
        for (const SpecPoint& point : expand_request(mutant, kMaxPoints)) {
          (void)point.spec.canonical_text();
          (void)point.spec.hash();
          (void)point.spec.to_experiment();
        }
      });
      const std::string request = mutate(submit_request(mutant), rng);
      expect_value_or_error("json", request,
                            [&] { (void)json::Value::parse(request); });
    }
  }
  // The digit runs must reach the party bound, or the corpus would not
  // cover the oversized-loads path.
  EXPECT_GT(party_bound_rejects, 0);
}

}  // namespace
}  // namespace rsb::service
