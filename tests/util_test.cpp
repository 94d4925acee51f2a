// Unit and property tests for the util substrate: RNG determinism,
// bit strings, numeric helpers, partition enumeration, the intern index
// and the JSON string escaper.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/bitstring.hpp"
#include "util/error.hpp"
#include "util/intern_index.hpp"
#include "util/json_string.hpp"
#include "util/numeric.hpp"
#include "util/partitions.hpp"
#include "util/rng.hpp"

namespace rsb {
namespace {

// ---------------------------------------------------------------- RNG

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
  Xoshiro256StarStar a(7), b(7), c(8);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs = true;
  }
  EXPECT_TRUE(differs) << "different seeds must give different streams";
}

TEST(Rng, BelowIsInRangeAndHitsAllValues) {
  Xoshiro256StarStar rng(123);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Xoshiro256StarStar rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BitsAreRoughlyBalanced) {
  Xoshiro256StarStar rng(5);
  int ones = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) ones += rng.next_bit() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.03);
}

TEST(Rng, DerivedSeedsDiffer) {
  const std::uint64_t parent = 99;
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 100; ++stream) {
    seeds.insert(derive_seed(parent, stream));
  }
  EXPECT_EQ(seeds.size(), 100u);
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(Rng, StreamsMatchTheirKnownAnswers) {
  // Every run's coins, wirings and crash draws come out of these engines,
  // so their first outputs are pinned: a changed stream would move every
  // recorded outcome while each determinism law still held.
  SplitMix64 splitmix(0);
  EXPECT_EQ(splitmix.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix.next(), 0x06c45d188009454fULL);
  SplitMix64 splitmix42(42);
  EXPECT_EQ(splitmix42.next(), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(splitmix42.next(), 0x28efe333b266f103ULL);

  Xoshiro256StarStar zero(0);
  EXPECT_EQ(zero.next(), 0x99ec5f36cb75f2b4ULL);
  EXPECT_EQ(zero.next(), 0xbf6e1f784956452aULL);
  EXPECT_EQ(zero.next(), 0x1a5f849d4933e6e0ULL);
  EXPECT_EQ(zero.next(), 0x6aa594f1262d2d2cULL);
  Xoshiro256StarStar seven(7);
  EXPECT_EQ(seven.next(), 0xb358faf74ef9765aULL);
  EXPECT_EQ(seven.next(), 0x475c3d964f482cd2ULL);
  Xoshiro256StarStar unseeded;
  EXPECT_EQ(unseeded.next(), 0x9e32cfb5bb93eebbULL);

  Xoshiro256StarStar coins(5);
  std::string bits;
  for (int i = 0; i < 32; ++i) bits += coins.next_bit() ? '1' : '0';
  EXPECT_EQ(bits, "01111111001001111101000111001110");

  // below() at bounds 1, 2, 3, 7, 1000 and 2^63 + 1 (whose rejection
  // threshold turns away about half of all draws).
  const std::map<std::uint64_t, std::vector<std::uint64_t>> below = {
      {1, {0, 0, 0, 0, 0, 0}},
      {2, {1, 0, 1, 0, 0, 0}},
      {3, {0, 1, 2, 2, 1, 1}},
      {7, {3, 6, 1, 3, 5, 5}},
      {1000, {497, 998, 367, 30, 94, 554}},
      {(1ULL << 63) + 1,
       {8662079903856676189ULL, 9221661163914864745ULL,
        2889633482332314196ULL, 4815195379066527699ULL,
        2807879157991487417ULL, 4899993697631029324ULL}},
  };
  for (const auto& [bound, expected] : below) {
    Xoshiro256StarStar rng(123);
    std::vector<std::uint64_t> draws;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      draws.push_back(rng.below(bound));
    }
    EXPECT_EQ(draws, expected) << "bound " << bound;
  }

  EXPECT_EQ(derive_seed(0, 0), 0x2069820c2c5aef07ULL);
  EXPECT_EQ(derive_seed(0, 1), 0x1af6b4b4cf40b74cULL);
  EXPECT_EQ(derive_seed(0, 5), 0x5f3c99a16b647d12ULL);
  EXPECT_EQ(derive_seed(1, 0), 0x3666189aac00c568ULL);
  EXPECT_EQ(derive_seed(1, 1), 0x5067d9e74f48ad7fULL);
  EXPECT_EQ(derive_seed(99, 5), 0x30a27c2fd1195abdULL);

  Xoshiro256StarStar unit(9);
  EXPECT_EQ(unit.uniform01(), 0.0025834396857136177);
  EXPECT_EQ(unit.uniform01(), 0.25148937241585745);
  Xoshiro256StarStar jumped(3);
  jumped.jump();
  EXPECT_EQ(jumped.next(), 0xb085d75f3605a649ULL);
}

TEST(Rng, JumpChangesStream) {
  Xoshiro256StarStar a(3), b(3);
  b.jump();
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs = differs || (a.next() != b.next());
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------- BitString

TEST(BitString, EmptyStringIsBottom) {
  BitString s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.to_string(), "⊥");
}

TEST(BitString, FromBitsRoundTrip) {
  const BitString s = BitString::from_bits(0b1011, 4);
  EXPECT_EQ(s.to_string(), "1101");  // round-1 bit first (LSB first)
  EXPECT_TRUE(s[0]);
  EXPECT_TRUE(s[1]);
  EXPECT_FALSE(s[2]);
  EXPECT_TRUE(s[3]);
}

TEST(BitString, ParseAndRender) {
  const BitString s = BitString::parse("0101");
  EXPECT_EQ(s.size(), 4);
  EXPECT_EQ(s.to_string(), "0101");
  EXPECT_THROW(BitString::parse("01x"), InvalidArgument);
}

TEST(BitString, BitAtRoundIsOneBased) {
  const BitString s = BitString::parse("011");
  EXPECT_FALSE(s.bit_at_round(1));
  EXPECT_TRUE(s.bit_at_round(2));
  EXPECT_TRUE(s.bit_at_round(3));
  EXPECT_THROW(s.bit_at_round(0), InvalidArgument);
  EXPECT_THROW(s.bit_at_round(4), InvalidArgument);
}

TEST(BitString, PushBackGrowsAcrossWordBoundary) {
  BitString s;
  for (int i = 0; i < 130; ++i) s.push_back(i % 3 == 0);
  EXPECT_EQ(s.size(), 130);
  for (int i = 0; i < 130; ++i) EXPECT_EQ(s[i], i % 3 == 0) << i;
}

TEST(BitString, PrefixMatchesManualTruncation) {
  BitString s;
  for (int i = 0; i < 100; ++i) s.push_back((i * 7) % 5 < 2);
  const BitString p = s.prefix(67);
  EXPECT_EQ(p.size(), 67);
  for (int i = 0; i < 67; ++i) EXPECT_EQ(p[i], s[i]) << i;
  EXPECT_TRUE(p.is_prefix_of(s));
  EXPECT_FALSE(s.is_prefix_of(p));
  EXPECT_THROW(s.prefix(101), InvalidArgument);
}

TEST(BitString, PrefixZeroIsEmpty) {
  const BitString s = BitString::parse("101");
  EXPECT_TRUE(s.prefix(0).empty());
  EXPECT_TRUE(BitString().is_prefix_of(s));
}

TEST(BitString, LexicographicOrdering) {
  EXPECT_LT(BitString::parse("0"), BitString::parse("1"));
  EXPECT_LT(BitString::parse("01"), BitString::parse("10"));
  EXPECT_LT(BitString::parse("0"), BitString::parse("00"));  // prefix first
  EXPECT_EQ(BitString::parse("0101"), BitString::parse("0101"));
  EXPECT_NE(BitString::parse("0101"), BitString::parse("0100"));
}

TEST(BitString, HashDistinguishesLengthAndContent) {
  EXPECT_NE(BitString::parse("0").hash(), BitString::parse("00").hash());
  EXPECT_NE(BitString::parse("01").hash(), BitString::parse("10").hash());
  EXPECT_EQ(BitString::parse("0110").hash(), BitString::parse("0110").hash());
}

// ---------------------------------------------------------------- numeric

TEST(Numeric, GcdOfRange) {
  EXPECT_EQ(gcd_of({}), 0);
  EXPECT_EQ(gcd_of({6}), 6);
  EXPECT_EQ(gcd_of({6, 4}), 2);
  EXPECT_EQ(gcd_of({2, 3}), 1);
  EXPECT_EQ(gcd_of({4, 8, 12}), 4);
  EXPECT_EQ(gcd_of({0, 5}), 5);
  EXPECT_THROW(gcd_of({-1}), InvalidArgument);
}

TEST(Numeric, SubsetSum) {
  EXPECT_TRUE(subset_sums_to({2, 3, 7}, 0));
  EXPECT_TRUE(subset_sums_to({2, 3, 7}, 5));
  EXPECT_TRUE(subset_sums_to({2, 3, 7}, 12));
  EXPECT_FALSE(subset_sums_to({2, 3, 7}, 6));
  EXPECT_FALSE(subset_sums_to({2, 3, 7}, 13));
  EXPECT_FALSE(subset_sums_to({2, 4}, 3));
  EXPECT_THROW(subset_sums_to({0}, 1), InvalidArgument);
}

TEST(Numeric, ReachableSubsetSums) {
  const auto sums = reachable_subset_sums({2, 3});
  EXPECT_EQ(sums, (std::vector<int>{0, 2, 3, 5}));
}

TEST(Numeric, Binomial) {
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(10, 0), 1u);
  EXPECT_EQ(binomial(10, 10), 1u);
  EXPECT_EQ(binomial(4, 7), 0u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
  EXPECT_THROW(binomial(-1, 0), InvalidArgument);
}

TEST(Numeric, PowersAndOverflow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(10, 0), 1u);
  EXPECT_EQ(pow2(0), 1u);
  EXPECT_EQ(pow2(30), 1u << 30);
  EXPECT_THROW(pow2(64), InvalidArgument);
  EXPECT_THROW(ipow(2, 64), InvalidArgument);
}

// ---------------------------------------------------------------- partitions

TEST(Partitions, CountsMatchPartitionFunction) {
  // p(n) for n = 1..10: 1 2 3 5 7 11 15 22 30 42.
  const int expected[] = {1, 2, 3, 5, 7, 11, 15, 22, 30, 42};
  for (int n = 1; n <= 10; ++n) {
    EXPECT_EQ(partitions_of(n).size(), static_cast<std::size_t>(expected[n - 1]))
        << "n=" << n;
  }
}

TEST(Partitions, PartsAreNonIncreasingAndSumToN) {
  for (int n = 1; n <= 8; ++n) {
    for (const auto& p : partitions_of(n)) {
      EXPECT_TRUE(std::is_sorted(p.begin(), p.end(), std::greater<int>()));
      int sum = 0;
      for (int part : p) {
        EXPECT_GE(part, 1);
        sum += part;
      }
      EXPECT_EQ(sum, n);
    }
  }
}

TEST(Partitions, PartitionsIntoKParts) {
  const auto ps = partitions_of_into(6, 2);
  EXPECT_EQ(ps.size(), 3u);  // 5+1, 4+2, 3+3
  for (const auto& p : ps) EXPECT_EQ(p.size(), 2u);
}

TEST(Partitions, CompositionsCountIsBinomial) {
  // #compositions of n into k parts = C(n-1, k-1).
  for (int n = 1; n <= 8; ++n) {
    for (int k = 1; k <= n; ++k) {
      EXPECT_EQ(compositions_of(n, k).size(), binomial(n - 1, k - 1))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Partitions, SetPartitionCountsAreBellNumbers) {
  // B_n for n = 1..7: 1 2 5 15 52 203 877.
  const std::size_t bell[] = {1, 2, 5, 15, 52, 203, 877};
  for (int n = 1; n <= 7; ++n) {
    EXPECT_EQ(set_partitions(n).size(), bell[n - 1]) << "n=" << n;
  }
}

TEST(Partitions, SetPartitionsAreCanonical) {
  for (const auto& blocks : set_partitions(5)) {
    EXPECT_EQ(blocks[0], 0);
    int max_seen = 0;
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      EXPECT_LE(blocks[i], max_seen + 1);
      max_seen = std::max(max_seen, blocks[i]);
    }
  }
}

TEST(Partitions, BlockSizesAndCount) {
  const std::vector<int> blocks = {0, 1, 0, 2, 1, 0};
  EXPECT_EQ(block_count(blocks), 3);
  EXPECT_EQ(block_sizes(blocks), (std::vector<int>{3, 2, 1}));
}

TEST(Partitions, CanonicalBlocksRelabelsByFirstOccurrence) {
  EXPECT_EQ(canonical_blocks({5, 9, 5, 2}), (std::vector<int>{0, 1, 0, 2}));
  EXPECT_EQ(canonical_blocks({7, 7, 7}), (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(canonical_blocks({}), (std::vector<int>{}));
}

// --------------------------------------------------------- intern index

/// Interns `key`, hashing to `h`, into `keys` through `index`; returns its
/// entry number.
std::uint32_t intern(InternIndex& index, std::vector<int>& keys, int key,
                     std::uint64_t h) {
  const std::size_t slot =
      index.find(h, [&](std::uint32_t id) { return keys[id] == key; });
  if (index.at(slot) != InternIndex::kEmptySlot) return index.at(slot);
  keys.push_back(key);
  return index.insert(slot, h, "test id");
}

TEST(InternIndex, NumbersDistinctEntriesInInsertionOrderAcrossGrowthAndReset) {
  // A hash with seven values makes long probe chains, and a thousand
  // entries grow the initial table several times. After reset() the
  // numbering starts again from 0 on a table sized for the last run.
  InternIndex index;
  index.reset();
  std::vector<int> keys;
  for (int pass = 0; pass < 2; ++pass) {
    for (int key = 0; key < 1000; ++key) {
      EXPECT_EQ(intern(index, keys, 3 * key, key % 7),
                static_cast<std::uint32_t>(key));
    }
    for (int key = 999; key >= 0; --key) {
      EXPECT_EQ(intern(index, keys, 3 * key, key % 7),
                static_cast<std::uint32_t>(key));
    }
    EXPECT_EQ(keys.size(), 1000u);
    index.reset();
    keys.clear();
  }
}

TEST(InternIndex, NarrowingPastThirtyTwoBitsNamesTheFieldOnly) {
  EXPECT_EQ(narrow_store_index(kMaxStoreIndex, "payload id"),
            static_cast<std::uint32_t>(kMaxStoreIndex));
  try {
    narrow_store_index(kMaxStoreIndex + 1, "payload size");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("payload size 4294967295"), std::string::npos) << what;
    EXPECT_NE(what.find("32-bit store limit 4294967294"), std::string::npos)
        << what;
    // The index serves the payload arena too: no owner is named but the
    // caller's field.
    EXPECT_EQ(what.find("KnowledgeStore"), std::string::npos) << what;
  }
}

// -------------------------------------------------------- JSON strings

TEST(JsonString, EscapesQuotesBackslashesAndControlBytes) {
  // Two-character escapes for '"', '\\', '\n', '\r' and '\t', six-character
  // ones for the other bytes below 0x20 (NUL included), and every other
  // byte, DEL and UTF-8 included, verbatim.
  const std::string text("a\"b\\c\nd\re\tf\x01g\x1fh\0i\x7f\xc3\xa9", 20);
  std::string out = "x";
  append_json_string(out, text);
  EXPECT_EQ(out,
            "x\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\\u0000i\x7f\xc3\xa9\"");
  out.clear();
  append_json_string(out, "");
  EXPECT_EQ(out, "\"\"");
}

}  // namespace
}  // namespace rsb
