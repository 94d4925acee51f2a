// Deterministic pseudo-random number generation.
//
// The library never uses std::random_device or global state: every stochastic
// component (randomness sources, Monte-Carlo estimators, protocol executions)
// takes an explicit seed so that all experiments are reproducible bit-for-bit.
//
// Two engines are provided:
//  * SplitMix64 — tiny, used for seeding and cheap hashing-style streams.
//  * Xoshiro256StarStar — the main engine; passes BigCrush, 256-bit state.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/hash.hpp"

namespace rsb {

/// SplitMix64: a 64-bit state PRNG mainly used to expand seeds.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** by Blackman & Vigna; public-domain reference algorithm.
/// UniformRandomBitGenerator-compatible so it can drive <random>
/// distributions when convenient.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by expanding `seed` through SplitMix64, as
  /// recommended by the xoshiro authors.
  explicit Xoshiro256StarStar(
      std::uint64_t seed = 0xdeadbeefcafef00dULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
    // All-zero state is a fixed point of xoshiro; SplitMix64 cannot emit
    // four consecutive zeros from any seed, so the state is always valid.
  }

  // The engine, its seeding and bounded draws are defined here, in the
  // header: a sweep seeds one engine per source per run and draws one
  // word per source per round, so an out-of-line call would cost as much
  // as the draw itself.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  std::uint64_t operator()() noexcept { return next(); }

  /// A single uniform bit.
  bool next_bit() noexcept { return (next() >> 63) != 0; }

  /// Uniform integer in [0, bound). Uses rejection sampling; unbiased.
  /// bound must be positive.
  std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire-style rejection: draw until the draw falls in the largest
    // multiple of `bound` that fits in 64 bits, i.e. at or above the
    // threshold 2^64 mod bound. That threshold is below `bound`, so a draw
    // at or above `bound` is accepted without dividing for it.
    for (;;) {
      const std::uint64_t r = next();
      if (r >= bound || r >= (0 - bound) % bound) return r % bound;
    }
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept;

  /// Equivalent to the xoshiro jump() function: advances the stream by 2^128
  /// steps, useful to derive non-overlapping parallel streams.
  void jump() noexcept;

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// Derives a child seed from a parent seed and a stream index. Used to give
/// each randomness source / party / trial its own independent stream.
inline std::uint64_t derive_seed(std::uint64_t parent,
                                 std::uint64_t stream) noexcept {
  return mix64(hash_combine(mix64(parent), stream + 1));
}

}  // namespace rsb
