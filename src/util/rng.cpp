#include "util/rng.hpp"

namespace rsb {

double Xoshiro256StarStar::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void Xoshiro256StarStar::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump_word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump_word & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next();
    }
  }
  s_ = {s0, s1, s2, s3};
}

}  // namespace rsb
