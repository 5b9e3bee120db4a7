// Deterministic, seedable random number generation.
//
// All randomized components in this repository (randomized publication,
// identity mixing, secret-share generation, dataset synthesis, attack
// simulation) draw from an explicitly passed Rng so that every experiment is
// reproducible bit-for-bit. The generator is xoshiro256** (public domain,
// Blackman & Vigna), which is fast, has a 256-bit state and passes BigCrush.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace eppi {

class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the 256-bit state from a single 64-bit seed via splitmix64, the
  // recommended seeding procedure for the xoshiro family.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  // UniformRandomBitGenerator interface, usable with <random> distributions.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() noexcept { return next(); }

  // Inline: the λ-coin and share-splitting loops draw once per bit.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0. Uses Lemire's unbiased
  // multiply-shift rejection method.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double next_double() noexcept;

  // Bernoulli trial: true with probability p (p clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  // Derives an independent child generator; used to hand each party /
  // protocol instance its own stream without sharing state across threads.
  Rng fork() noexcept;

  // Fills `out` bytes with random data.
  void fill_bytes(void* out, std::size_t len) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace eppi
