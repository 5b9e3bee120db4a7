#include "secret/mod_ring.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace eppi::secret {
namespace {

TEST(ModRingTest, RejectsTinyModulus) {
  EXPECT_THROW(ModRing(0), eppi::ConfigError);
  EXPECT_THROW(ModRing(1), eppi::ConfigError);
}

TEST(ModRingTest, BasicArithmetic) {
  const ModRing ring(5);
  EXPECT_EQ(ring.add(3, 4), 2u);
  EXPECT_EQ(ring.sub(1, 3), 3u);
  EXPECT_EQ(ring.neg(2), 3u);
  EXPECT_EQ(ring.neg(0), 0u);
  EXPECT_EQ(ring.reduce(12), 2u);
}

TEST(ModRingTest, PowerOfTwoDetection) {
  EXPECT_TRUE(ModRing(8).is_power_of_two());
  EXPECT_FALSE(ModRing(5).is_power_of_two());
  EXPECT_TRUE(ModRing(2).is_power_of_two());
}

TEST(ModRingTest, BitWidth) {
  EXPECT_EQ(ModRing(2).bit_width(), 1u);
  EXPECT_EQ(ModRing(5).bit_width(), 3u);  // residues up to 4
  EXPECT_EQ(ModRing(8).bit_width(), 3u);
  EXPECT_EQ(ModRing(256).bit_width(), 8u);
}

TEST(ModRingTest, PowerOfTwoForHoldsMaxSum) {
  for (const std::uint64_t max_sum : {0ull, 1ull, 5ull, 7ull, 8ull, 100ull}) {
    const ModRing ring = ModRing::power_of_two_for(max_sum);
    EXPECT_TRUE(ring.is_power_of_two());
    EXPECT_GT(ring.q(), max_sum);
    // Minimality: half the modulus would not suffice (except q == 2).
    if (ring.q() > 2) {
      EXPECT_LE(ring.q() / 2, max_sum);
    }
  }
}

class ModRingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModRingSweep, AddSubNegAreConsistent) {
  const ModRing ring(GetParam());
  const std::uint64_t q = ring.q();
  for (std::uint64_t a = 0; a < std::min<std::uint64_t>(q, 16); ++a) {
    for (std::uint64_t b = 0; b < std::min<std::uint64_t>(q, 16); ++b) {
      const std::uint64_t sum = ring.add(a, b);
      EXPECT_EQ(sum, (a + b) % q);
      EXPECT_EQ(ring.sub(sum, b), a % q);
      EXPECT_EQ(ring.add(a, ring.neg(a)), 0u);
    }
  }
}

// add/sub against the 128-bit reference: residue pairs at the edges of the
// ring (where the compare-and-subtract path would wrap if it formed a + b
// for q > 2^63) and random ones, plus non-residues, which take the wide
// path.
TEST_P(ModRingSweep, FastPathMatchesWideReference) {
  const ModRing ring(GetParam());
  const std::uint64_t q = ring.q();
  using Wide = unsigned __int128;
  const auto ref_add = [q](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>((Wide{a} + b) % q);
  };
  const auto ref_sub = [q](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>((Wide{a % q} + q - b % q) % q);
  };
  std::vector<std::uint64_t> values{0, 1, q / 2, q - 2, q - 1, q, q + 1,
                                    2 * q - 1, ~std::uint64_t{0},
                                    ~std::uint64_t{0} - 1};
  eppi::Rng rng(GetParam());
  for (int k = 0; k < 64; ++k) values.push_back(rng.next_below(q));
  for (int k = 0; k < 16; ++k) values.push_back(rng.next());
  for (const std::uint64_t a : values) {
    for (const std::uint64_t b : values) {
      EXPECT_EQ(ring.add(a, b), ref_add(a, b)) << a << " + " << b;
      EXPECT_EQ(ring.sub(a, b), ref_sub(a, b)) << a << " - " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, ModRingSweep,
    ::testing::Values(2, 3, 5, 8, 16, 97, 1024,
                      (std::uint64_t{1} << 32) + 15, std::uint64_t{1} << 63,
                      ~std::uint64_t{0} - 58));

}  // namespace
}  // namespace eppi::secret
