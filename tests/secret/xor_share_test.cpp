#include "secret/xor_share.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace eppi::secret {
namespace {

TEST(XorShareTest, BitRoundTrip) {
  eppi::Rng rng(1);
  for (const bool value : {false, true}) {
    for (const std::size_t n : {1u, 2u, 3u, 8u}) {
      for (int trial = 0; trial < 50; ++trial) {
        const auto shares = split_xor_bit(value, n, rng);
        ASSERT_EQ(shares.size(), n);
        EXPECT_EQ(reconstruct_xor_bit(shares), value);
      }
    }
  }
}

TEST(XorShareTest, ReconstructBitApi) {
  const std::vector<SecretBit> three{SecretBit(true), SecretBit(false),
                                     SecretBit(true)};
  const std::vector<SecretBit> one{SecretBit(true)};
  EXPECT_EQ(reconstruct_xor_bit(three), false);
  EXPECT_EQ(reconstruct_xor_bit(one), true);
  EXPECT_THROW(reconstruct_xor_bit({}), eppi::ConfigError);
}

TEST(XorShareTest, SingleShareIsValue) {
  eppi::Rng rng(3);
  const auto shares = split_xor_bit(true, 1, rng);
  EXPECT_TRUE(shares[0].reveal());
}

TEST(XorShareTest, PartialSharesAreBalanced) {
  eppi::Rng rng(4);
  int ones = 0;
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    ones += split_xor_bit(true, 3, rng)[0].reveal() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kTrials, 0.5, 0.02);
}

std::vector<SecretU64> seal(const std::vector<std::uint64_t>& words) {
  return std::vector<SecretU64>(words.begin(), words.end());
}

TEST(XorSharePackedTest, RoundTrip) {
  eppi::Rng rng(5);
  const std::vector<std::uint64_t> words{0xDEADBEEFCAFEF00Dull, 0x0123456789ull};
  for (const std::size_t n : {1u, 2u, 5u}) {
    const auto shares = split_xor_packed(seal(words), 128, n, rng);
    ASSERT_EQ(shares.size(), n);
    EXPECT_EQ(reconstruct_xor_packed(shares), words);
  }
}

TEST(XorSharePackedTest, TailBitsMasked) {
  eppi::Rng rng(6);
  const std::vector<std::uint64_t> words{~0ull, ~0ull};  // 75 valid bits
  const auto shares = split_xor_packed(seal(words), 75, 3, rng);
  const auto back = reconstruct_xor_packed(shares);
  EXPECT_EQ(back[0], ~0ull);
  EXPECT_EQ(back[1], 0x7FFull);  // tail stays zero
  for (const auto& share : shares) {
    // shares carry no stray tail bits
    EXPECT_EQ(share[1].reveal() & ~0x7FFull, 0u);
  }
}

TEST(XorSharePackedTest, Validates) {
  eppi::Rng rng(7);
  const std::vector<std::uint64_t> words{0x01};
  EXPECT_THROW(split_xor_packed(seal(words), 65, 2, rng), eppi::ConfigError);
  EXPECT_THROW(split_xor_packed(seal(words), 8, 0, rng), eppi::ConfigError);
  EXPECT_THROW(reconstruct_xor_packed({}), eppi::ConfigError);
  std::vector<std::vector<SecretU64>> ragged{seal({1, 2}), seal({3})};
  EXPECT_THROW(reconstruct_xor_packed(ragged), eppi::ConfigError);
}

}  // namespace
}  // namespace eppi::secret
