#include "mpc/beaver.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mpc/circuit.h"

namespace eppi::mpc {
namespace {

// Triple bit i of one share buffer; the test plays the dealer and every
// party, so opening is legitimate.
bool bit(const std::vector<eppi::SecretU64>& words, std::uint64_t i) {
  return ((words[i / 64].reveal() >> (i % 64)) & 1) != 0;
}

// Packed bit vectors are lane words (mpc/circuit.h): bit i in bit i % 64
// of word i / 64, read back one lane at a time with take_lanes.
TEST(PackedBitsTest, SetGetRoundTrip) {
  std::vector<std::uint64_t> buf(lane_words(70), 0);
  for (const std::uint64_t i : {0u, 7u, 8u, 19u, 64u, 69u}) {
    buf[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  const auto get = [&](std::size_t i) { return take_lanes(buf, i, 1)[0]; };
  EXPECT_EQ(get(0), 1u);
  EXPECT_EQ(get(1), 0u);
  EXPECT_EQ(get(7), 1u);
  EXPECT_EQ(get(8), 1u);
  EXPECT_EQ(get(19), 1u);
  EXPECT_EQ(get(63), 0u);
  EXPECT_EQ(get(64), 1u);
  EXPECT_EQ(get(69), 1u);
  buf[8 / 64] &= ~(std::uint64_t{1} << 8);
  EXPECT_EQ(get(8), 0u);
  EXPECT_EQ(get(70), 0u);  // past the end reads as zero
}

TEST(PackedBitsTest, PackedSize) {
  EXPECT_EQ(lane_words(0), 0u);
  EXPECT_EQ(lane_words(1), 1u);
  EXPECT_EQ(lane_words(64), 1u);
  EXPECT_EQ(lane_words(65), 2u);
  EXPECT_EQ(tail_mask(64), ~std::uint64_t{0});
  EXPECT_EQ(tail_mask(65), 1u);
  EXPECT_EQ(tail_mask(70), 0x3Fu);
}

class TripleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TripleSweep, TriplesSatisfyBeaverRelation) {
  const std::size_t n_parties = GetParam();
  eppi::Rng rng(n_parties);
  constexpr std::uint64_t kCount = 500;
  const auto shares = deal_triples(n_parties, kCount, rng);
  ASSERT_EQ(shares.size(), n_parties);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    bool a = false;
    bool b = false;
    bool c = false;
    for (const auto& s : shares) {
      a ^= bit(s.a, i);
      b ^= bit(s.b, i);
      c ^= bit(s.c, i);
    }
    ASSERT_EQ(c, a && b) << "triple " << i;
  }
}

TEST_P(TripleSweep, TripleBitsAreBalanced) {
  const std::size_t n_parties = GetParam();
  eppi::Rng rng(n_parties + 100);
  constexpr std::uint64_t kCount = 20000;
  const auto shares = deal_triples(n_parties, kCount, rng);
  std::uint64_t a_ones = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    bool a = false;
    for (const auto& s : shares) a ^= bit(s.a, i);
    a_ones += a ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(a_ones) / kCount, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Parties, TripleSweep, ::testing::Values(2, 3, 5, 8));

TEST(TripleTest, ZeroTriplesProduceEmptyShares) {
  eppi::Rng rng(1);
  const auto shares = deal_triples(3, 0, rng);
  ASSERT_EQ(shares.size(), 3u);
  for (const auto& s : shares) EXPECT_EQ(s.count, 0u);
}

}  // namespace
}  // namespace eppi::mpc
