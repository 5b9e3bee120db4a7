#include "core/constructor.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/crc32c.h"
#include "common/error.h"
#include "core/mixing.h"
#include "core/publisher.h"
#include "dataset/synthetic.h"

namespace eppi::core {
namespace {

TEST(CalculateBetasTest, DetectsCommonIdentities) {
  // 10 providers; identity 0 at 9 of them (common for ε=0.5 under basic),
  // identity 1 at 2 (non-common).
  eppi::Rng rng(1);
  const auto net = eppi::dataset::make_network_with_frequencies(
      10, std::vector<std::uint64_t>{9, 2}, rng);
  const std::vector<double> eps{0.5, 0.5};
  ConstructionOptions options;
  options.policy = BetaPolicy::basic();
  // Mixing disabled so the decoy coin cannot push the rare identity to
  // β = 1 (with one common out of two identities, λ would be 1).
  options.enable_mixing = false;
  const auto info = calculate_betas(net.membership, eps, options, rng);
  EXPECT_TRUE(info.is_common[0]);
  EXPECT_FALSE(info.is_common[1]);
  EXPECT_EQ(info.betas[0], 1.0);
  EXPECT_LT(info.betas[1], 1.0);
  EXPECT_DOUBLE_EQ(info.xi, 0.5);
}

TEST(CalculateBetasTest, MixingDisabledKeepsRawBetas) {
  eppi::Rng rng(2);
  const auto net = eppi::dataset::make_network_with_frequencies(
      20, std::vector<std::uint64_t>{19, 3, 3, 3}, rng);
  const std::vector<double> eps(4, 0.9);
  ConstructionOptions options;
  options.policy = BetaPolicy::basic();
  options.enable_mixing = false;
  const auto info = calculate_betas(net.membership, eps, options, rng);
  EXPECT_EQ(info.lambda, 0.0);
  // Without mixing the apparent-common set equals the true common set.
  EXPECT_EQ(info.is_apparent_common, info.is_common);
}

TEST(CalculateBetasTest, MixingCreatesDecoys) {
  // Lots of non-common identities and one high-ε common identity: λ should
  // mix in decoys so the common identity hides.
  eppi::Rng rng(3);
  std::vector<std::uint64_t> freqs(200, 2);
  freqs[0] = 99;  // common
  const auto net =
      eppi::dataset::make_network_with_frequencies(100, freqs, rng);
  std::vector<double> eps(200, 0.8);
  ConstructionOptions options;
  options.policy = BetaPolicy::basic();
  const auto info = calculate_betas(net.membership, eps, options, rng);
  ASSERT_TRUE(info.is_common[0]);
  EXPECT_GT(info.lambda, 0.0);
  std::size_t decoys = 0;
  for (std::size_t j = 1; j < 200; ++j) {
    if (info.is_apparent_common[j]) ++decoys;
  }
  EXPECT_GT(decoys, 0u);
  // Every apparent-common identity must publish with β == 1.
  for (std::size_t j = 0; j < 200; ++j) {
    if (info.is_apparent_common[j]) {
      EXPECT_EQ(info.betas[j], 1.0);
    }
  }
}

TEST(CalculateBetasTest, ValidatesInput) {
  eppi::Rng rng(4);
  const eppi::BitMatrix truth(5, 2);
  const std::vector<double> wrong_count{0.5};
  EXPECT_THROW(calculate_betas(truth, wrong_count, {}, rng),
               eppi::ConfigError);
  const std::vector<double> bad_eps{0.5, 1.5};
  EXPECT_THROW(calculate_betas(truth, bad_eps, {}, rng), eppi::ConfigError);
}

TEST(ConstructCentralizedTest, IndexHasFullRecall) {
  eppi::Rng rng(5);
  eppi::dataset::SyntheticConfig config;
  config.providers = 60;
  config.identities = 40;
  const auto net = eppi::dataset::make_zipf_network(config, rng);
  const auto eps = eppi::dataset::random_epsilons(40, rng);
  const auto result =
      construct_centralized(net.membership, eps, {}, rng);
  EXPECT_TRUE(full_recall(net.membership, result.index.matrix()));
}

TEST(ConstructCentralizedTest, ChernoffMeetsEpsilonBoundsForMost) {
  eppi::Rng rng(6);
  constexpr std::size_t kM = 600;
  constexpr std::size_t kN = 80;
  std::vector<std::uint64_t> freqs(kN);
  for (auto& f : freqs) f = 1 + rng.next_below(30);
  const auto net = eppi::dataset::make_network_with_frequencies(kM, freqs, rng);
  const std::vector<double> eps(kN, 0.5);
  ConstructionOptions options;
  options.policy = BetaPolicy::chernoff(0.9);
  const auto result = construct_centralized(net.membership, eps, options, rng);
  const auto rates =
      false_positive_rates(net.membership, result.index.matrix());
  std::size_t met = 0;
  for (std::size_t j = 0; j < kN; ++j) {
    if (result.info.is_apparent_common[j] || rates[j] >= eps[j]) ++met;
  }
  EXPECT_GE(static_cast<double>(met) / kN, 0.85);
}

TEST(ConstructCentralizedTest, ApparentCommonColumnIsFull) {
  // Identities published with β = 1 must appear at every provider.
  eppi::Rng rng(7);
  const auto net = eppi::dataset::make_network_with_frequencies(
      30, std::vector<std::uint64_t>{29, 2}, rng);
  const std::vector<double> eps{0.5, 0.5};
  ConstructionOptions options;
  options.policy = BetaPolicy::basic();
  const auto result = construct_centralized(net.membership, eps, options, rng);
  ASSERT_TRUE(result.info.is_apparent_common[0]);
  EXPECT_EQ(result.index.matrix().col_count(0), 30u);
}

TEST(ConstructCentralizedTest, CommonFrequencyHiddenFromApparentView) {
  // After mixing, an apparent-common identity's published column is all-1s
  // regardless of its true frequency — the attacker cannot read σ off M'.
  eppi::Rng rng(8);
  std::vector<std::uint64_t> freqs(50, 3);
  freqs[0] = 48;
  const auto net =
      eppi::dataset::make_network_with_frequencies(50, freqs, rng);
  std::vector<double> eps(50, 0.7);
  ConstructionOptions options;
  options.policy = BetaPolicy::basic();
  const auto result = construct_centralized(net.membership, eps, options, rng);
  std::size_t full_columns = 0;
  for (std::size_t j = 0; j < 50; ++j) {
    if (result.info.is_apparent_common[j]) {
      EXPECT_EQ(result.index.matrix().col_count(j), 50u);
      ++full_columns;
    }
  }
  EXPECT_GE(full_columns, 1u);
}

// Golden pin of the centralized constructor: for every policy, three seeds
// and mixing on and off, the CRC32C of the final β vector, the apparent-
// common bits and the published matrix, and ξ and λ exactly. The Rng coin
// path is otherwise only checked statistically, so a changed value here is a
// changed construction (another coin order, another β), not a refactor.
struct CentralizedGolden {
  std::uint64_t seed;
  int policy;  // index into golden_policies()
  bool mixing;
  std::uint32_t betas;
  std::uint32_t apparent;
  std::uint32_t matrix;
  double xi;
  double lambda;
};

std::vector<BetaPolicy> golden_policies() {
  return {BetaPolicy::basic(), BetaPolicy::inc_exp(0.02),
          BetaPolicy::chernoff(0.9), BetaPolicy::exact(0.9)};
}

std::uint32_t crc_of_bytes(const void* data, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  if (size != 0) std::memcpy(bytes.data(), data, size);
  return eppi::crc32c(bytes);
}

CentralizedGolden run_centralized(std::uint64_t seed, int policy,
                                  bool mixing) {
  // m = 40 providers, n = 400 identities: half held by each provider with
  // probability 1/8, the other half with probability k/16 for a k drawn
  // from 1..16, so the policies disagree on which identities are common;
  // ε from {0.05, ..., 0.40} so λ lands inside (0, 1).
  constexpr std::size_t kM = 40;
  constexpr std::size_t kN = 400;
  eppi::Rng rng(seed);
  eppi::BitMatrix truth(kM, kN);
  std::vector<double> eps(kN);
  for (std::size_t j = 0; j < kN; ++j) {
    const std::uint64_t k =
        rng.next_below(2) == 0 ? 2 : 1 + rng.next_below(16);
    for (std::size_t i = 0; i < kM; ++i) {
      if (rng.next_below(16) < k) truth.set(i, j, true);
    }
    eps[j] = 0.05 * static_cast<double>(1 + rng.next_below(8));
  }
  ConstructionOptions options;
  options.policy = golden_policies()[policy];
  options.enable_mixing = mixing;
  const auto result = construct_centralized(truth, eps, options, rng);
  const std::vector<std::uint8_t> apparent(
      result.info.is_apparent_common.begin(),
      result.info.is_apparent_common.end());
  const eppi::BitMatrix& published = result.index.matrix();
  std::vector<std::uint64_t> words;
  for (std::size_t i = 0; i < published.rows(); ++i) {
    words.insert(words.end(), published.row_words(i),
                 published.row_words(i) + published.words_per_row());
  }
  return {seed,
          policy,
          mixing,
          crc_of_bytes(result.info.betas.data(),
                       result.info.betas.size() * sizeof(double)),
          crc_of_bytes(apparent.data(), apparent.size()),
          crc_of_bytes(words.data(), words.size() * sizeof(std::uint64_t)),
          result.info.xi,
          result.info.lambda};
}

TEST(CentralizedGoldenTest, EveryPolicySeedAndMixingIsByteIdentical) {
  const std::vector<CentralizedGolden> golden = {
      {11, 0, false, 0xd665fe22, 0xcf964f7b, 0x6a92bd0c,
       0x1.999999999999ap-2, 0x0p+0},
      {11, 0, true, 0xbdbccea0, 0xbaef3c55, 0xd9907b70,
       0x1.999999999999ap-2, 0x1.fe7b0ff3d87fap-4},
      {11, 1, false, 0x2a27f760, 0x2b577e88, 0x4c22e8b7,
       0x1.999999999999ap-2, 0x0p+0},
      {11, 1, true, 0x13982ced, 0x3b0d0b03, 0x8553f0df,
       0x1.999999999999ap-2, 0x1.08ea59277b8aep-3},
      {11, 2, false, 0x58d07368, 0x398e908c, 0x25b4f949,
       0x1.999999999999ap-2, 0x0p+0},
      {11, 2, true, 0x1a394ced, 0x3657f8b2, 0x9476fb45,
       0x1.999999999999ap-2, 0x1.9d9a4460bac9ep-3},
      {11, 3, false, 0xd9fe2d71, 0xfee58237, 0xad8fdecc,
       0x1.999999999999ap-2, 0x0p+0},
      {11, 3, true, 0x0fd6f9e5, 0x37bbed34, 0x3ba1b9ae,
       0x1.999999999999ap-2, 0x1.c5c8c509b3df4p-4},
      {12, 0, false, 0x03063bd7, 0xda4f5371, 0x25458303,
       0x1.999999999999ap-2, 0x0p+0},
      {12, 0, true, 0xa28ad0d2, 0xe70d8f7a, 0xd847e66f,
       0x1.999999999999ap-2, 0x1.e1e1e1e1e1e2p-4},
      {12, 1, false, 0xb4631e48, 0xda4f5371, 0x7b5c5a72,
       0x1.999999999999ap-2, 0x0p+0},
      {12, 1, true, 0x0c115eb5, 0xe70d8f7a, 0x999a339e,
       0x1.999999999999ap-2, 0x1.e1e1e1e1e1e2p-4},
      {12, 2, false, 0x717e7e40, 0xd3b31786, 0xa9d60e64,
       0x1.999999999999ap-2, 0x0p+0},
      {12, 2, true, 0xab9dbc1c, 0xf1e009ff, 0xb3ed2d2c,
       0x1.999999999999ap-2, 0x1.9d9a4460bac9ep-3},
      {12, 3, false, 0x178e5f54, 0x3aba1325, 0x6d2ed6b8,
       0x1.999999999999ap-2, 0x0p+0},
      {12, 3, true, 0x0e08a4b6, 0x4d35518c, 0xcd695ea5,
       0x1.999999999999ap-2, 0x1.d8761d8761d89p-4},
      {13, 0, false, 0xf17cf5f0, 0xef800f9a, 0xa1da17f8,
       0x1.999999999999ap-2, 0x0p+0},
      {13, 0, true, 0x48acd4c3, 0xbc6a1d9c, 0x9163308d,
       0x1.999999999999ap-2, 0x1.17a586aec7743p-3},
      {13, 1, false, 0xb22bbec5, 0xbbdf74d0, 0xcaf1d565,
       0x1.999999999999ap-2, 0x0p+0},
      {13, 1, true, 0x99a8f2bc, 0x46dd1093, 0x3c9b697c,
       0x1.999999999999ap-2, 0x1.219dbcc48677p-3},
      {13, 2, false, 0x2b149638, 0x3ed06bc5, 0x9878a351,
       0x1.999999999999ap-2, 0x0p+0},
      {13, 2, true, 0xc47ffec9, 0x9eaf5ab4, 0xdf774f74,
       0x1.999999999999ap-2, 0x1.9d9a4460bac9ep-3},
      {13, 3, false, 0x5688aa5e, 0x4624474f, 0xa9de85e8,
       0x1.999999999999ap-2, 0x0p+0},
      {13, 3, true, 0x6d3394f2, 0x2131a76d, 0x6628bda1,
       0x1.999999999999ap-2, 0x1.0410410410411p-3},
  };
  for (const CentralizedGolden& want : golden) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << want.seed << ", policy " << want.policy
                 << (want.mixing ? ", mixing" : ", no mixing"));
    const CentralizedGolden got =
        run_centralized(want.seed, want.policy, want.mixing);
    EXPECT_EQ(got.betas, want.betas);
    EXPECT_EQ(got.apparent, want.apparent);
    EXPECT_EQ(got.matrix, want.matrix);
    EXPECT_EQ(got.xi, want.xi);
    EXPECT_EQ(got.lambda, want.lambda);
  }
}

}  // namespace
}  // namespace eppi::core
