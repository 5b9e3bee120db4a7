#include "core/distributed_constructor.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/constructor.h"
#include "core/publisher.h"
#include "dataset/synthetic.h"

namespace eppi::core {
namespace {

eppi::dataset::Network small_network(eppi::Rng& rng) {
  // 7 providers, 6 identities: one common (6/7), the rest sparse.
  return eppi::dataset::make_network_with_frequencies(
      7, std::vector<std::uint64_t>{6, 1, 2, 1, 3, 2}, rng);
}

TEST(DistributedConstructorTest, ProducesFullRecallIndex) {
  eppi::Rng rng(11);
  const auto net = small_network(rng);
  const std::vector<double> eps{0.5, 0.4, 0.6, 0.3, 0.5, 0.2};
  DistributedOptions options;
  options.policy = BetaPolicy::basic();
  options.c = 3;
  const auto result = construct_distributed(net.membership, eps, options);
  EXPECT_TRUE(full_recall(net.membership, result.index.matrix()));
}

TEST(DistributedConstructorTest, CommonCountMatchesGroundTruth) {
  eppi::Rng rng(12);
  const auto net = small_network(rng);
  const std::vector<double> eps{0.5, 0.4, 0.6, 0.3, 0.5, 0.2};
  DistributedOptions options;
  options.policy = BetaPolicy::basic();
  options.c = 3;
  const auto result = construct_distributed(net.membership, eps, options);

  // Ground truth from the centralized path.
  const auto thresholds = common_thresholds(options.policy, eps, 7);
  std::uint64_t expected_commons = 0;
  for (std::size_t j = 0; j < 6; ++j) {
    if (net.membership.col_count(j) >= thresholds[j]) ++expected_commons;
  }
  EXPECT_EQ(result.report.common_count, expected_commons);
}

TEST(DistributedConstructorTest, MixedIdentitiesHideFrequencies) {
  eppi::Rng rng(13);
  const auto net = small_network(rng);
  const std::vector<double> eps{0.5, 0.4, 0.6, 0.3, 0.5, 0.2};
  DistributedOptions options;
  options.policy = BetaPolicy::basic();
  options.c = 3;
  const auto result = construct_distributed(net.membership, eps, options);
  for (std::size_t j = 0; j < 6; ++j) {
    if (result.report.mixed[j]) {
      EXPECT_EQ(result.report.revealed_frequencies[j], 0u);
      EXPECT_EQ(result.report.betas[j], 1.0);
    } else {
      EXPECT_EQ(result.report.revealed_frequencies[j],
                net.membership.col_count(j));
      EXPECT_LT(result.report.betas[j], 1.0);
    }
  }
}

TEST(DistributedConstructorTest, CommonIdentityIsAlwaysMixed) {
  eppi::Rng rng(14);
  const auto net = small_network(rng);
  const std::vector<double> eps{0.5, 0.4, 0.6, 0.3, 0.5, 0.2};
  DistributedOptions options;
  options.policy = BetaPolicy::basic();
  options.c = 3;
  const auto result = construct_distributed(net.membership, eps, options);
  const auto thresholds = common_thresholds(options.policy, eps, 7);
  for (std::size_t j = 0; j < 6; ++j) {
    if (net.membership.col_count(j) >= thresholds[j]) {
      EXPECT_TRUE(result.report.mixed[j]) << "identity " << j;
    }
  }
}

TEST(DistributedConstructorTest, MatchesCentralizedBetasForUnmixed) {
  eppi::Rng rng(15);
  const auto net = small_network(rng);
  const std::vector<double> eps{0.5, 0.4, 0.6, 0.3, 0.5, 0.2};

  DistributedOptions dopt;
  dopt.policy = BetaPolicy::chernoff(0.9);
  dopt.c = 3;
  const auto dist = construct_distributed(net.membership, eps, dopt);

  ConstructionOptions copt;
  copt.policy = dopt.policy;
  eppi::Rng crng(15);
  const auto cent = calculate_betas(net.membership, eps, copt, crng);

  for (std::size_t j = 0; j < 6; ++j) {
    if (!dist.report.mixed[j] && !cent.is_apparent_common[j]) {
      EXPECT_NEAR(dist.report.betas[j], cent.betas[j], 1e-9)
          << "identity " << j;
    }
  }
  EXPECT_DOUBLE_EQ(dist.report.xi, cent.xi);
  EXPECT_NEAR(dist.report.lambda, cent.lambda, 1e-9);
}

TEST(DistributedConstructorTest, XiIsMaxEpsilonOverCommons) {
  eppi::Rng rng(16);
  // identities: 0 common with ε=0.3, 1 common with ε=0.7, 2 rare with
  // ε=0.6 (threshold 4 under the basic policy, frequency 1 stays below).
  const auto net = eppi::dataset::make_network_with_frequencies(
      8, std::vector<std::uint64_t>{8, 7, 1}, rng);
  const std::vector<double> eps{0.3, 0.7, 0.6};
  DistributedOptions options;
  options.policy = BetaPolicy::basic();
  options.c = 3;
  const auto result = construct_distributed(net.membership, eps, options);
  // ε=0.95 identity is not common (freq 1), so ξ must be 0.7, not 0.95.
  EXPECT_DOUBLE_EQ(result.report.xi, 0.7);
}

TEST(DistributedConstructorTest, CostAccountingIsPopulated) {
  eppi::Rng rng(17);
  const auto net = small_network(rng);
  const std::vector<double> eps(6, 0.5);
  DistributedOptions options;
  options.c = 3;
  const auto result = construct_distributed(net.membership, eps, options);
  EXPECT_GT(result.report.total_cost.messages, 0u);
  EXPECT_GT(result.report.total_cost.bytes, 0u);
  EXPECT_GT(result.report.total_cost.rounds, 0u);
  EXPECT_GT(result.report.count_below_stats.total_gates(), 0u);
  EXPECT_GT(result.report.mix_reveal_stats.total_gates(), 0u);
}

TEST(DistributedConstructorTest, DeterministicForFixedSeed) {
  eppi::Rng rng(18);
  const auto net = small_network(rng);
  const std::vector<double> eps(6, 0.5);
  DistributedOptions options;
  options.c = 3;
  options.seed = 99;
  const auto a = construct_distributed(net.membership, eps, options);
  const auto b = construct_distributed(net.membership, eps, options);
  EXPECT_EQ(a.index.matrix(), b.index.matrix());
  EXPECT_EQ(a.report.betas, b.report.betas);
}

TEST(DistributedConstructorTest, WorksWhenEveryProviderIsCoordinator) {
  eppi::Rng rng(19);
  const auto net = eppi::dataset::make_network_with_frequencies(
      3, std::vector<std::uint64_t>{2, 1}, rng);
  const std::vector<double> eps{0.5, 0.5};
  DistributedOptions options;
  options.c = 3;  // c == m
  const auto result = construct_distributed(net.membership, eps, options);
  EXPECT_TRUE(full_recall(net.membership, result.index.matrix()));
}

TEST(DistributedConstructorTest, LargerCollusionParameter) {
  eppi::Rng rng(20);
  const auto net = eppi::dataset::make_network_with_frequencies(
      9, std::vector<std::uint64_t>{5, 2, 7}, rng);
  const std::vector<double> eps{0.4, 0.6, 0.5};
  DistributedOptions options;
  options.c = 5;
  const auto result = construct_distributed(net.membership, eps, options);
  EXPECT_TRUE(full_recall(net.membership, result.index.matrix()));
  for (std::size_t j = 0; j < 3; ++j) {
    if (!result.report.mixed[j]) {
      EXPECT_EQ(result.report.revealed_frequencies[j],
                net.membership.col_count(j));
    }
  }
}

TEST(DistributedConstructorTest, ValidatesParameters) {
  eppi::Rng rng(21);
  const auto net = small_network(rng);
  const std::vector<double> eps(6, 0.5);
  DistributedOptions options;
  options.c = 1;
  EXPECT_THROW(construct_distributed(net.membership, eps, options),
               eppi::ConfigError);
  options.c = 8;  // c > m
  EXPECT_THROW(construct_distributed(net.membership, eps, options),
               eppi::ConfigError);
}

TEST(DistributedConstructorTest, MixingDisabledRevealsAllNonCommons) {
  eppi::Rng rng(22);
  const auto net = small_network(rng);
  const std::vector<double> eps(6, 0.5);
  DistributedOptions options;
  options.policy = BetaPolicy::basic();
  options.c = 3;
  options.enable_mixing = false;
  const auto result = construct_distributed(net.membership, eps, options);
  const auto thresholds = common_thresholds(options.policy, eps, 7);
  for (std::size_t j = 0; j < 6; ++j) {
    const bool common = net.membership.col_count(j) >= thresholds[j];
    EXPECT_EQ(result.report.mixed[j], common) << "identity " << j;
  }
  EXPECT_EQ(result.report.lambda, 0.0);
}


}  // namespace
}  // namespace eppi::core
