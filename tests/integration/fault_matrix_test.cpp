// End-to-end dropout matrix for the distributed construction: any single
// non-coordinator provider may crash mid-SecSumShare and the construction
// still commits a correct index over the survivors; a coordinator crash
// aborts with a typed PartyFailure within the configured deadlines; the
// epoch manager degrades to the previous epoch's index on a failed rebuild.
#include <gtest/gtest.h>

#include <chrono>

#include "common/bit_matrix.h"
#include "common/error.h"
#include "core/beta_policy.h"
#include "core/constructor.h"
#include "core/distributed_constructor.h"
#include "core/epoch_manager.h"
#include "secret/sec_sum_share.h"

namespace eppi::core {
namespace {

using eppi::net::PartyId;
using namespace std::chrono_literals;

constexpr std::size_t kM = 6;
constexpr std::size_t kN = 5;

const std::vector<std::vector<std::uint8_t>> kRows{
    {1, 1, 0, 0, 1}, {1, 0, 1, 0, 0}, {1, 1, 0, 1, 0},
    {1, 0, 0, 0, 1}, {1, 1, 1, 0, 0}, {1, 0, 0, 1, 1}};
const std::vector<double> kEpsilons{0.5, 0.4, 0.6, 0.3, 0.5};

eppi::BitMatrix truth_matrix() {
  eppi::BitMatrix truth(kM, kN);
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (kRows[i][j]) truth.set(i, j, true);
    }
  }
  return truth;
}

DistributedOptions ft_options() {
  DistributedOptions options;
  options.policy = BetaPolicy::basic();
  options.c = 2;
  options.seed = 31;
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.stage_timeout = 150ms;
  options.fault_tolerance.mpc_timeout = 3000ms;
  options.fault_tolerance.max_attempts = 3;
  return options;
}

// Validates a committed construction against the centralized reference
// computed over the surviving providers only.
void expect_correct_over_survivors(const DistributedResult& result,
                                   const std::vector<PartyId>& survivors) {
  const std::size_t m_eff = survivors.size();

  // Ground-truth frequencies over the survivors (plain_frequency_sums is the
  // centralized reference the SecSumShare output must equal).
  std::vector<std::vector<std::uint8_t>> survivor_rows;
  for (const PartyId i : survivors) survivor_rows.push_back(kRows[i]);
  const auto freqs = eppi::secret::plain_frequency_sums(survivor_rows, kN);

  const auto thresholds =
      common_thresholds(BetaPolicy::basic(), kEpsilons, m_eff);
  for (std::size_t j = 0; j < kN; ++j) {
    const bool common = freqs[j] >= thresholds[j];
    if (common) {
      EXPECT_TRUE(result.report.mixed[j]) << "identity " << j;
    }
    if (result.report.mixed[j]) {
      EXPECT_EQ(result.report.revealed_frequencies[j], 0u) << j;
      EXPECT_EQ(result.report.betas[j], 1.0) << j;
    } else {
      EXPECT_EQ(result.report.revealed_frequencies[j], freqs[j]) << j;
    }
  }

  // Centralized constructor on the survivor submatrix: unmixed β must agree.
  eppi::BitMatrix survivor_truth(m_eff, kN);
  for (std::size_t i = 0; i < m_eff; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (survivor_rows[i][j]) survivor_truth.set(i, j, true);
    }
  }
  ConstructionOptions copt;
  copt.policy = BetaPolicy::basic();
  eppi::Rng crng(1);
  const auto cent = calculate_betas(survivor_truth, kEpsilons, copt, crng);
  for (std::size_t j = 0; j < kN; ++j) {
    if (!result.report.mixed[j] && !cent.is_apparent_common[j]) {
      EXPECT_NEAR(result.report.betas[j], cent.betas[j], 1e-9) << j;
    }
  }

  // Index shape: full recall for every survivor, silence for the crashed.
  const auto& published = result.index.matrix();
  for (const PartyId i : survivors) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (kRows[i][j]) {
        EXPECT_TRUE(published.get(i, j)) << "provider " << i << " id " << j;
      }
    }
  }
  for (const PartyId i : result.report.crashed) {
    for (std::size_t j = 0; j < kN; ++j) {
      EXPECT_FALSE(published.get(i, j)) << "crashed provider " << i;
    }
  }
}

TEST(FaultMatrixTest, FaultTolerantModeWithoutFaultsMatchesPlainContract) {
  const auto result =
      construct_distributed(truth_matrix(), kEpsilons, ft_options());
  EXPECT_TRUE(result.report.crashed.empty());
  EXPECT_EQ(result.report.survivors.size(), kM);
  EXPECT_EQ(result.report.secsum_attempts, 1u);
  expect_correct_over_survivors(result,
                                {0, 1, 2, 3, 4, 5});
}

TEST(FaultMatrixTest, AnySingleNonCoordinatorCrashStillCommits) {
  // The acceptance matrix: each non-coordinator provider in turn crashes on
  // its super-share send (mid-SecSumShare, after distributing ring shares).
  for (PartyId f = 2; f < kM; ++f) {
    DistributedOptions options = ft_options();
    options.fault_tolerance.fault_scenario =
        "crash " + std::to_string(f) + " after 1 sends";
    const auto result =
        construct_distributed(truth_matrix(), kEpsilons, options);

    EXPECT_EQ(result.report.crashed, std::vector<PartyId>{f}) << "f=" << f;
    EXPECT_EQ(result.report.secsum_attempts, 2u) << "f=" << f;
    std::vector<PartyId> survivors;
    for (PartyId i = 0; i < kM; ++i) {
      if (i != f) survivors.push_back(i);
    }
    EXPECT_EQ(result.report.survivors, survivors) << "f=" << f;
    expect_correct_over_survivors(result, survivors);
  }
}

TEST(FaultMatrixTest, CrashRecoveryIsDeterministicForFixedSeed) {
  DistributedOptions options = ft_options();
  options.fault_tolerance.fault_scenario = "crash 4 after 1 sends";
  const auto a = construct_distributed(truth_matrix(), kEpsilons, options);
  const auto b = construct_distributed(truth_matrix(), kEpsilons, options);
  EXPECT_EQ(a.index.matrix(), b.index.matrix());
  EXPECT_EQ(a.report.betas, b.report.betas);
  EXPECT_EQ(a.report.crashed, b.report.crashed);
}

TEST(FaultMatrixTest, CoordinatorCrashInSecSumShareAbortsTyped) {
  DistributedOptions options = ft_options();
  options.fault_tolerance.fault_scenario = "crash 1 after 0 sends";
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)construct_distributed(truth_matrix(), kEpsilons, options);
    FAIL() << "expected PartyFailure";
  } catch (const eppi::PartyFailure& failure) {
    EXPECT_EQ(failure.party(), PartyId{1});
  }
  // "Within the configured deadline": bounded by the failure detector's
  // view-change waits, nowhere near a hang. Generous bound for slow CI.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
}

TEST(FaultMatrixTest, CoordinatorCrashMidMpcAbortsTyped) {
  DistributedOptions options = ft_options();
  // Tag 4 = kMpcOpen: coordinator 1 survives SecSumShare and dies on its
  // first GMW opening — the surviving coordinator's bounded recv must
  // surface the death, not hang.
  options.fault_tolerance.fault_scenario = "crash 1 at tag 4";
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)construct_distributed(truth_matrix(), kEpsilons, options),
      eppi::PartyFailure);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
}

TEST(FaultMatrixTest, LossyNetworkWithReliabilityStillCommits) {
  DistributedOptions options = ft_options();
  options.fault_tolerance.fault_scenario = "all: drop=0.05";
  options.fault_tolerance.reliable_delivery = true;
  options.fault_tolerance.reliable.rto = 2ms;
  options.fault_tolerance.reliable.deadline = 5000ms;
  options.fault_tolerance.stage_timeout = 1000ms;
  options.fault_tolerance.mpc_timeout = 20000ms;
  const auto result =
      construct_distributed(truth_matrix(), kEpsilons, options);
  EXPECT_TRUE(result.report.crashed.empty());
  expect_correct_over_survivors(result, {0, 1, 2, 3, 4, 5});
}

TEST(FaultMatrixTest, EpochManagerServesPreviousIndexOnFailedRebuild) {
  EpochManager manager;
  const auto truth = truth_matrix();

  const auto first =
      manager.rebuild_distributed(truth, kEpsilons, ft_options());
  ASSERT_FALSE(first.degraded);
  EXPECT_EQ(first.epoch, 1u);

  DistributedOptions failing = ft_options();
  failing.fault_tolerance.fault_scenario = "crash 1 after 0 sends";
  const auto degraded =
      manager.rebuild_distributed(truth, kEpsilons, failing);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.epoch, 1u);  // no new epoch
  EXPECT_FALSE(degraded.failure.empty());
  EXPECT_EQ(degraded.postings, first.postings);
  EXPECT_EQ(manager.failed_rebuilds(), 1u);
  EXPECT_EQ(manager.epochs_built(), 1u);

  // Service recovers on the next healthy rebuild.
  const auto second =
      manager.rebuild_distributed(truth, kEpsilons, ft_options());
  EXPECT_FALSE(second.degraded);
  EXPECT_EQ(second.epoch, 2u);
}

TEST(FaultMatrixTest, FirstEpochFailureHasNoFallbackAndPropagates) {
  EpochManager manager;
  DistributedOptions failing = ft_options();
  failing.fault_tolerance.fault_scenario = "crash 1 after 0 sends";
  EXPECT_THROW(
      (void)manager.rebuild_distributed(truth_matrix(), kEpsilons, failing),
      eppi::PartyFailure);
  EXPECT_EQ(manager.epochs_built(), 0u);
}

}  // namespace
}  // namespace eppi::core
