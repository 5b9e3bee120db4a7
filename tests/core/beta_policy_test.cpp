#include "core/beta_policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace eppi::core {
namespace {

TEST(BetaBasicTest, ClosedFormValues) {
  // Eq. 3: β_b = [(σ⁻¹−1)(ε⁻¹−1)]⁻¹. σ = 0.5, ε = 0.5 -> 1/(1*1) = 1.
  EXPECT_DOUBLE_EQ(beta_basic(0.5, 0.5), 1.0);
  // σ = 0.2, ε = 0.5 -> 1/(4*1) = 0.25.
  EXPECT_DOUBLE_EQ(beta_basic(0.2, 0.5), 0.25);
  // σ = 0.1, ε = 0.8 -> 1/(9 * 0.25) = 4/9.
  EXPECT_NEAR(beta_basic(0.1, 0.8), 4.0 / 9.0, 1e-12);
}

TEST(BetaBasicTest, EdgeCases) {
  EXPECT_EQ(beta_basic(0.0, 0.5), 0.0);
  EXPECT_EQ(beta_basic(0.5, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(beta_basic(1.0, 0.5)));
  EXPECT_TRUE(std::isinf(beta_basic(0.5, 1.0)));
}

TEST(BetaBasicTest, RejectsOutOfRange) {
  EXPECT_THROW(beta_basic(-0.1, 0.5), eppi::ConfigError);
  EXPECT_THROW(beta_basic(0.5, 1.1), eppi::ConfigError);
}

TEST(BetaBasicTest, MonotoneInSigmaAndEpsilon) {
  double prev = 0.0;
  for (double sigma = 0.05; sigma < 0.95; sigma += 0.05) {
    const double b = beta_basic(sigma, 0.5);
    EXPECT_GE(b, prev);
    prev = b;
  }
  prev = 0.0;
  for (double eps = 0.05; eps < 0.95; eps += 0.05) {
    const double b = beta_basic(0.3, eps);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(BetaIncExpTest, AddsDelta) {
  EXPECT_DOUBLE_EQ(beta_inc_exp(0.2, 0.5, 0.02), 0.25 + 0.02);
  EXPECT_THROW(beta_inc_exp(0.2, 0.5, -0.01), eppi::ConfigError);
}

TEST(BetaChernoffTest, ExceedsBasic) {
  for (const double sigma : {0.01, 0.1, 0.3}) {
    for (const double eps : {0.2, 0.5, 0.8}) {
      const double bb = beta_basic(sigma, eps);
      const double bc = beta_chernoff(sigma, eps, 0.9, 10000);
      EXPECT_GT(bc, bb) << "sigma=" << sigma << " eps=" << eps;
    }
  }
}

TEST(BetaChernoffTest, CorrectionShrinksWithProviders) {
  const double small_m = beta_chernoff(0.1, 0.5, 0.9, 100);
  const double large_m = beta_chernoff(0.1, 0.5, 0.9, 100000);
  EXPECT_GT(small_m, large_m);
  EXPECT_NEAR(large_m, beta_basic(0.1, 0.5), 0.01);
}

TEST(BetaChernoffTest, HigherGammaNeedsMoreNoise) {
  const double g90 = beta_chernoff(0.1, 0.5, 0.90, 1000);
  const double g99 = beta_chernoff(0.1, 0.5, 0.99, 1000);
  EXPECT_GT(g99, g90);
}

TEST(BetaChernoffTest, RejectsBadGamma) {
  EXPECT_THROW(beta_chernoff(0.1, 0.5, 0.5, 100), eppi::ConfigError);
  EXPECT_THROW(beta_chernoff(0.1, 0.5, 1.0, 100), eppi::ConfigError);
}

TEST(BetaRawTest, DispatchesOnPolicy) {
  const std::size_t m = 1000;
  EXPECT_DOUBLE_EQ(beta_raw(BetaPolicy::basic(), 0.2, 0.5, m),
                   beta_basic(0.2, 0.5));
  EXPECT_DOUBLE_EQ(beta_raw(BetaPolicy::inc_exp(0.05), 0.2, 0.5, m),
                   beta_basic(0.2, 0.5) + 0.05);
  EXPECT_DOUBLE_EQ(beta_raw(BetaPolicy::chernoff(0.9), 0.2, 0.5, m),
                   beta_chernoff(0.2, 0.5, 0.9, m));
}

TEST(BetaClampedTest, StaysInUnitInterval) {
  EXPECT_DOUBLE_EQ(beta_clamped(BetaPolicy::basic(), 0.9, 0.9, 100), 1.0);
  EXPECT_DOUBLE_EQ(beta_clamped(BetaPolicy::basic(), 0.0, 0.5, 100), 0.0);
  const double b = beta_clamped(BetaPolicy::basic(), 0.2, 0.5, 100);
  EXPECT_GT(b, 0.0);
  EXPECT_LT(b, 1.0);
}

TEST(CommonThresholdTest, BasicPolicySaturatesAtOneMinusEpsilon) {
  // β_b >= 1 iff σ >= 1−ε, so the threshold is ceil((1−ε)m).
  const std::size_t m = 1000;
  for (const double eps : {0.2, 0.5, 0.8}) {
    const auto t = common_threshold(BetaPolicy::basic(), eps, m);
    const double sigma_at = static_cast<double>(t) / m;
    EXPECT_GE(beta_basic(sigma_at, eps), 1.0);
    if (t > 0) {
      const double sigma_below = static_cast<double>(t - 1) / m;
      EXPECT_LT(beta_basic(sigma_below, eps), 1.0);
    }
    EXPECT_NEAR(static_cast<double>(t), (1.0 - eps) * m, 1.5);
  }
}

TEST(CommonThresholdTest, ChernoffSaturatesEarlierThanBasic) {
  const std::size_t m = 1000;
  const auto tb = common_threshold(BetaPolicy::basic(), 0.5, m);
  const auto tc = common_threshold(BetaPolicy::chernoff(0.9), 0.5, m);
  EXPECT_LE(tc, tb);
}

TEST(CommonThresholdTest, EpsilonZeroNeverCommon) {
  const std::size_t m = 100;
  // ε=0 means the owner wants no noise: β=0 at every frequency, so the
  // identity never saturates and the sentinel m+1 is returned.
  const auto t = common_threshold(BetaPolicy::basic(), 0.0, m);
  EXPECT_EQ(t, m + 1);
}

TEST(CommonThresholdTest, EpsilonOneCommonAtAnyPositiveFrequency) {
  const std::size_t m = 100;
  const auto t = common_threshold(BetaPolicy::basic(), 1.0, m);
  // β saturates at any σ > 0 (ε = 1 means broadcast); σ = 0 identities have
  // nothing to protect and stay at β = 0.
  EXPECT_EQ(t, 1u);
}

TEST(CommonThresholdsTest, VectorizedMatchesScalar) {
  const std::size_t m = 500;
  const std::vector<double> eps{0.1, 0.5, 0.9};
  const auto ts = common_thresholds(BetaPolicy::chernoff(0.9), eps, m);
  ASSERT_EQ(ts.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(ts[j], common_threshold(BetaPolicy::chernoff(0.9), eps[j], m));
  }
}

// Theorem 3.1, empirically: publishing with β_c achieves fp >= ε with
// probability >= γ. This is the paper's core quantitative guarantee.
class ChernoffGuaranteeSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ChernoffGuaranteeSweep, SuccessRatioMeetsGamma) {
  const auto [sigma, eps] = GetParam();
  constexpr std::size_t kM = 2000;
  constexpr double kGamma = 0.9;
  const double beta = beta_chernoff(sigma, eps, kGamma, kM);
  if (beta >= 1.0) GTEST_SKIP() << "saturated configuration";
  eppi::Rng rng(42);
  const auto positives = static_cast<std::size_t>(sigma * kM);
  const std::size_t negatives = kM - positives;
  constexpr int kRuns = 400;
  int successes = 0;
  for (int run = 0; run < kRuns; ++run) {
    std::size_t false_pos = 0;
    for (std::size_t i = 0; i < negatives; ++i) {
      false_pos += rng.bernoulli(beta) ? 1 : 0;
    }
    const double fp =
        static_cast<double>(false_pos) /
        static_cast<double>(false_pos + positives);
    if (fp >= eps) ++successes;
  }
  const double ratio = static_cast<double>(successes) / kRuns;
  EXPECT_GE(ratio, kGamma - 0.05)
      << "sigma=" << sigma << " eps=" << eps << " beta=" << beta;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChernoffGuaranteeSweep,
    ::testing::Combine(::testing::Values(0.01, 0.05, 0.1),
                       ::testing::Values(0.3, 0.5, 0.8)));

// The basic policy only meets the requirement about half the time — the
// motivation for the Chernoff policy (paper Fig. 5).
TEST(BetaBasicTest, SuccessRatioIsAboutHalf) {
  constexpr std::size_t kM = 2000;
  const double sigma = 0.05;
  const double eps = 0.5;
  const double beta = beta_basic(sigma, eps);
  eppi::Rng rng(7);
  const auto positives = static_cast<std::size_t>(sigma * kM);
  constexpr int kRuns = 600;
  int successes = 0;
  for (int run = 0; run < kRuns; ++run) {
    std::size_t false_pos = 0;
    for (std::size_t i = 0; i < kM - positives; ++i) {
      false_pos += rng.bernoulli(beta) ? 1 : 0;
    }
    const double fp = static_cast<double>(false_pos) /
                      static_cast<double>(false_pos + positives);
    if (fp >= eps) ++successes;
  }
  const double ratio = static_cast<double>(successes) / kRuns;
  EXPECT_NEAR(ratio, 0.5, 0.1);
}

TEST(EpsilonOrderTest, SortsAscendingWithTiesInIndexOrder) {
  const std::vector<double> eps{0.5, 0.1, 1.0, 0.5, 0.0, -0.0, 0.25};
  const auto order = epsilon_order(eps);
  const std::vector<std::uint32_t> expected{4, 5, 1, 6, 0, 3, 2};
  EXPECT_EQ(order, expected);
  EXPECT_THROW((void)epsilon_order(std::vector<double>{0.5, 1.5}),
               eppi::ConfigError);
  EXPECT_TRUE(epsilon_order({}).empty());
}

// The vector form fills runs along ascending ε instead of evaluating every
// identity; it must agree with the per-identity evaluation exactly.
TEST(CommonThresholdsTest, MatchesPerIdentityEvaluationForEveryPolicy) {
  eppi::Rng rng(91);
  const BetaPolicy policies[] = {BetaPolicy::basic(), BetaPolicy::inc_exp(0.1),
                                 BetaPolicy::chernoff(0.9),
                                 BetaPolicy::chernoff(0.6),
                                 BetaPolicy::exact(0.9)};
  for (const BetaPolicy& policy : policies) {
    for (const std::size_t m : {1u, 4u, 37u, 1000u}) {
      const std::size_t n = policy.kind == PolicyKind::kExact ? 40 : 3000;
      std::vector<double> eps(n);
      for (auto& e : eps) {
        // Endpoints, repeats and a continuum.
        const auto pick = rng.next_below(10);
        e = pick == 0 ? 0.0 : pick == 1 ? 1.0 : pick == 2 ? 0.5
                                                          : rng.next_double();
      }
      std::vector<std::uint64_t> expected;
      for (const double e : eps) {
        expected.push_back(common_threshold(policy, e, m));
      }
      EXPECT_EQ(common_thresholds(policy, eps, m), expected)
          << "policy " << static_cast<int>(policy.kind) << " m=" << m;
    }
  }
  // An ε out of range is rejected even inside a run the fill skips.
  EXPECT_THROW((void)common_thresholds(BetaPolicy::basic(),
                                       std::vector<double>{0.2, 1.5, 0.8}, 4),
               eppi::ConfigError);
}

}  // namespace
}  // namespace eppi::core
