// Metamorphic properties: relabeling providers or owners must not change
// anything semantically — the deterministic parts of the pipeline commute
// with permutations exactly, and the keyed (sticky) publication commutes
// when the keys move with the providers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/beta_policy.h"
#include "core/constructor.h"
#include "core/guarantee.h"
#include "dataset/synthetic.h"
#include "fixtures/publication.h"

namespace eppi::core {
namespace {

struct Instance {
  eppi::BitMatrix truth;
  std::vector<double> epsilons;
};

Instance make_instance(std::uint64_t seed, std::size_t m = 40,
                       std::size_t n = 25) {
  eppi::Rng rng(seed);
  Instance inst;
  std::vector<std::uint64_t> freqs(n);
  for (std::size_t j = 0; j < n; ++j) {
    freqs[j] = j == 0 ? m - 1 : rng.next_below(m / 2 + 1);
  }
  inst.truth =
      eppi::dataset::make_network_with_frequencies(m, freqs, rng).membership;
  inst.epsilons = eppi::dataset::random_epsilons(n, rng, 0.2, 0.9);
  return inst;
}

std::vector<std::size_t> random_permutation(std::size_t n,
                                            std::uint64_t seed) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  eppi::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return perm;
}

TEST(MetamorphicTest, ThresholdsCommuteWithOwnerPermutation) {
  const Instance inst = make_instance(1);
  const std::size_t n = inst.epsilons.size();
  const auto perm = random_permutation(n, 7);
  const auto policy = BetaPolicy::chernoff(0.9);
  const auto base = common_thresholds(policy, inst.epsilons, 40);
  std::vector<double> permuted_eps(n);
  for (std::size_t j = 0; j < n; ++j) permuted_eps[j] = inst.epsilons[perm[j]];
  const auto permuted = common_thresholds(policy, permuted_eps, 40);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(permuted[j], base[perm[j]]);
  }
}

TEST(MetamorphicTest, BetasCommuteWithOwnerPermutation) {
  // With mixing off, calculate_betas is a deterministic per-owner function
  // of (frequency, epsilon) — it must commute with owner relabeling.
  const Instance inst = make_instance(2);
  const std::size_t m = inst.truth.rows();
  const std::size_t n = inst.truth.cols();
  const auto perm = random_permutation(n, 9);

  eppi::BitMatrix permuted_truth(m, n);
  std::vector<double> permuted_eps(n);
  for (std::size_t j = 0; j < n; ++j) {
    permuted_eps[j] = inst.epsilons[perm[j]];
    for (std::size_t i = 0; i < m; ++i) {
      if (inst.truth.get(i, perm[j])) permuted_truth.set(i, j, true);
    }
  }
  ConstructionOptions options;
  options.policy = BetaPolicy::basic();
  options.enable_mixing = false;
  eppi::Rng rng_a(3);
  eppi::Rng rng_b(3);
  const auto base = calculate_betas(inst.truth, inst.epsilons, options, rng_a);
  const auto perm_info =
      calculate_betas(permuted_truth, permuted_eps, options, rng_b);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_DOUBLE_EQ(perm_info.betas[j], base.betas[perm[j]]);
    EXPECT_EQ(perm_info.is_common[j], base.is_common[perm[j]]);
  }
  EXPECT_DOUBLE_EQ(perm_info.xi, base.xi);
}

TEST(MetamorphicTest, StickyPublicationCommutesWithProviderPermutation) {
  // Moving a provider (and its key) must move its published row verbatim.
  const Instance inst = make_instance(3);
  const std::size_t m = inst.truth.rows();
  const std::size_t n = inst.truth.cols();
  std::vector<double> betas(n, 0.4);
  eppi::Rng rng(4);
  std::vector<std::uint64_t> keys(m);
  for (auto& k : keys) k = rng.next();

  const auto base = fixtures::sticky_matrix(inst.truth, betas, keys);

  const auto perm = random_permutation(m, 11);
  eppi::BitMatrix permuted_truth(m, n);
  std::vector<std::uint64_t> permuted_keys(m);
  for (std::size_t i = 0; i < m; ++i) {
    permuted_keys[i] = keys[perm[i]];
    for (std::size_t j = 0; j < n; ++j) {
      if (inst.truth.get(perm[i], j)) permuted_truth.set(i, j, true);
    }
  }
  const auto permuted =
      fixtures::sticky_matrix(permuted_truth, betas, permuted_keys);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(permuted.get(i, j), base.get(perm[i], j));
    }
  }
}

TEST(MetamorphicTest, GuaranteeIsScaleConsistent) {
  // Doubling (m, f) at fixed sigma barely moves beta but tightens the
  // binomial concentration: success probability must not decrease for the
  // Chernoff policy.
  const auto policy = BetaPolicy::chernoff(0.9);
  double prev = 0.0;
  for (const std::size_t m : {250u, 500u, 1000u, 2000u, 4000u}) {
    const double p = policy_success_probability(policy, m, m / 20, 0.5);
    EXPECT_GE(p, prev - 0.02) << "m=" << m;
    prev = p;
  }
}

TEST(MetamorphicTest, PublishedNoiseIndependentAcrossIdentities) {
  // Removing an identity from the input must not change another identity's
  // sticky noise (column independence).
  const Instance inst = make_instance(5);
  const std::size_t m = inst.truth.rows();
  std::vector<double> betas(inst.truth.cols(), 0.3);
  eppi::Rng rng(6);
  std::vector<std::uint64_t> keys(m);
  for (auto& k : keys) k = rng.next();
  const auto full = fixtures::sticky_matrix(inst.truth, betas, keys);

  // Rebuild with identity 0's memberships cleared.
  eppi::BitMatrix truncated = inst.truth;
  for (std::size_t i = 0; i < m; ++i) truncated.set(i, 0, false);
  const auto rebuilt = fixtures::sticky_matrix(truncated, betas, keys);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 1; j < inst.truth.cols(); ++j) {
      EXPECT_EQ(rebuilt.get(i, j), full.get(i, j));
    }
  }
}

}  // namespace
}  // namespace eppi::core
