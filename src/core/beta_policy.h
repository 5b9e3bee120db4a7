// β-calculation policies (paper §III-B).
//
// In randomized publication every negative provider flips its 0 bit to 1
// with probability β_j; β_j must be large enough that the achieved false
// positive rate fp_j meets the owner's privacy degree ε_j. The paper gives
// three policies:
//
//  * basic (Eq. 3):        β_b = [(σ⁻¹ − 1)(ε⁻¹ − 1)]⁻¹
//      — sets the *expected* false-positive mass to the requirement, so
//        fp_j >= ε_j holds with only ~50% probability.
//  * incremented expectation (Eq. 4): β_d = β_b + Δ
//      — a configurable constant bump with no direct success-ratio control.
//  * Chernoff bound (Eq. 5, Theorem 3.1):
//        G = ln(1/(1−γ)) / ((1−σ)m),   β_c = β_b + G + sqrt(G² + 2 β_b G)
//      — statistically guarantees fp_j >= ε_j with success ratio >= γ.
//
// A β value >= 1 marks the identity as *common* (β saturates; the identity
// must go through identity mixing, §III-B.2). common_threshold() returns the
// smallest integer frequency at which a policy saturates — this is the
// public per-identity threshold t_j fed to the secure CountBelow stage.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace eppi::core {

enum class PolicyKind {
  kBasic,
  kIncExp,
  kChernoff,
  // Beyond the paper: the minimal β whose *exact* binomial success
  // probability (core/guarantee.h) reaches γ — same guarantee as the
  // Chernoff policy with strictly less search overhead (the bound's slack
  // is returned to the searchers). See bench_ablation_policies.
  kExact,
};

struct BetaPolicy {
  PolicyKind kind = PolicyKind::kChernoff;
  double delta = 0.02;  // Δ for kIncExp
  double gamma = 0.9;   // success ratio target for kChernoff (in (0.5, 1))

  static BetaPolicy basic() { return {PolicyKind::kBasic, 0.0, 0.0}; }
  static BetaPolicy inc_exp(double delta) {
    return {PolicyKind::kIncExp, delta, 0.0};
  }
  static BetaPolicy chernoff(double gamma) {
    return {PolicyKind::kChernoff, 0.0, gamma};
  }
  static BetaPolicy exact(double gamma) {
    return {PolicyKind::kExact, 0.0, gamma};
  }
};

// Eq. 3. sigma and epsilon in [0,1]; returns +inf when saturated by
// sigma -> 1 or epsilon -> 1. Returns 0 when epsilon == 0 or sigma == 0.
double beta_basic(double sigma, double epsilon);

// Eq. 4.
double beta_inc_exp(double sigma, double epsilon, double delta);

// Eq. 5 (m = number of providers).
double beta_chernoff(double sigma, double epsilon, double gamma,
                     std::size_t m);

// Minimal β with exact success probability >= gamma (bisection over the
// binomial tail; see core/guarantee.h). Returns a value > 1 when even
// β = 1 cannot meet the requirement (common identity).
double beta_exact(double sigma, double epsilon, double gamma, std::size_t m);

// Raw β* for a policy; may exceed 1 (saturation).
double beta_raw(const BetaPolicy& policy, double sigma, double epsilon,
                std::size_t m);

// β* clamped to [0,1] (the probability actually used when publishing a
// non-common identity).
double beta_clamped(const BetaPolicy& policy, double sigma, double epsilon,
                    std::size_t m);

// Smallest integer frequency count f in [0, m] such that
// beta_raw(policy, f/m, epsilon, m) >= 1; identities at or above it are
// common. Exploits that beta_raw is non-decreasing in sigma.
std::uint64_t common_threshold(const BetaPolicy& policy, double epsilon,
                               std::size_t m);

// Identity indices by ascending ε (ties in index order). Every ε must be in
// [0,1].
std::vector<std::uint32_t> epsilon_order(std::span<const double> epsilons);

// Per-identity thresholds for a whole epsilon vector. Every ε must be in
// [0,1].
std::vector<std::uint64_t> common_thresholds(const BetaPolicy& policy,
                                             std::span<const double> epsilons,
                                             std::size_t m);

// The same over `order` = epsilon_order(epsilons), for a caller that also
// ranks ε and so orders it once. The exact policy ignores `order`.
std::vector<std::uint64_t> common_thresholds(
    const BetaPolicy& policy, std::span<const double> epsilons,
    std::span<const std::uint32_t> order, std::size_t m);

}  // namespace eppi::core
