// Centralized reference constructor for ε-PPI.
//
// Computes exactly the functionality of the secure distributed protocol
// (paper §III: β calculation with common-identity mixing, then randomized
// publication) but with direct access to the full membership matrix. This is
// the form used by the paper's first experiment set ("based on simulations",
// §V-A), where effectiveness at m = 10,000 providers is measured without
// running cryptography; the distributed constructor
// (distributed_constructor.h) produces a statistically identical index and
// is cross-checked against this one in tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_matrix.h"
#include "common/rng.h"
#include "core/beta_plan.h"
#include "core/beta_policy.h"
#include "core/ppi_index.h"

namespace eppi::core {

struct ConstructionOptions {
  BetaPolicy policy = BetaPolicy::chernoff(0.9);
  // Identity mixing on/off; off reproduces the mixing ablation (a PPI
  // vulnerable to the common-identity attack).
  bool enable_mixing = true;
};

struct ConstructionResult {
  PpiIndex index;
  ConstructionInfo info;
};

// Builds the ε-PPI from the ground-truth membership matrix and per-owner
// privacy degrees. Throws ConfigError on malformed inputs (epsilon count
// mismatch, out-of-range ε).
ConstructionResult construct_centralized(const eppi::BitMatrix& truth,
                                         std::span<const double> epsilons,
                                         const ConstructionOptions& options,
                                         eppi::Rng& rng);

// Computes only the final β vector (phase 1 of the two-phase framework):
// a BetaPlan whose mixing coins are rng.bernoulli(λ) draws. Exposed
// separately for the policy-comparison experiments (Fig. 5), which
// re-publish many times under one β calculation.
ConstructionInfo calculate_betas(const eppi::BitMatrix& truth,
                                 std::span<const double> epsilons,
                                 const ConstructionOptions& options,
                                 eppi::Rng& rng);

}  // namespace eppi::core
