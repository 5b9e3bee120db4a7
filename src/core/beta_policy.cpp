#include "core/beta_policy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "core/beta_plan.h"
#include "core/guarantee.h"

namespace eppi::core {

namespace {

void check_unit(double x, const char* name) {
  // Branch first: the message is only built for the error.
  if (!(x >= 0.0 && x <= 1.0)) {
    throw ConfigError(std::string(name) + " must be in [0,1]");
  }
}

}  // namespace

double beta_basic(double sigma, double epsilon) {
  check_unit(sigma, "sigma");
  check_unit(epsilon, "epsilon");
  if (epsilon == 0.0 || sigma == 0.0) return 0.0;
  if (epsilon >= 1.0 || sigma >= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  // [(σ⁻¹ − 1)(ε⁻¹ − 1)]⁻¹
  return 1.0 / ((1.0 / sigma - 1.0) * (1.0 / epsilon - 1.0));
}

double beta_inc_exp(double sigma, double epsilon, double delta) {
  require(delta >= 0.0, "delta must be non-negative");
  return beta_basic(sigma, epsilon) + delta;
}

double beta_chernoff(double sigma, double epsilon, double gamma,
                     std::size_t m) {
  require(gamma > 0.5 && gamma < 1.0, "gamma must be in (0.5, 1)");
  require(m >= 1, "need at least one provider");
  const double bb = beta_basic(sigma, epsilon);
  if (std::isinf(bb)) return bb;
  if (sigma >= 1.0) return std::numeric_limits<double>::infinity();
  // G = ln(1/(1-γ)) / ((1-σ) m)
  const double g =
      std::log(1.0 / (1.0 - gamma)) / ((1.0 - sigma) * static_cast<double>(m));
  return bb + g + std::sqrt(g * g + 2.0 * bb * g);
}

double beta_exact(double sigma, double epsilon, double gamma,
                  std::size_t m) {
  require(gamma > 0.5 && gamma < 1.0, "gamma must be in (0.5, 1)");
  require(m >= 1, "need at least one provider");
  check_unit(sigma, "sigma");
  check_unit(epsilon, "epsilon");
  if (epsilon == 0.0 || sigma == 0.0) return 0.0;
  if (sigma >= 1.0 || epsilon >= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  const auto f = static_cast<std::uint64_t>(
      std::llround(sigma * static_cast<double>(m)));
  if (f >= m) return std::numeric_limits<double>::infinity();
  // Even full broadcast may not meet the requirement (common identity).
  if (publication_success_probability(m, f, epsilon, 1.0) < gamma) {
    return 1.0 + 1e-9;  // saturated: handled by the mixing path
  }
  // The success probability is monotone non-decreasing in beta: bisect for
  // the minimal beta reaching gamma.
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (publication_success_probability(m, f, epsilon, mid) >= gamma) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

double beta_raw(const BetaPolicy& policy, double sigma, double epsilon,
                std::size_t m) {
  switch (policy.kind) {
    case PolicyKind::kBasic:
      return beta_basic(sigma, epsilon);
    case PolicyKind::kIncExp:
      return beta_inc_exp(sigma, epsilon, policy.delta);
    case PolicyKind::kChernoff:
      return beta_chernoff(sigma, epsilon, policy.gamma, m);
    case PolicyKind::kExact:
      return beta_exact(sigma, epsilon, policy.gamma, m);
  }
  throw ConfigError("beta_raw: unknown policy");
}

double beta_clamped(const BetaPolicy& policy, double sigma, double epsilon,
                    std::size_t m) {
  return BetaPlan::final_beta(false, beta_raw(policy, sigma, epsilon, m));
}

std::uint64_t common_threshold(const BetaPolicy& policy, double epsilon,
                               std::size_t m) {
  check_unit(epsilon, "epsilon");
  require(m >= 1, "need at least one provider");
  // beta_raw is non-decreasing in sigma for all three policies (β_b is
  // increasing; the Chernoff correction's G term is increasing in σ too), so
  // binary search over the integer frequency grid.
  const auto saturated = [&](std::uint64_t f) {
    const double sigma =
        static_cast<double>(f) / static_cast<double>(m);
    return beta_raw(policy, sigma, epsilon, m) >= 1.0;
  };
  if (!saturated(m)) return m + 1;  // never saturates (only when ε == 0)
  std::uint64_t lo = 0;
  std::uint64_t hi = m;  // saturated(hi) holds
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (saturated(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::vector<std::uint32_t> epsilon_order(std::span<const double> epsilons) {
  const std::size_t n = epsilons.size();
  // Bucket sort: ε·k is monotone in ε, so the buckets come out in order and
  // only a bucket's few members need comparing.
  const std::size_t k = std::bit_ceil(std::max<std::size_t>(n, 1));
  const auto bucket = [k](double e) {
    return std::min(k - 1, static_cast<std::size_t>(e * static_cast<double>(k)));
  };
  std::vector<std::uint32_t> start(k + 1, 0);
  for (const double e : epsilons) {
    check_unit(e, "epsilon");
    ++start[bucket(e) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
  for (std::uint32_t j = 0; j < n; ++j) order[next[bucket(epsilons[j])]++] = j;
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    return epsilons[a] < epsilons[b] || (epsilons[a] == epsilons[b] && a < b);
  };
  for (std::size_t b = 0; b < k; ++b) {
    if (start[b + 1] - start[b] > 1) {
      std::sort(order.begin() + start[b], order.begin() + start[b + 1], before);
    }
  }
  return order;
}

std::vector<std::uint64_t> common_thresholds(const BetaPolicy& policy,
                                             std::span<const double> epsilons,
                                             std::size_t m) {
  if (policy.kind == PolicyKind::kExact) {
    return common_thresholds(policy, epsilons, {}, m);
  }
  return common_thresholds(policy, epsilons, epsilon_order(epsilons), m);
}

std::vector<std::uint64_t> common_thresholds(
    const BetaPolicy& policy, std::span<const double> epsilons,
    std::span<const std::uint32_t> order, std::size_t m) {
  std::vector<std::uint64_t> out(epsilons.size());
  if (policy.kind == PolicyKind::kExact) {
    // Bisection-based β: evaluated per identity.
    for (std::size_t j = 0; j < epsilons.size(); ++j) {
      out[j] = common_threshold(policy, epsilons[j], m);
    }
    return out;
  }
  // β_b, β_d and β_c are compositions of correctly rounded monotone steps
  // in ε, so thresholds never rise along ascending ε: a run whose two ends
  // agree is filled without evaluating the policy inside it.
  require(order.size() == epsilons.size(),
          "common_thresholds: order must cover every epsilon");
  const auto at = [&](std::size_t i) {
    return common_threshold(policy, epsilons[order[i]], m);
  };
  // Fills order[lo..hi] given the thresholds at both ends.
  const auto fill = [&](auto& self, std::size_t lo, std::size_t hi,
                        std::uint64_t t_lo, std::uint64_t t_hi) -> void {
    if (t_lo == t_hi || hi - lo <= 1) {
      for (std::size_t i = lo; i < hi; ++i) out[order[i]] = t_lo;
      out[order[hi]] = t_hi;
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint64_t t_mid = at(mid);
    self(self, lo, mid, t_lo, t_mid);
    self(self, mid, hi, t_mid, t_hi);
  };
  if (!order.empty()) {
    const std::size_t last = order.size() - 1;
    fill(fill, 0, last, at(0), at(last));
  }
  return out;
}

}  // namespace eppi::core
