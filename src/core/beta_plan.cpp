#include "core/beta_plan.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "core/mixing.h"
#include "core/sticky_publisher.h"

namespace eppi::core {

std::vector<IdentityId> dirty_identities(std::span<const IdentityId> named,
                                         std::size_t n0, std::size_t n) {
  std::vector<IdentityId> ids(named.begin(), named.end());
  for (const IdentityId j : ids) {
    require(j < n, "dirty identity out of range");
  }
  for (std::size_t j = n0; j < n; ++j) {
    ids.push_back(static_cast<IdentityId>(j));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

BetaPlan::Coin BetaPlan::keyed_coin(std::uint64_t stream) {
  return [stream](std::size_t j, double, std::uint64_t threshold) {
    return sticky_bit(mix64(stream + j), threshold);
  };
}

double BetaPlan::raw_beta(const BetaPolicy& policy, std::uint64_t frequency,
                          double epsilon, std::size_t m) {
  return beta_raw(policy,
                  static_cast<double>(frequency) / static_cast<double>(m),
                  epsilon, m);
}

double BetaPlan::lambda(double xi, std::size_t n_common, std::size_t n,
                        bool enable_mixing) {
  return enable_mixing ? lambda_for(xi, n_common, n) : 0.0;
}

double BetaPlan::opened_beta(const BetaPolicy& policy, bool mixed,
                             std::uint64_t frequency, double epsilon,
                             std::size_t m) {
  return final_beta(mixed,
                    mixed ? 1.0 : raw_beta(policy, frequency, epsilon, m));
}

BetaPlan::BetaPlan(const BetaPolicy& policy, bool enable_mixing, Coin coin,
                   const Frequency& frequency,
                   std::span<const double> epsilons, std::size_t m)
    : policy_(policy), enable_mixing_(enable_mixing), coin_(std::move(coin)) {
  update({}, frequency, epsilons, m);
}

void BetaPlan::derive(std::size_t j, std::uint64_t frequency,
                      double epsilon) {
  require(epsilon >= 0.0 && epsilon <= 1.0, "BetaPlan: epsilon out of [0,1]");
  if (info_.is_common[j]) {
    --n_common_;
    const auto it = commons_by_epsilon_.find(epsilons_[j]);
    if (--it->second == 0) commons_by_epsilon_.erase(it);
  }
  epsilons_[j] = epsilon;
  raw_[j] = raw_beta(policy_, frequency, epsilon, m_);
  info_.is_common[j] = raw_[j] >= 1.0;
  if (info_.is_common[j]) {
    ++n_common_;
    ++commons_by_epsilon_[epsilon];
  }
}

bool BetaPlan::decide(std::size_t j) {
  const bool apparent =
      info_.is_common[j] ||
      (enable_mixing_ && coin_(j, info_.lambda, coin_threshold_));
  const double beta = final_beta(apparent, raw_[j]);
  const bool changed =
      apparent != info_.is_apparent_common[j] || beta != info_.betas[j];
  info_.is_apparent_common[j] = apparent;
  info_.betas[j] = beta;
  return changed;
}

std::vector<IdentityId> BetaPlan::update(std::span<const IdentityId> dirty,
                                         const Frequency& frequency,
                                         std::span<const double> epsilons,
                                         std::size_t m) {
  require(m >= 1, "BetaPlan: need at least one provider");
  const std::size_t n = epsilons.size();
  if (m != m_ || n < identities()) {
    // A new plan, or σ_j = f_j / m and the policies' m-dependent terms move
    // every β*: start over, with every identity new.
    m_ = m;
    raw_.clear();
    epsilons_.clear();
    n_common_ = 0;
    commons_by_epsilon_.clear();
    info_ = ConstructionInfo{};
  }
  const std::vector<IdentityId> ids = dirty_identities(dirty, identities(), n);
  raw_.resize(n, 0.0);
  epsilons_.resize(n, 0.0);
  info_.is_common.resize(n, false);
  info_.is_apparent_common.resize(n, false);
  info_.betas.resize(n, 0.0);
  for (const IdentityId j : ids) derive(j, frequency(j), epsilons[j]);

  // ξ, λ and the coin threshold from the common counts.
  info_.xi =
      commons_by_epsilon_.empty() ? 0.0 : commons_by_epsilon_.rbegin()->first;
  info_.lambda = lambda(info_.xi, n_common_, n, enable_mixing_);
  const std::uint64_t threshold_before =
      std::exchange(coin_threshold_, sticky_threshold(info_.lambda));
  if (coin_threshold_ == threshold_before) {
    for (const IdentityId j : ids) decide(j);
    return ids;
  }
  // The threshold moved, so any identity's coin may have flipped: decide
  // all n and add those whose outcome changed.
  std::vector<IdentityId> affected;
  auto next = ids.begin();
  for (std::size_t j = 0; j < n; ++j) {
    const bool named = next != ids.end() && *next == j;
    next += named ? 1 : 0;
    if (decide(j) || named) affected.push_back(static_cast<IdentityId>(j));
  }
  return affected;
}

}  // namespace eppi::core
