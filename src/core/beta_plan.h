// The one derivation of the publishing rates (paper §III-B): β* from the
// policy (Eq. 3–5), commonness (β* >= 1), ξ (the largest ε among the common
// identities), λ (Eq. 7), the mixing coin (Eq. 6) and the final β (Eq. 9).
//
// The reference constructor builds a plan with Rng-drawn coins; the epoch
// manager keeps one across epochs with keyed coins and updates it for the
// identities a delta names; the distributed parties, which learn only the
// opened common count, ξ and (mixed, frequency) pairs, call its λ and
// per-identity β rules.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "core/beta_policy.h"
#include "core/ppi_index.h"

namespace eppi::core {

// A derivation's outcome (the plan's view).
struct ConstructionInfo {
  std::vector<double> betas;             // final per-identity β (post mixing)
  std::vector<bool> is_common;           // β* >= 1 by the true frequency
  std::vector<bool> is_apparent_common;  // published with β == 1
  double xi = 0.0;                       // max ε over common identities
  double lambda = 0.0;                   // mixing probability used
};

// The named identities plus every one in [n0, n), ascending and each once.
// Throws ConfigError when a named identity is not below n.
std::vector<IdentityId> dirty_identities(std::span<const IdentityId> named,
                                         std::size_t n0, std::size_t n);

class BetaPlan {
 public:
  // How many of the m providers hold identity j.
  using Frequency = std::function<std::uint64_t(std::size_t j)>;
  // Whether non-common identity j is mixed in as a decoy under λ, whose
  // sticky threshold is `threshold`. Flipped only with mixing on, only for
  // non-common identities, in ascending j.
  using Coin = std::function<bool(std::size_t j, double lambda,
                                  std::uint64_t threshold)>;

  // j is a decoy iff its fixed PRF draw under `stream` falls below λ's
  // sticky threshold: the coin moves only when that threshold does, which
  // update() relies on, and a larger λ only adds decoys.
  static Coin keyed_coin(std::uint64_t stream);

  // β* of an identity held by `frequency` of m providers.
  static double raw_beta(const BetaPolicy& policy, std::uint64_t frequency,
                         double epsilon, std::size_t m);
  // 1 for an apparent-common identity, else β* clamped to [0, 1].
  static double final_beta(bool apparent, double raw) noexcept {
    return apparent ? 1.0 : std::clamp(raw, 0.0, 1.0);
  }
  // λ from the common count and ξ; 0 with mixing off.
  static double lambda(double xi, std::size_t n_common, std::size_t n,
                       bool enable_mixing);
  // final_beta from an opened (mixed, frequency) pair. β* is evaluated only
  // for an identity that is not mixed: at small m most identities are.
  static double opened_beta(const BetaPolicy& policy, bool mixed,
                            std::uint64_t frequency, double epsilon,
                            std::size_t m);

  // Derives all n = epsilons.size() identities over m providers. Throws
  // ConfigError when m is 0 or an ε is outside [0, 1].
  BetaPlan(const BetaPolicy& policy, bool enable_mixing, Coin coin,
           const Frequency& frequency, std::span<const double> epsilons,
           std::size_t m);

  // Brings the plan to the current state — equal to a plan built from it
  // afresh — given that `dirty` names every identity whose frequency or ε
  // changed (new identities are dirty; a changed m re-derives all). β* and
  // commonness are re-derived for the dirty identities, then ξ and λ, then
  // the dirty identities' decisions; all n only when λ's coin threshold
  // moved. Returns the affected identities, ascending: the dirty ones plus
  // any whose β or apparent bit changed.
  std::vector<IdentityId> update(std::span<const IdentityId> dirty,
                                 const Frequency& frequency,
                                 std::span<const double> epsilons,
                                 std::size_t m);

  const ConstructionInfo& info() const& noexcept { return info_; }
  ConstructionInfo info() && noexcept { return std::move(info_); }
  std::size_t identities() const noexcept { return raw_.size(); }
  std::size_t providers() const noexcept { return m_; }
  std::span<const double> raw() const noexcept { return raw_; }
  std::size_t common_count() const noexcept { return n_common_; }
  // Common identities per ε value; ξ is the largest key.
  const std::map<double, std::size_t>& commons_by_epsilon() const noexcept {
    return commons_by_epsilon_;
  }
  std::uint64_t coin_threshold() const noexcept { return coin_threshold_; }

 private:
  // β* and commonness of identity j, keeping the common counts in step.
  void derive(std::size_t j, std::uint64_t frequency, double epsilon);
  // Apparent bit and β of identity j; whether either changed.
  bool decide(std::size_t j);

  BetaPolicy policy_;
  bool enable_mixing_;
  Coin coin_;
  std::size_t m_ = 0;
  std::vector<double> raw_;       // β* per identity
  std::vector<double> epsilons_;  // the ε each β* was derived with
  std::size_t n_common_ = 0;
  std::map<double, std::size_t> commons_by_epsilon_;
  std::uint64_t coin_threshold_ = 0;  // sticky_threshold(λ)
  ConstructionInfo info_;
};

}  // namespace eppi::core
