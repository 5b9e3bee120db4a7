// BetaPlan: the one β derivation every construction path runs.
//
// The property test drives a plan through seeded random sequences of
// changes (frequencies, ε, owners turning common and back, n growing, m
// changing, mixing off) and checks after every update() that the plan
// equals one built afresh from the same state, field by field, and that
// the affected set is exactly the dirty identities plus those whose
// outcome changed — only the dirty ones when λ's coin threshold held.
#include "core/beta_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/error.h"
#include "common/rng.h"

namespace eppi::core {
namespace {

BetaPlan::Frequency frequencies_of(const std::vector<std::uint64_t>& f) {
  return [&f](std::size_t j) { return f[j]; };
}

// A coin that must never be flipped.
bool no_coin(std::size_t, double, std::uint64_t) {
  ADD_FAILURE() << "coin flipped";
  return false;
}

TEST(BetaPlanTest, XiIsMaxEpsilonOverCommonsOnly) {
  // Identities 0 and 2 are held by every provider (common); 1 and 3 by none.
  const std::vector<std::uint64_t> f{10, 0, 10, 0};
  const std::vector<double> eps{0.3, 0.99, 0.7, 0.5};
  const BetaPlan plan(BetaPolicy::basic(), false, no_coin, frequencies_of(f),
                      eps, 10);
  EXPECT_DOUBLE_EQ(plan.info().xi, 0.7);
  EXPECT_EQ(plan.common_count(), 2u);
  EXPECT_EQ(plan.commons_by_epsilon(),
            (std::map<double, std::size_t>{{0.3, 1}, {0.7, 1}}));
}

TEST(BetaPlanTest, XiIsZeroWithoutCommons) {
  const std::vector<std::uint64_t> f{0, 0};
  const std::vector<double> eps{0.9, 0.8};
  const BetaPlan plan(
      BetaPolicy::basic(), true,
      [](std::size_t, double, std::uint64_t) { return false; },
      frequencies_of(f), eps, 10);
  EXPECT_EQ(plan.info().xi, 0.0);
  EXPECT_EQ(plan.info().lambda, 0.0);
  EXPECT_EQ(plan.coin_threshold(), 0u);
}

TEST(BetaPlanTest, RejectsBadInput) {
  const std::vector<std::uint64_t> f{1, 2};
  const std::vector<double> bad_eps{0.5, 1.5};
  EXPECT_THROW(BetaPlan(BetaPolicy::basic(), false, no_coin,
                        frequencies_of(f), bad_eps, 10),
               eppi::ConfigError);
  const std::vector<double> eps{0.5, 0.5};
  EXPECT_THROW(BetaPlan(BetaPolicy::basic(), false, no_coin,
                        frequencies_of(f), eps, 0),
               eppi::ConfigError);
  BetaPlan plan(BetaPolicy::basic(), false, no_coin, frequencies_of(f), eps,
                10);
  const std::vector<IdentityId> out_of_range{2};
  EXPECT_THROW(plan.update(out_of_range, frequencies_of(f), eps, 10),
               eppi::ConfigError);
}

TEST(BetaPlanTest, PerIdentityRules) {
  EXPECT_EQ(BetaPlan::final_beta(true, 0.2), 1.0);
  EXPECT_EQ(BetaPlan::final_beta(false, 0.2), 0.2);
  EXPECT_EQ(BetaPlan::final_beta(false, -0.5), 0.0);
  EXPECT_EQ(BetaPlan::final_beta(false, 3.0), 1.0);
  const BetaPolicy policy = BetaPolicy::chernoff(0.9);
  EXPECT_EQ(BetaPlan::raw_beta(policy, 5, 0.4, 50),
            beta_raw(policy, 0.1, 0.4, 50));
  EXPECT_EQ(BetaPlan::opened_beta(policy, true, 0, 0.4, 50), 1.0);
  EXPECT_EQ(BetaPlan::opened_beta(policy, false, 5, 0.4, 50),
            std::clamp(beta_raw(policy, 0.1, 0.4, 50), 0.0, 1.0));
  EXPECT_EQ(BetaPlan::lambda(0.5, 10, 110, false), 0.0);
  EXPECT_NEAR(BetaPlan::lambda(0.5, 10, 110, true), 0.1, 1e-12);
}

TEST(BetaPlanTest, CoinsAreFlippedForNonCommonsInAscendingOrder) {
  const std::vector<std::uint64_t> f{10, 1, 10, 2, 3};
  const std::vector<double> eps(5, 0.5);
  std::vector<std::size_t> flipped;
  const BetaPlan plan(
      BetaPolicy::basic(), true,
      [&flipped](std::size_t j, double, std::uint64_t) {
        flipped.push_back(j);
        return j == 3;
      },
      frequencies_of(f), eps, 10);
  EXPECT_EQ(flipped, (std::vector<std::size_t>{1, 3, 4}));
  EXPECT_EQ(plan.info().is_apparent_common,
            (std::vector<bool>{true, false, true, true, false}));
  EXPECT_EQ(plan.info().betas[3], 1.0);
}

// The state a plan is derived from, changed step by step.
struct State {
  std::size_t m = 0;
  std::vector<std::uint64_t> f;
  std::vector<double> eps;
};

constexpr std::uint64_t kStream = 0x5eed;

BetaPlan fresh_plan(const BetaPolicy& policy, bool mixing, const State& s) {
  return BetaPlan(policy, mixing, BetaPlan::keyed_coin(kStream),
                  frequencies_of(s.f), s.eps, s.m);
}

void expect_same_plan(const BetaPlan& got, const BetaPlan& want) {
  ASSERT_EQ(got.identities(), want.identities());
  EXPECT_EQ(got.providers(), want.providers());
  EXPECT_TRUE(std::ranges::equal(got.raw(), want.raw()));
  EXPECT_EQ(got.common_count(), want.common_count());
  EXPECT_EQ(got.commons_by_epsilon(), want.commons_by_epsilon());
  EXPECT_EQ(got.coin_threshold(), want.coin_threshold());
  EXPECT_EQ(got.info().betas, want.info().betas);
  EXPECT_EQ(got.info().is_common, want.info().is_common);
  EXPECT_EQ(got.info().is_apparent_common, want.info().is_apparent_common);
  EXPECT_EQ(got.info().xi, want.info().xi);
  EXPECT_EQ(got.info().lambda, want.info().lambda);
}

double pick_epsilon(eppi::Rng& rng) {
  return 0.1 * static_cast<double>(1 + rng.next_below(5));
}

// A frequency at which an identity is common under every policy here
// (nearly every provider), or one at which it never is.
std::uint64_t common_frequency(eppi::Rng& rng, std::size_t m) {
  return m - rng.next_below(2);
}
std::uint64_t rare_frequency(eppi::Rng& rng, std::size_t m) {
  return rng.next_below(m / 5 + 1);
}

// One random change of `s`; returns the identities it names dirty. Kinds:
// a quiet change (rare owners get new rare frequencies — common count and
// ξ stay), owners turning common or back, ε changes, n growing, m
// changing, and dirty owners that did not change at all.
std::vector<IdentityId> random_change(eppi::Rng& rng, State& s,
                                      const BetaPlan& plan) {
  std::vector<IdentityId> dirty;
  const std::size_t n = s.f.size();
  const auto some_identity = [&] {
    return static_cast<IdentityId>(rng.next_below(n));
  };
  switch (rng.next_below(6)) {
    case 0:  // quiet
      for (int k = 0; k < 3; ++k) {
        const IdentityId j = some_identity();
        if (plan.info().is_common[j]) continue;
        s.f[j] = rare_frequency(rng, s.m);
        dirty.push_back(j);
      }
      break;
    case 1:  // owners become common or stop being common
      for (int k = 0; k < 2; ++k) {
        const IdentityId j = some_identity();
        s.f[j] = plan.info().is_common[j] ? rare_frequency(rng, s.m)
                                          : common_frequency(rng, s.m);
        dirty.push_back(j);
      }
      break;
    case 2:  // ε changes, common owners included
      for (int k = 0; k < 3; ++k) {
        const IdentityId j = some_identity();
        s.eps[j] = pick_epsilon(rng);
        dirty.push_back(j);
      }
      break;
    case 3:  // new owners (dirty implicitly)
      for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
        s.f.push_back(rng.next_below(4) == 0 ? common_frequency(rng, s.m)
                                             : rare_frequency(rng, s.m));
        s.eps.push_back(pick_epsilon(rng));
      }
      break;
    case 4: {  // m changes; frequencies stay within it
      s.m = 20 + rng.next_below(20);
      for (auto& f : s.f) f = std::min<std::uint64_t>(f, s.m);
      break;
    }
    default:  // named dirty without a change
      dirty.push_back(some_identity());
      dirty.push_back(dirty.back());  // and named twice
      break;
  }
  return dirty;
}

void run_property(const BetaPolicy& policy, bool mixing, std::uint64_t seed,
                  std::size_t& held, std::size_t& moved) {
  eppi::Rng rng(seed);
  State s;
  s.m = 30;
  for (std::size_t j = 0; j < 60; ++j) {
    s.f.push_back(rng.next_below(5) == 0 ? common_frequency(rng, s.m)
                                         : rare_frequency(rng, s.m));
    s.eps.push_back(pick_epsilon(rng));
  }
  BetaPlan plan = fresh_plan(policy, mixing, s);
  for (int step = 0; step < 150; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", step " +
                 std::to_string(step));
    const std::size_t m0 = s.m;
    const std::size_t n0 = s.f.size();
    const BetaPlan before = plan;
    const std::vector<IdentityId> dirty = random_change(rng, s, plan);
    const std::vector<IdentityId> affected =
        plan.update(dirty, frequencies_of(s.f), s.eps, s.m);
    const BetaPlan want = fresh_plan(policy, mixing, s);
    expect_same_plan(plan, want);

    // Expected affected set: the dirty and new identities (all when m
    // changed) plus every identity whose β or apparent bit changed.
    std::set<IdentityId> named(dirty.begin(), dirty.end());
    for (std::size_t j = n0; j < s.f.size(); ++j) {
      named.insert(static_cast<IdentityId>(j));
    }
    std::vector<IdentityId> expected;
    for (std::size_t j = 0; j < s.f.size(); ++j) {
      const bool changed =
          j >= n0 ||
          before.info().betas[j] != want.info().betas[j] ||
          before.info().is_apparent_common[j] !=
              want.info().is_apparent_common[j];
      if (s.m != m0 || named.contains(static_cast<IdentityId>(j)) ||
          changed) {
        expected.push_back(static_cast<IdentityId>(j));
      }
    }
    EXPECT_EQ(affected, expected);
    if (s.m == m0) {
      if (before.coin_threshold() == want.coin_threshold()) {
        ++held;
        for (const IdentityId j : affected) {
          EXPECT_TRUE(named.contains(j)) << "identity " << j;
        }
      } else {
        ++moved;
      }
    }
  }
}

TEST(BetaPlanPropertyTest, UpdateEqualsAFreshPlan) {
  const std::vector<BetaPolicy> policies{
      BetaPolicy::basic(), BetaPolicy::inc_exp(0.02),
      BetaPolicy::chernoff(0.9), BetaPolicy::exact(0.9)};
  std::size_t held = 0;
  std::size_t moved = 0;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      run_property(policies[p], /*mixing=*/true, seed * 10 + p, held, moved);
    }
  }
  // Both branches of update() ran: λ's threshold held and moved.
  EXPECT_GT(held, 100u);
  EXPECT_GT(moved, 100u);
}

TEST(BetaPlanPropertyTest, UpdateEqualsAFreshPlanWithMixingOff) {
  std::size_t held = 0;
  std::size_t moved = 0;
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    run_property(BetaPolicy::chernoff(0.9), /*mixing=*/false, seed, held,
                 moved);
  }
  // Without mixing λ is 0 and its threshold never moves.
  EXPECT_GT(held, 0u);
  EXPECT_EQ(moved, 0u);
}

}  // namespace
}  // namespace eppi::core
