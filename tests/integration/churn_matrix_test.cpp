// Membership churn over the distributed construction (`ctest -L fault`).
//
// The acceptance scenario for incremental epochs: a provider retires and a
// fresh one joins between epochs, and the next ConstructPPI completes over
// the DELTA protocol — SecSumShare/CountBelow run only over the dirty
// identity columns among the active providers, the result is spliced over
// the served epoch, and the delta path is asserted (last_rebuild().delta),
// not assumed. A second scenario drives churn from the FaultScenario DSL
// (`churn P: join_at/leave_at/flap`), and a third kills the delta round
// mid-protocol to prove degraded serving retains the pending churn and the
// retry drains it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/beta_policy.h"
#include "core/locator_service.h"
#include "net/fault.h"

namespace eppi::core {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kProviders = 5;
constexpr std::size_t kOwners = 8;

// A prefix and a number, appended (not `"o" + std::to_string(j)`, which
// GCC 12 flags with a false -Wrestrict in Release builds).
std::string numbered(const char* prefix, std::size_t k) {
  std::string name = prefix;
  name += std::to_string(k);
  return name;
}
std::string prov(std::size_t i) { return numbered("p", i); }
std::string owner(std::size_t j) { return numbered("o", j); }

LocatorService::Options churn_options() {
  LocatorService::Options options;
  options.distributed = true;
  options.policy = BetaPolicy::basic();
  options.c = 3;
  options.seed = 17;
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.stage_timeout = 150ms;
  options.fault_tolerance.mpc_timeout = 3000ms;
  options.fault_tolerance.max_attempts = 3;
  return options;
}

void populate(LocatorService& svc) {
  for (std::size_t j = 0; j < kOwners; ++j) {
    svc.delegate(owner(j), 0.4, prov(j % kProviders));
    svc.delegate(owner(j), 0.4, prov((j + 2) % kProviders));
  }
}

bool answers_contain(const std::vector<std::string>& answer,
                     const std::string& name) {
  return std::find(answer.begin(), answer.end(), name) != answer.end();
}

TEST(ChurnMatrixTest, LeaveAndJoinCompleteViaDeltaPath) {
  LocatorService svc(churn_options());
  populate(svc);
  svc.construct_ppi();
  ASSERT_EQ(svc.serving_status().epoch, 1u);
  ASSERT_FALSE(svc.last_rebuild().delta);  // first epoch is necessarily full

  // Mid-lifecycle churn: p1 leaves, a brand-new p5 joins with fresh data.
  svc.retire_provider(prov(1));
  svc.delegate(owner(8), 0.4, prov(5));
  svc.construct_ppi();

  // The round completed via the delta protocol — no full rebuild.
  EXPECT_TRUE(svc.last_rebuild().delta);
  EXPECT_FALSE(svc.last_rebuild().degraded);
  EXPECT_EQ(svc.last_rebuild().left, 1u);
  EXPECT_EQ(svc.last_rebuild().joined, 1u);
  EXPECT_GT(svc.last_rebuild().churn, 0u);
  EXPECT_EQ(svc.serving_status().epoch, 2u);

  // The leaver is gone from every answer; the joiner serves its owner.
  for (std::size_t j = 0; j <= kOwners; ++j) {
    EXPECT_FALSE(answers_contain(svc.query_ppi(owner(j)), prov(1)))
        << owner(j);
  }
  EXPECT_TRUE(answers_contain(svc.query_ppi(owner(8)), prov(5)));
}

TEST(ChurnMatrixTest, DslDrivenFlapAndJoinRounds) {
  // p1 flaps (leaves at round 2, rejoins at round 4); p5 joins at round 3.
  const auto scenario = eppi::net::FaultScenario::parse(
      "churn 1: flap=2..4; churn 5: join_at=3");
  ASSERT_EQ(scenario.last_churn_round(), 4u);

  LocatorService svc(churn_options());
  populate(svc);
  for (std::uint64_t round = 1; round <= scenario.last_churn_round();
       ++round) {
    for (const auto p : scenario.leaves_at(round)) {
      svc.retire_provider(prov(p));
    }
    for (const auto p : scenario.joins_at(round)) {
      // (Re-)delegating to the named provider registers or rejoins it.
      svc.delegate(owner(p % kOwners), 0.4, prov(p));
    }
    svc.construct_ppi();
    ASSERT_FALSE(svc.last_rebuild().degraded) << "round " << round;
    EXPECT_EQ(svc.serving_status().epoch, round) << "round " << round;
    if (round > 1) {
      // Every churn round (and the quiet ones route full: round 1 only).
      EXPECT_TRUE(svc.last_rebuild().delta) << "round " << round;
    }
  }

  // Final state: p1 is back (serving its rejoin delegation), p5 serves its
  // owner, and no answer is stale about the flap.
  EXPECT_FALSE(svc.provider_retired(1));
  EXPECT_TRUE(answers_contain(svc.query_ppi(owner(1)), prov(1)));
  EXPECT_TRUE(answers_contain(svc.query_ppi(owner(5 % kOwners)), prov(5)));
}

TEST(ChurnMatrixTest, DegradedDeltaRoundKeepsServingAndRetryDrainsChurn) {
  LocatorService svc(churn_options());
  populate(svc);
  svc.construct_ppi();

  svc.retire_provider(prov(1));
  svc.delegate(owner(8), 0.4, prov(5));
  // Kill the delta sub-protocol's coordinator on its first send: the round
  // aborts, the service keeps answering from epoch 1 (degraded), and the
  // pending churn is NOT lost.
  auto failing = churn_options().fault_tolerance;
  failing.fault_scenario = "crash 1 after 0 sends";
  svc.set_fault_tolerance(failing);
  svc.construct_ppi();
  EXPECT_TRUE(svc.last_rebuild().degraded);
  const auto stale = svc.query_ppi_with_status(owner(0));
  EXPECT_EQ(stale.epoch, 1u);
  EXPECT_TRUE(stale.degraded);
  // Stale epoch: the retired provider is still being served — honestly.
  EXPECT_GT(svc.last_rebuild().churn, 0u);  // pending cells, surfaced

  // Clear the fault and retry: the SAME churn drains through the delta
  // path and the service recovers.
  svc.set_fault_tolerance(churn_options().fault_tolerance);
  svc.construct_ppi();
  EXPECT_FALSE(svc.last_rebuild().degraded);
  EXPECT_TRUE(svc.last_rebuild().delta);
  EXPECT_EQ(svc.last_rebuild().left, 1u);
  EXPECT_EQ(svc.last_rebuild().joined, 1u);
  EXPECT_EQ(svc.serving_status().epoch, 2u);
  for (std::size_t j = 0; j <= kOwners; ++j) {
    EXPECT_FALSE(answers_contain(svc.query_ppi(owner(j)), prov(1)))
        << owner(j);
  }
  EXPECT_TRUE(answers_contain(svc.query_ppi(owner(8)), prov(5)));
}

}  // namespace
}  // namespace eppi::core
