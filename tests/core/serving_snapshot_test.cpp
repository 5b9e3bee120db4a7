// Deterministic (single-threaded) semantics of the epoch-snapshot serving
// tier: what readers are answered from across delegations, rebuilds,
// degraded rebuilds and store recovery — plus the batched QueryPPI contract
// and the serving metrics. The multi-threaded counterpart lives in
// serving_concurrency_test.cpp (label `concurrency`, run under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/epoch_store.h"
#include "core/locator_service.h"
#include "storage/mem_vfs.h"

namespace eppi::core {
namespace {

using namespace std::chrono_literals;

LocatorService::Options fast_options(bool distributed = false) {
  LocatorService::Options options;
  options.distributed = distributed;
  options.policy = BetaPolicy::chernoff(0.9);
  options.seed = 7;
  return options;
}

void populate_hie(LocatorService& service) {
  service.delegate("alice", 0.4, "general");
  service.delegate("alice", 0.4, "mercy");
  service.delegate("bob", 0.3, "general");
  service.delegate("carol", 0.9, "general");
  service.delegate("carol", 0.9, "mercy");
  service.delegate("carol", 0.9, "lakeside");
  service.delegate("carol", 0.9, "county");
  service.delegate("dave", 0.5, "county");
}

TEST(ServingSnapshotTest, StaleSnapshotServesAcrossDelegation) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();
  const auto answer = service.query_ppi("alice");

  // A new delegation invalidates the *builder's* index but must not yank
  // the published epoch out from under readers.
  service.delegate("erin", 0.5, "general");
  EXPECT_FALSE(service.constructed());
  EXPECT_EQ(service.query_ppi("alice"), answer);
  const auto status = service.query_ppi_with_status("alice");
  EXPECT_EQ(status.epoch, 1u);
  EXPECT_FALSE(status.degraded);

  // The new owner is unknown to the served epoch until the next swap.
  EXPECT_THROW(service.query_ppi("erin"), eppi::ConfigError);
  service.construct_ppi();
  EXPECT_FALSE(service.query_ppi("erin").empty());
  EXPECT_EQ(service.query_ppi_with_status("alice").epoch, 2u);
}

TEST(ServingSnapshotTest, BatchMatchesPerOwnerQueries) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();

  const std::vector<std::string> owners{"alice", "bob", "carol", "dave"};
  const auto batch = service.query_ppi_many(owners);
  ASSERT_EQ(batch.providers.size(), owners.size());
  for (std::size_t k = 0; k < owners.size(); ++k) {
    EXPECT_EQ(batch.providers[k], service.query_ppi(owners[k]))
        << "owner " << owners[k];
  }
  EXPECT_EQ(batch.epoch, 1u);
  EXPECT_FALSE(batch.degraded);
  EXPECT_GE(batch.age_seconds, 0.0);

  const auto empty = service.query_ppi_many({});
  EXPECT_TRUE(empty.providers.empty());
  EXPECT_EQ(empty.epoch, 1u);
}

TEST(ServingSnapshotTest, BatchRejectsUnknownOwner) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();
  const std::vector<std::string> owners{"alice", "mallory"};
  EXPECT_THROW(service.query_ppi_many(owners), eppi::ConfigError);
  EXPECT_THROW(service.query_ppi_many(std::vector<std::string>{"mallory"}),
               eppi::ConfigError);
  // Before any publication the batch throws like the single-query path.
  LocatorService fresh{fast_options()};
  fresh.delegate("alice", 0.5, "general");
  EXPECT_THROW(fresh.query_ppi_many(owners), eppi::ConfigError);
}

// Foundation of the concurrent metamorphic test: with sticky publication
// noise and a fixed master key, the published epoch is a pure function of
// (membership, epsilons) — toggling one owner's ε back and forth alternates
// between exactly two answer maps.
TEST(ServingSnapshotTest, EpsilonToggleAlternatesDeterministically) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.delegate("alice", 0.05, "general");
  service.construct_ppi();
  const auto low = service.query_ppi_many(
      std::vector<std::string>{"alice", "bob", "carol"});

  service.delegate("alice", 0.95, "general");
  service.construct_ppi();
  const auto high = service.query_ppi_many(
      std::vector<std::string>{"alice", "bob", "carol"});

  service.delegate("alice", 0.05, "general");
  service.construct_ppi();
  const auto low_again = service.query_ppi_many(
      std::vector<std::string>{"alice", "bob", "carol"});

  EXPECT_EQ(low.providers, low_again.providers);
  EXPECT_EQ(low_again.epoch, 3u);
  // Monotone sticky noise: raising ε only adds claims for that owner.
  for (const auto& p : low.providers[0]) {
    EXPECT_NE(std::find(high.providers[0].begin(), high.providers[0].end(),
                        p),
              high.providers[0].end());
  }
}

TEST(ServingSnapshotTest, ServingStatusComesFromSnapshot) {
  LocatorService service{fast_options()};
  populate_hie(service);
  const auto before = service.serving_status();
  EXPECT_FALSE(before.serving);
  EXPECT_EQ(before.epoch, 0u);

  service.construct_ppi();
  const auto after = service.serving_status();
  EXPECT_TRUE(after.serving);
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_FALSE(after.degraded);
  EXPECT_GE(after.age_seconds, 0.0);

  // Delegation leaves the snapshot (and its status) serving.
  service.delegate("erin", 0.5, "general");
  EXPECT_TRUE(service.serving_status().serving);
}

TEST(ServingSnapshotTest, DegradedRebuildRepublishesStalenessAndMetrics) {
  LocatorService service{fast_options(/*distributed=*/true)};
  populate_hie(service);
  FaultToleranceOptions ft;
  ft.enabled = true;
  ft.stage_timeout = 150ms;
  ft.mpc_timeout = 3000ms;
  service.set_fault_tolerance(ft);
  service.construct_ppi();
  const auto healthy = service.query_ppi("alice");
  EXPECT_EQ(service.metrics().epoch_swaps, 1u);

  ft.fault_scenario = "crash 1 after 0 sends";
  service.set_fault_tolerance(ft);
  service.construct_ppi();  // degrades instead of throwing

  // The staleness republish is a swap too — readers must see the updated
  // labels — but it shares the served epoch's postings.
  EXPECT_EQ(service.metrics().epoch_swaps, 2u);
  const auto batch =
      service.query_ppi_many(std::vector<std::string>{"alice"});
  EXPECT_EQ(batch.providers[0], healthy);
  EXPECT_TRUE(batch.degraded);
  EXPECT_EQ(batch.epoch, 1u);
  EXPECT_EQ(batch.rebuilds_behind, 1u);
  EXPECT_GE(service.metrics().degraded_serves, 1u);
}

TEST(ServingSnapshotTest, AttachStoreResumePublishesSnapshot) {
  eppi::storage::MemVfs vfs;
  std::vector<std::string> answer;
  {
    LocatorService service{fast_options()};
    populate_hie(service);
    EpochStore store(vfs, "store");
    service.attach_store(store);
    service.construct_ppi();
    answer = service.query_ppi("alice");
  }
  vfs.crash();

  LocatorService restarted{fast_options()};
  populate_hie(restarted);
  EXPECT_FALSE(restarted.serving_status().serving);
  EpochStore store(vfs, "store");
  restarted.attach_store(store);
  // The recovered epoch is published to readers without any rebuild.
  EXPECT_TRUE(restarted.serving_status().serving);
  EXPECT_EQ(restarted.serving_status().epoch, 1u);
  EXPECT_EQ(restarted.query_ppi("alice"), answer);
  const auto batch =
      restarted.query_ppi_many(std::vector<std::string>{"alice"});
  EXPECT_EQ(batch.providers[0], answer);
  EXPECT_EQ(batch.epoch, 1u);
}

TEST(ServingSnapshotTest, MetricsCountServingTraffic) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();

  (void)service.query_ppi("alice");
  (void)service.query_ppi("bob");
  (void)service.query_ppi_with_status("carol");
  (void)service.query_ppi_many(std::vector<std::string>{"alice", "dave"});
  EXPECT_THROW(service.query_ppi("mallory"), eppi::ConfigError);

  const auto snap = service.metrics();
  EXPECT_EQ(snap.queries, 3u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.owners_resolved, 5u);
  EXPECT_EQ(snap.unknown_owners, 1u);
  EXPECT_EQ(snap.epoch_swaps, 1u);
  EXPECT_EQ(snap.degraded_serves, 0u);
  EXPECT_EQ(snap.latency.total, 4u);
  EXPECT_LE(snap.latency.quantile(0.5), snap.latency.quantile(0.99));
  EXPECT_GT(snap.latency.quantile(0.99), 0.0);
}

}  // namespace
}  // namespace eppi::core
