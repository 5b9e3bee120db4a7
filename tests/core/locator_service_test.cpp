#include "core/locator_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/epoch_manager.h"

namespace eppi::core {
namespace {

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

TEST(LocatorServiceTest, RegistrationIsIdempotent) {
  LocatorService service{fast_options()};
  const auto p1 = service.register_provider("general");
  const auto p2 = service.register_provider("general");
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(service.n_providers(), 1u);
  const auto t1 = service.register_owner("alice");
  const auto t2 = service.register_owner("alice");
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(service.provider_name(p1), "general");
  EXPECT_EQ(service.owner_name(t1), "alice");
}

TEST(LocatorServiceTest, DelegateValidatesEpsilon) {
  LocatorService service{fast_options()};
  EXPECT_THROW(service.delegate("a", 1.5, "p"), eppi::ConfigError);
  EXPECT_THROW(service.delegate("a", -0.1, "p"), eppi::ConfigError);
}

TEST(LocatorServiceTest, QueryBeforeConstructionThrows) {
  LocatorService service{fast_options()};
  service.delegate("alice", 0.5, "general");
  EXPECT_THROW(service.query_ppi("alice"), eppi::ConfigError);
  EXPECT_THROW(service.index(), eppi::ConfigError);
}

TEST(LocatorServiceTest, ConstructionRequiresDelegations) {
  LocatorService service{fast_options()};
  EXPECT_THROW(service.construct_ppi(), eppi::ConfigError);
}

TEST(LocatorServiceTest, QueryIncludesEveryTrueProvider) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();
  const auto result = service.query_ppi("alice");
  EXPECT_NE(std::find(result.begin(), result.end(), "general"), result.end());
  EXPECT_NE(std::find(result.begin(), result.end(), "mercy"), result.end());
}

TEST(LocatorServiceTest, SearchSeparatesMatchesFromNoise) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();
  const auto result = service.search("dr-jones", "bob");
  ASSERT_EQ(result.matched, (std::vector<std::string>{"general"}));
  EXPECT_GE(result.contacted.size(), result.matched.size());
  EXPECT_TRUE(result.denied.empty());
}

TEST(LocatorServiceTest, AuthorizerGatesAccess) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();
  const auto result = service.search(
      "intruder", "alice",
      [](const std::string&, const std::string& provider) {
        return provider == "mercy";  // only mercy trusts this searcher
      });
  EXPECT_EQ(result.matched, (std::vector<std::string>{"mercy"}));
  EXPECT_FALSE(result.denied.empty());
}

TEST(LocatorServiceTest, UnknownOwnerQueryThrows) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();
  EXPECT_THROW(service.query_ppi("mallory"), eppi::ConfigError);
  EXPECT_THROW(service.search("s", "mallory"), eppi::ConfigError);
}

TEST(LocatorServiceTest, DelegationInvalidatesIndex) {
  LocatorService service{fast_options()};
  populate_hie(service);
  service.construct_ppi();
  EXPECT_TRUE(service.constructed());
  service.delegate("erin", 0.5, "general");
  EXPECT_FALSE(service.constructed());
  service.construct_ppi();
  EXPECT_FALSE(service.query_ppi("erin").empty());
}

TEST(LocatorServiceTest, DistributedModeProducesReport) {
  LocatorService service{fast_options(/*distributed=*/true)};
  populate_hie(service);
  service.construct_ppi();
  ASSERT_TRUE(service.last_report().has_value());
  EXPECT_GT(service.last_report()->total_cost.messages, 0u);
  // Searches still find everything through the securely built index.
  const auto result = service.search("er-doc", "carol");
  EXPECT_EQ(result.matched.size(), 4u);
}

TEST(LocatorServiceTest, CentralizedModeHasNoReport) {
  LocatorService service{fast_options(/*distributed=*/false)};
  populate_hie(service);
  service.construct_ppi();
  EXPECT_FALSE(service.last_report().has_value());
}

TEST(LocatorServiceTest, DistributedNeedsEnoughProviders) {
  LocatorService service{fast_options(/*distributed=*/true)};
  service.delegate("alice", 0.5, "general");  // 1 provider < c = 3
  EXPECT_THROW(service.construct_ppi(), eppi::ConfigError);
}

// The per-owner truth under every kind of maintenance: a duplicate
// delegation, a new ε, retire then re-join, and a delegation that re-joins
// a retired provider. After each delta epoch the service's truth equals a
// dense reference kept by the test, search() matches exactly the reference
// holders, and the delta epoch is bit-identical to a full rebuild of the
// same state by a fresh manager.
TEST(LocatorServiceTest, OwnerTruthMaintenanceMatchesDenseReference) {
  LocatorService::Options options = fast_options();
  options.delta_max_dirty_fraction = 1.0;  // every rebuild after the first
                                           // takes the delta path
  LocatorService service{options};
  std::map<std::string, std::set<std::string>> holders;  // the reference
  std::map<std::string, double> eps;
  std::set<std::string> retired;
  const auto delegate = [&](const std::string& owner, double e,
                            const std::string& provider) {
    service.delegate(owner, e, provider);
    holders[owner].insert(provider);
    eps[owner] = e;
    retired.erase(provider);  // delegating to a retired provider re-joins it
  };
  const std::vector<std::string> providers = {"general", "mercy", "lakeside",
                                              "county", "valley", "harbor"};
  for (std::size_t j = 0; j < 30; ++j) {
    for (std::size_t i = 0; i < providers.size(); ++i) {
      if ((i * 7 + j * 3) % 5 < 2) {
        delegate("owner" + std::to_string(j), 0.3 + 0.02 * j, providers[i]);
      }
    }
  }

  const auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    service.construct_ppi();
    eppi::BitMatrix reference(service.n_providers(), service.n_owners());
    std::vector<double> epsilons(service.n_owners());
    for (std::size_t t = 0; t < service.n_owners(); ++t) {
      const std::string& owner = service.owner_name(static_cast<IdentityId>(t));
      epsilons[t] = eps[owner];
      for (std::size_t p = 0; p < service.n_providers(); ++p) {
        const std::string& name = service.provider_name(static_cast<ProviderId>(p));
        if (holders[owner].count(name) != 0) reference.set(p, t, true);
      }
      const auto found = service.search("auditor", owner).matched;
      EXPECT_EQ(std::set<std::string>(found.begin(), found.end()),
                holders[owner])
          << owner;
    }
    EXPECT_EQ(service.membership_for_testing(), reference);

    EpochManager::Options mo;
    mo.policy = options.policy;
    mo.master_key = options.seed;
    EpochManager full(mo);
    EpochManager::DeltaRequest membership;
    for (std::size_t p = 0; p < service.n_providers(); ++p) {
      if (retired.count(service.provider_name(static_cast<ProviderId>(p)))) {
        membership.left.push_back(static_cast<ProviderId>(p));
        EXPECT_TRUE(service.provider_retired(static_cast<ProviderId>(p)));
      }
    }
    const auto rebuilt = full.rebuild_delta(reference, epsilons, membership);
    ASSERT_FALSE(rebuilt.delta.delta);
    EXPECT_EQ(service.index().matrix(), rebuilt.index.matrix());
  };

  check("first epoch");
  EXPECT_FALSE(service.last_rebuild().delta);

  delegate("owner3", eps["owner3"], *holders["owner3"].begin());
  check("duplicate delegation");
  EXPECT_TRUE(service.last_rebuild().delta);

  delegate("owner4", 0.9, *holders["owner4"].begin());
  check("re-delegation with a new epsilon");
  EXPECT_TRUE(service.last_rebuild().delta);

  service.retire_provider("mercy");
  for (auto& [owner, held] : holders) held.erase("mercy");
  retired.insert("mercy");
  check("retire");
  EXPECT_EQ(service.last_rebuild().left, 1u);

  service.register_provider("mercy");
  retired.erase("mercy");
  check("re-join");
  EXPECT_EQ(service.last_rebuild().joined, 1u);

  service.retire_provider("county");
  for (auto& [owner, held] : holders) held.erase("county");
  retired.insert("county");
  check("retire another");

  delegate("owner5", 0.4, "county");
  check("delegation to a retired provider");
  EXPECT_EQ(service.last_rebuild().joined, 1u);
  EXPECT_FALSE(service.provider_retired(
      service.register_provider("county")));
}

}  // namespace
}  // namespace eppi::core
