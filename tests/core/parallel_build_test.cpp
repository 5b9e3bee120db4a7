// The set-up path in bulk and across cores (`ctest -L index`, run under
// TSan in CI): the parallel fork-join helper, the full epoch build that
// emits and encodes blocks of kEpochBuildBlock identities on several
// workers, and the bulk delegate. Each is checked against the serial form
// it replaces: the build against an identity-by-identity emit and one
// encode of the whole epoch (byte-identical shards, same postings CRC),
// the bulk delegate against the per-fact delegate loop (same ids, truth,
// ε, dirty owners, joins and next epoch).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/membership_fact.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/epoch_manager.h"
#include "core/epoch_store.h"
#include "core/locator_service.h"
#include "core/owner_truth.h"
#include "core/posting_index.h"
#include "core/sticky_publisher.h"
#include "fixtures/publication.h"

namespace eppi::core {
namespace {

TEST(ParallelForTest, RunsEveryIndexOnceOnAtMostOneWorkerPerIndex) {
  for (const std::size_t count : {0u, 1u, 2u, 7u, 1000u}) {
    const std::size_t workers = parallel_workers(count);
    EXPECT_GE(workers, 1u);
    EXPECT_LE(workers, std::max<std::size_t>(count, 1));
    EXPECT_LE(workers, affinity_cpus());
    std::vector<std::atomic<int>> runs(count);
    std::vector<std::size_t> worker_of(count, 0);
    parallel_for(count, [&](std::size_t worker, std::size_t i) {
      runs[i].fetch_add(1);
      worker_of[i] = worker;
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "count " << count << " index " << i;
      EXPECT_LT(worker_of[i], workers);
    }
  }
}

TEST(ParallelForTest, RethrowsTheFirstErrorAfterJoiningEveryWorker) {
  std::atomic<std::size_t> ran{0};
  try {
    parallel_for(64, [&](std::size_t, std::size_t i) {
      ran.fetch_add(1);
      if (i == 5) throw std::runtime_error("task 5");
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5");
  }
  // Every index claimed before the failing one ran; the call returned
  // only after each claimed task had finished.
  EXPECT_GE(ran.load(), 6u);
  EXPECT_LE(ran.load(), 64u);
}

// m providers, n owners: each owner held by 0-3 random providers, every
// 97th by all of them (a common identity).
OwnerTruth random_truth(std::size_t m, std::size_t n, std::uint64_t seed) {
  eppi::Rng rng(seed);
  OwnerTruth truth;
  truth.providers = m;
  truth.owners.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    auto& holders = truth.owners[j];
    if (j % 97 == 0) {
      for (std::size_t p = 0; p < m; ++p) {
        holders.push_back(static_cast<ProviderId>(p));
      }
      continue;
    }
    const std::size_t k = rng.next_below(4);
    for (std::size_t t = 0; t < k; ++t) {
      holders.push_back(static_cast<ProviderId>(rng.next_below(m)));
    }
    std::sort(holders.begin(), holders.end());
    holders.erase(std::unique(holders.begin(), holders.end()), holders.end());
  }
  return truth;
}

// The epoch the parallel build produced against the serial reference:
// every identity emitted in order under the β the manager derived, and
// the whole list encoded through the list constructor.
void expect_equals_serial_reference(const EpochManager& manager,
                                    const OwnerTruth& truth,
                                    const EpochManager::EpochResult& result,
                                    const std::vector<std::uint8_t>& retired,
                                    const std::string& what) {
  const std::size_t m = truth.providers;
  std::vector<std::uint64_t> keys(m);
  for (std::size_t i = 0; i < m; ++i) keys[i] = manager.provider_key(i);
  const StickyEmitter emitter(keys, result.info.betas, retired);
  const PostingIndex expected =
      fixtures::encode_lists(m, fixtures::emit_all(emitter, truth));

  const PostingIndex& got = *result.postings;
  ASSERT_EQ(got.providers(), expected.providers()) << what;
  ASSERT_EQ(got.identities(), expected.identities()) << what;
  ASSERT_EQ(got.shard_span(), expected.shard_span()) << what;
  ASSERT_EQ(got.shard_count(), expected.shard_count()) << what;
  for (std::size_t k = 0; k < got.shard_count(); ++k) {
    const PostingShard& a = *got.shard(k);
    const PostingShard& b = *expected.shard(k);
    EXPECT_EQ(a.first_identity(), b.first_identity()) << what;
    EXPECT_TRUE(std::ranges::equal(a.tagged_offsets(), b.tagged_offsets()))
        << what << " shard " << k;
    EXPECT_TRUE(std::ranges::equal(a.arena(), b.arena()))
        << what << " shard " << k;
    EXPECT_EQ(a.resident_bytes(), b.resident_bytes()) << what;
  }
  EXPECT_EQ(postings_checksum(got), postings_checksum(expected)) << what;
}

TEST(ParallelBuildTest, FullEpochEqualsSerialEmitAndEncode) {
  constexpr std::size_t kB = kEpochBuildBlock;
  for (const std::size_t n : {std::size_t{1}, kB - 1, kB, kB + 1, 3 * kB + 7}) {
    for (const bool mixing : {false, true}) {
      const std::size_t m = 70;  // past one 64-provider word
      const OwnerTruth truth = random_truth(m, n, n * 2 + mixing);
      std::vector<double> eps(n);
      for (std::size_t j = 0; j < n; ++j) eps[j] = 0.2 + 0.05 * (j % 13);
      EpochManager::Options options;
      options.master_key = 77;
      options.enable_mixing = mixing;
      EpochManager manager(options);
      // A first epoch with two providers retired runs the full build.
      EpochManager::DeltaRequest leave;
      leave.left = {0, 65};
      const auto result = manager.rebuild_delta(truth, eps, leave);
      ASSERT_FALSE(result.delta.delta);
      std::vector<std::uint8_t> retired(m, 0);
      retired[0] = retired[65] = 1;
      std::string what = std::to_string(n);
      what += mixing ? " identities, mixing" : " identities, no mixing";
      expect_equals_serial_reference(manager, truth, result, retired, what);
      // And a second full build over the same state is the same epoch.
      const auto again = manager.rebuild(truth, eps);
      EXPECT_EQ(again.churn, 0u) << what;
      EXPECT_EQ(postings_checksum(*again.postings),
                postings_checksum(*result.postings))
          << what;
    }
  }
}

TEST(ParallelBuildTest, FullEpochPastOneShardEqualsSerialReference) {
  const std::size_t m = 5;
  const std::size_t n = kDefaultShardSpan + 2 * kEpochBuildBlock + 3;
  const OwnerTruth truth = random_truth(m, n, 404);
  const std::vector<double> eps(n, 0.6);
  EpochManager::Options options;
  options.master_key = 5;
  EpochManager manager(options);
  EpochManager::DeltaRequest leave;
  leave.left = {2};
  const auto result = manager.rebuild_delta(truth, eps, leave);
  ASSERT_EQ(result.postings->shard_count(), 2u);
  expect_equals_serial_reference(manager, truth, result, {0, 0, 1, 0, 0},
                                 "two shards");
}

// Provider-major facts of a small collection, with duplicates: provider
// p holds owner j when (p * 7 + j * 3) % 5 < 2.
struct Collection {
  std::vector<std::string> owners;
  std::vector<std::string> providers;
  std::vector<eppi::MembershipFact> facts;
};

Collection small_collection(std::size_t m, std::size_t n) {
  Collection c;
  for (std::size_t j = 0; j < n; ++j) {
    c.owners.emplace_back("owner-");
    c.owners.back() += std::to_string(j);
  }
  for (std::size_t p = 0; p < m; ++p) {
    c.providers.emplace_back("prov-");
    c.providers.back() += std::to_string(p);
  }
  for (std::uint32_t p = 0; p < m; ++p) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if ((p * 7 + j * 3) % 5 >= 2) continue;
      c.facts.push_back({p, j});
      if (j % 4 == 1) c.facts.push_back({p, j});  // a repeated fact
    }
  }
  return c;
}

void delegate_one_by_one(LocatorService& service, const Collection& c,
                         double eps) {
  for (const auto& f : c.facts) {
    service.delegate(c.owners[f.identity], eps, c.providers[f.provider]);
  }
}

void expect_same_service(const LocatorService& a, const LocatorService& b,
                         const std::string& what) {
  ASSERT_EQ(a.n_owners(), b.n_owners()) << what;
  ASSERT_EQ(a.n_providers(), b.n_providers()) << what;
  for (IdentityId t = 0; t < a.n_owners(); ++t) {
    EXPECT_EQ(a.owner_name(t), b.owner_name(t)) << what;
    EXPECT_EQ(a.owner_epsilon(t), b.owner_epsilon(t)) << what;
  }
  for (ProviderId p = 0; p < a.n_providers(); ++p) {
    EXPECT_EQ(a.provider_name(p), b.provider_name(p)) << what;
  }
  EXPECT_EQ(a.membership_for_testing(), b.membership_for_testing()) << what;
}

TEST(DelegateFactsTest, EqualsThePerFactLoop) {
  LocatorService::Options options;
  options.distributed = false;
  options.seed = 31;
  LocatorService loop(options);
  LocatorService bulk(options);

  // Owners and providers first seen out of name-table order: owner ids
  // follow the facts, not owner_names.
  Collection first = small_collection(9, 40);
  std::reverse(first.owners.begin(), first.owners.end());
  delegate_one_by_one(loop, first, 0.4);
  bulk.delegate_facts(first.owners, first.providers, first.facts, 0.4);
  expect_same_service(loop, bulk, "fresh");
  loop.construct_ppi();
  bulk.construct_ppi();
  EXPECT_EQ(postings_checksum(loop.index().matrix()),
            postings_checksum(bulk.index().matrix()));

  // On a serving service: new providers join, known owners gain facts
  // from providers with smaller and larger ids, new owners appear, and
  // every touched owner takes the new ε.
  Collection second = small_collection(12, 55);
  std::reverse(second.providers.begin(), second.providers.end());
  for (auto& f : second.facts) f.provider = 11 - f.provider;
  second.providers.push_back("late-prov");
  second.facts.push_back({12, 3});
  delegate_one_by_one(loop, second, 0.7);
  bulk.delegate_facts(second.owners, second.providers, second.facts, 0.7);
  expect_same_service(loop, bulk, "serving");
  loop.construct_ppi();
  bulk.construct_ppi();
  EXPECT_TRUE(bulk.last_rebuild().delta);
  EXPECT_EQ(loop.last_rebuild().dirty, bulk.last_rebuild().dirty);
  EXPECT_EQ(loop.last_rebuild().joined, bulk.last_rebuild().joined);
  EXPECT_EQ(bulk.last_rebuild().joined, 4u);  // prov-9..11 and late-prov
  EXPECT_EQ(postings_checksum(loop.index().matrix()),
            postings_checksum(bulk.index().matrix()));

  // A retired provider named by a fact rejoins, as with delegate().
  loop.retire_provider("prov-2");
  bulk.retire_provider("prov-2");
  loop.construct_ppi();
  bulk.construct_ppi();
  const std::vector<std::string> owners{"owner-1"};
  const std::vector<std::string> providers{"prov-2"};
  const std::vector<eppi::MembershipFact> facts{{0, 0}};
  loop.delegate("owner-1", 0.3, "prov-2");
  bulk.delegate_facts(owners, providers, facts, 0.3);
  EXPECT_FALSE(bulk.provider_retired(2));
  expect_same_service(loop, bulk, "rejoin");
  loop.construct_ppi();
  bulk.construct_ppi();
  EXPECT_EQ(loop.last_rebuild().joined, bulk.last_rebuild().joined);
  EXPECT_EQ(postings_checksum(loop.index().matrix()),
            postings_checksum(bulk.index().matrix()));
}

TEST(DelegateFactsTest, RejectsBadInputBeforeChangingAnything) {
  LocatorService service;
  const std::vector<std::string> owners{"a", "b"};
  const std::vector<std::string> providers{"p"};
  const std::vector<eppi::MembershipFact> past_owner{{0, 0}, {0, 2}};
  EXPECT_THROW(service.delegate_facts(owners, providers, past_owner, 0.5),
               eppi::ConfigError);
  const std::vector<eppi::MembershipFact> past_provider{{1, 0}};
  EXPECT_THROW(service.delegate_facts(owners, providers, past_provider, 0.5),
               eppi::ConfigError);
  const std::vector<eppi::MembershipFact> ok{{0, 1}};
  EXPECT_THROW(service.delegate_facts(owners, providers, ok, 1.5),
               eppi::ConfigError);
  EXPECT_EQ(service.n_owners(), 0u);
  EXPECT_EQ(service.n_providers(), 0u);
  // No facts, nothing registered.
  service.delegate_facts(owners, providers, {}, 0.5);
  EXPECT_EQ(service.n_owners(), 0u);
  service.delegate_facts(owners, providers, ok, 0.5);
  EXPECT_EQ(service.n_owners(), 1u);
  EXPECT_EQ(service.owner_name(0), "b");
  EXPECT_EQ(service.owner_epsilon(0), 0.5);
}

}  // namespace
}  // namespace eppi::core
