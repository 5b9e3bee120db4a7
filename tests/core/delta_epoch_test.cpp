// Incremental (delta) epochs, centralized path: the contract is exact — a
// rebuild_delta over a dirty set covering every changed column is
// BIT-IDENTICAL to a full rebuild over the same truth, because β*/ξ/λ are
// re-derived globally and every sticky decision is keyed, not drawn. The
// suite pins that equivalence, the membership (join/leave/rejoin) semantics,
// the LocatorService routing on top, and the posting-space splice the
// delta epochs are built with.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/error.h"
#include "core/epoch_manager.h"
#include "core/locator_service.h"
#include "core/owner_truth.h"
#include "core/posting_index.h"
#include "fixtures/publication.h"

namespace eppi::core {
namespace {

constexpr std::size_t kM = 6;
constexpr std::size_t kN = 24;

eppi::BitMatrix base_truth() {
  eppi::BitMatrix truth(kM, kN);
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if ((i * 5 + j * 11) % 7 < 2) truth.set(i, j, true);
    }
  }
  for (std::size_t i = 0; i < kM; ++i) truth.set(i, 0, true);  // common
  return truth;
}

std::vector<double> base_epsilons() {
  std::vector<double> eps(kN, 0.5);
  for (std::size_t j = 0; j < kN; ++j) eps[j] = 0.2 + 0.03 * (j % 20);
  return eps;
}

EpochManager::Options manager_options() {
  EpochManager::Options options;
  options.master_key = 9001;
  return options;
}

TEST(DeltaEpochTest, DeltaRebuildIsBitIdenticalToFullRebuild) {
  // Second-epoch truth: columns 3 and 17 change, and column 9 becomes
  // common (every provider holds it), which moves n_common and with it
  // ξ/λ — the widening machinery must chase the flipped mixing decisions.
  eppi::BitMatrix truth2 = base_truth();
  truth2.set(1, 3, !truth2.get(1, 3));
  truth2.set(4, 17, !truth2.get(4, 17));
  for (std::size_t i = 0; i < kM; ++i) truth2.set(i, 9, true);
  std::vector<double> eps2 = base_epsilons();
  eps2[3] = 0.9;  // the owner also raised their privacy degree

  EpochManager incremental(manager_options());
  incremental.rebuild(base_truth(), base_epsilons());
  EpochManager::DeltaRequest req;
  req.dirty = {3, 9, 17};
  const auto delta = incremental.rebuild_delta(truth2, eps2, req);

  EpochManager full(manager_options());
  full.rebuild(base_truth(), base_epsilons());
  const auto reference = full.rebuild(truth2, eps2);

  EXPECT_TRUE(delta.delta.delta);
  EXPECT_GE(delta.delta.recomputed, req.dirty.size());
  EXPECT_EQ(fixtures::dense(*delta.postings),
            fixtures::dense(*reference.postings));
  EXPECT_EQ(delta.churn, reference.churn);
}

TEST(DeltaEpochTest, FirstEpochFallsBackToFullTransparently) {
  EpochManager manager(manager_options());
  EpochManager::DeltaRequest req;
  req.dirty = {1, 2};
  const auto result =
      manager.rebuild_delta(base_truth(), base_epsilons(), req);
  EXPECT_FALSE(result.delta.delta);  // nothing to splice over yet
  EXPECT_EQ(result.epoch, 1u);

  EpochManager reference(manager_options());
  EXPECT_EQ(fixtures::dense(*result.postings),
            fixtures::dense(
                *reference.rebuild(base_truth(), base_epsilons()).postings));
}

TEST(DeltaEpochTest, LeaveZeroesRowAndRejoinRestoresStickyNoise) {
  const auto eps = base_epsilons();
  EpochManager manager(manager_options());
  const auto epoch1 = manager.rebuild(base_truth(), eps);

  // Provider 2 leaves: its truth row is withdrawn and its published row
  // must go fully dark (noise included — a lingering noise bit would leak
  // that the row was ever noisy).
  eppi::BitMatrix truth2 = base_truth();
  EpochManager::DeltaRequest leave;
  leave.left = {2};
  for (std::size_t j = 0; j < kN; ++j) {
    if (truth2.get(2, j)) {
      truth2.set(2, j, false);
      leave.dirty.push_back(static_cast<IdentityId>(j));
    }
  }
  const auto epoch2 = manager.rebuild_delta(truth2, eps, leave);
  EXPECT_EQ(manager.retired_count(), 1u);
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_FALSE(fixtures::dense(*epoch2.postings).get(2, j)) << "col " << j;
  }

  // A later FULL rebuild must keep honoring the retirement.
  const auto epoch3 = manager.rebuild(truth2, eps);
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_FALSE(fixtures::dense(*epoch3.postings).get(2, j)) << "col " << j;
  }

  // Rejoin with the original data: the published row must be byte-identical
  // to epoch 1's — the sticky noise key belongs to the id, not the session.
  EpochManager::DeltaRequest rejoin;
  rejoin.joined = {2};
  rejoin.dirty = leave.dirty;
  const auto epoch4 = manager.rebuild_delta(base_truth(), eps, rejoin);
  EXPECT_EQ(manager.retired_count(), 0u);
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(fixtures::dense(*epoch4.postings).get(2, j),
              fixtures::dense(*epoch1.postings).get(2, j))
        << "col " << j;
  }
}

TEST(DeltaEpochTest, JoinGrowsShapeAndMatchesFullRebuild) {
  const auto eps = base_epsilons();
  EpochManager incremental(manager_options());
  incremental.rebuild(base_truth(), eps);

  eppi::BitMatrix truth2(kM + 1, kN);
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (base_truth().get(i, j)) truth2.set(i, j, true);
    }
  }
  EpochManager::DeltaRequest join;
  join.joined = {static_cast<ProviderId>(kM)};
  for (const std::size_t j : {2u, 9u, 14u}) {
    truth2.set(kM, j, true);
    join.dirty.push_back(static_cast<IdentityId>(j));
  }
  const auto delta = incremental.rebuild_delta(truth2, eps, join);
  EXPECT_EQ(delta.postings->providers(), kM + 1);
  EXPECT_EQ(delta.delta.spliced_rows, 1u);

  EpochManager full(manager_options());
  full.rebuild(base_truth(), eps);
  const auto reference = full.rebuild(truth2, eps);
  EXPECT_EQ(fixtures::dense(*delta.postings),
            fixtures::dense(*reference.postings));
}

// --- LocatorService routing ------------------------------------------------

LocatorService::Options service_options(bool enable_delta) {
  LocatorService::Options options;
  options.distributed = false;
  options.seed = 5;
  options.enable_delta = enable_delta;
  return options;
}

void seed_service(LocatorService& svc) {
  for (int o = 0; o < 20; ++o) {
    svc.delegate("owner" + std::to_string(o), 0.3 + 0.02 * o,
                 "prov" + std::to_string(o % 5));
  }
}

TEST(DeltaEpochTest, ServiceDeltaPathAnswersIdenticallyToFullPath) {
  LocatorService with_delta(service_options(true));
  LocatorService without(service_options(false));
  seed_service(with_delta);
  seed_service(without);
  with_delta.construct_ppi();
  without.construct_ppi();

  // A small touch: one owner re-delegates with a new ε.
  with_delta.delegate("owner7", 0.95, "prov2");
  without.delegate("owner7", 0.95, "prov2");
  with_delta.construct_ppi();
  without.construct_ppi();

  EXPECT_TRUE(with_delta.last_rebuild().delta);
  EXPECT_FALSE(without.last_rebuild().delta);
  EXPECT_EQ(with_delta.last_rebuild().dirty, 1u);
  for (int o = 0; o < 20; ++o) {
    const std::string owner = "owner" + std::to_string(o);
    EXPECT_EQ(with_delta.query_ppi(owner), without.query_ppi(owner)) << owner;
  }
}

TEST(DeltaEpochTest, MostlyDirtyRebuildStillTakesDeltaPath) {
  LocatorService with_delta(service_options(true));
  LocatorService without(service_options(false));
  seed_service(with_delta);
  seed_service(without);
  with_delta.construct_ppi();
  without.construct_ppi();
  // Touch most owners: a row splice with nearly every column re-emitted
  // costs about one full encode, so the service still splices — and
  // answers exactly as a full rebuild does.
  for (int o = 0; o < 15; ++o) {
    with_delta.delegate("owner" + std::to_string(o), 0.8, "prov1");
    without.delegate("owner" + std::to_string(o), 0.8, "prov1");
  }
  with_delta.construct_ppi();
  without.construct_ppi();
  EXPECT_TRUE(with_delta.last_rebuild().delta);
  EXPECT_EQ(with_delta.last_rebuild().epoch, 2u);
  for (int o = 0; o < 20; ++o) {
    const std::string owner = "owner" + std::to_string(o);
    EXPECT_EQ(with_delta.query_ppi(owner), without.query_ppi(owner)) << owner;
  }
}

TEST(DeltaEpochTest, ServiceRetireAndRejoinFlowsThroughQueries) {
  LocatorService svc(service_options(true));
  seed_service(svc);
  svc.construct_ppi();

  svc.retire_provider("prov3");
  EXPECT_TRUE(svc.provider_retired(3));
  svc.construct_ppi();
  EXPECT_EQ(svc.last_rebuild().left, 1u);
  for (int o = 0; o < 20; ++o) {
    for (const auto& name : svc.query_ppi("owner" + std::to_string(o))) {
      EXPECT_NE(name, "prov3") << "owner" << o;
    }
  }

  // Delegating to the retired name rejoins it.
  svc.delegate("owner3", 0.4, "prov3");
  EXPECT_FALSE(svc.provider_retired(3));
  svc.construct_ppi();
  EXPECT_EQ(svc.last_rebuild().joined, 1u);
  const auto answer = svc.query_ppi("owner3");
  EXPECT_NE(std::find(answer.begin(), answer.end(), "prov3"), answer.end());
}

TEST(DeltaEpochTest, RetireUnknownProviderThrows) {
  LocatorService svc(service_options(true));
  EXPECT_THROW(svc.retire_provider("nobody"), eppi::ConfigError);
}

// --- posting-space splice ---------------------------------------------------

// Every shard of `a` and `b` is byte-identical: the same tagged offsets and
// the same arena.
void expect_same_bytes(const PostingIndex& a, const PostingIndex& b) {
  ASSERT_EQ(a.shard_count(), b.shard_count());
  EXPECT_EQ(a.providers(), b.providers());
  EXPECT_EQ(a.identities(), b.identities());
  for (std::size_t k = 0; k < a.shard_count(); ++k) {
    const auto offsets_a = a.shard(k)->tagged_offsets();
    const auto offsets_b = b.shard(k)->tagged_offsets();
    EXPECT_TRUE(std::equal(offsets_a.begin(), offsets_a.end(),
                           offsets_b.begin(), offsets_b.end()))
        << "shard " << k << " offsets";
    const auto arena_a = a.shard(k)->arena();
    const auto arena_b = b.shard(k)->arena();
    EXPECT_TRUE(std::equal(arena_a.begin(), arena_a.end(), arena_b.begin(),
                           arena_b.end()))
        << "shard " << k << " arena";
  }
}

// The rows of `published` for identities `ids`, laid end to end.
PostingLists rows_of(const eppi::BitMatrix& published,
                     const std::vector<IdentityId>& ids) {
  PostingLists rows;
  for (const IdentityId j : ids) {
    for (std::size_t i = 0; i < published.rows(); ++i) {
      if (published.get(i, j)) {
        rows.entries.push_back(static_cast<ProviderId>(i));
      }
    }
    rows.end_row();
  }
  return rows;
}

TEST(DeltaEpochTest, PostingSpliceMatchesFullInversion) {
  eppi::BitMatrix before(5, 16);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      if ((i + j) % 3 == 0) before.set(i, j, true);
    }
  }
  const PostingIndex base(before);

  // After: columns 4 and 11 recomputed, row 2 retired (zeroed), and the
  // matrix grew by one joined row touching arbitrary columns.
  eppi::BitMatrix after(6, 16);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      if (i != 2 && before.get(i, j)) after.set(i, j, true);
    }
  }
  after.set(0, 4, true);
  after.set(3, 11, true);
  for (const std::size_t j : {1u, 4u, 7u, 15u}) after.set(5, j, true);

  // Splice the rows that changed; the grown provider universe re-encodes
  // the rest.
  std::vector<IdentityId> ids;
  for (std::size_t j = 0; j < 16; ++j) {
    for (std::size_t i = 0; i < 5; ++i) {
      if (before.get(i, j) != after.get(i, j) || after.get(5, j)) {
        ids.push_back(static_cast<IdentityId>(j));
        break;
      }
    }
  }
  const PostingIndex spliced(base, 6, 16, ids, rows_of(after, ids));
  const PostingIndex full(after);

  ASSERT_EQ(spliced.identities(), full.identities());
  EXPECT_EQ(spliced.providers(), full.providers());
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(spliced.query(static_cast<IdentityId>(j)),
              full.query(static_cast<IdentityId>(j)))
        << "col " << j;
  }
  expect_same_bytes(spliced, full);

  // Same universe: untouched rows are copied as bytes, and a shard no
  // listed row falls in is shared.
  eppi::BitMatrix wide(5, 200);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 200; ++j) {
      if ((i * 7 + j) % 5 == 0) wide.set(i, j, true);
    }
  }
  const PostingIndex wide_base(wide, 64);
  eppi::BitMatrix wide_after = wide;
  wide_after.set(1, 70, !wide_after.get(1, 70));
  wide_after.set(4, 127, !wide_after.get(4, 127));
  const std::vector<IdentityId> wide_ids{70, 127};
  const PostingIndex wide_spliced(wide_base, 5, 200, wide_ids,
                                  rows_of(wide_after, wide_ids));
  expect_same_bytes(wide_spliced, PostingIndex(wide_after, 64));
  EXPECT_EQ(wide_spliced.shard(0), wide_base.shard(0));
  EXPECT_NE(wide_spliced.shard(1), wide_base.shard(1));
  EXPECT_EQ(wide_spliced.shard(2), wide_base.shard(2));
  EXPECT_EQ(hamming_distance(wide_base, wide_spliced), 2u);
}

TEST(DeltaEpochTest, PostingSpliceRejectsOutOfRangeInputs) {
  eppi::BitMatrix published(3, 4);
  const PostingIndex base(published);
  const auto splice = [&](std::size_t providers, std::size_t identities,
                          std::vector<IdentityId> ids) {
    PostingLists rows;
    for (std::size_t k = 0; k < ids.size(); ++k) rows.end_row();
    return PostingIndex(base, providers, identities, ids, rows);
  };
  EXPECT_THROW(splice(3, 4, {9}), eppi::ConfigError);      // out of range
  EXPECT_THROW(splice(3, 4, {2, 1}), eppi::ConfigError);   // not ascending
  EXPECT_THROW(splice(3, 5, {1}), eppi::ConfigError);      // new row missing
  EXPECT_THROW(splice(2, 4, {}), eppi::ConfigError);       // shrinks
  EXPECT_THROW(PostingIndex(base, 3, 4, std::vector<IdentityId>{1},
                            PostingLists{}),
               eppi::ConfigError);  // one row per identity
  PostingLists beyond;
  beyond.entries.push_back(7);  // provider outside the universe
  beyond.end_row();
  EXPECT_THROW(PostingIndex(base, 3, 4, std::vector<IdentityId>{1}, beyond),
               eppi::ConfigError);
}

// A delta epoch over two shards (n = 2^16 + 500, m = 8), step by step:
// each epoch is byte-identical, shard by shard, to a fresh full rebuild of
// the same state; a shard with no changed cell is the served epoch's shard
// itself; and churn is the Hamming distance of the dense epochs.
TEST(DeltaEpochTest, MultiShardDeltaMatchesFullRebuildShardByShard) {
  constexpr std::size_t kShardM = 8;
  std::size_t n = kDefaultShardSpan + 500;
  OwnerTruth truth;
  truth.providers = kShardM;
  truth.owners.resize(n);
  std::vector<double> eps(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < kShardM; ++i) {
      if ((i * 13 + j * 7) % 11 < 2) {
        truth.owners[j].push_back(static_cast<ProviderId>(i));
      }
    }
    eps[j] = 0.2 + 0.05 * static_cast<double>(j % 10);
  }
  for (std::size_t j = 0; j < n; j += 997) {  // a few common owners
    truth.owners[j].clear();
    for (std::size_t i = 0; i < kShardM; ++i) {
      truth.owners[j].push_back(static_cast<ProviderId>(i));
    }
  }

  // The basic policy keeps the common set to the fully held owners, so λ
  // stays inside (0, 1) and moves only when ξ or that set does.
  EpochManager::Options options = manager_options();
  options.policy = BetaPolicy::basic();
  EpochManager manager(options);
  auto served = manager.rebuild(truth, eps).postings;
  std::vector<ProviderId> retired;
  double lambda = 0.0;

  const auto step = [&](const std::string& what,
                        const EpochManager::DeltaRequest& request) {
    SCOPED_TRACE(what);
    const auto result = manager.rebuild_delta(truth, eps, request);
    ASSERT_TRUE(result.delta.delta);
    const PostingIndex& next = *result.postings;

    EpochManager fresh(options);
    EpochManager::DeltaRequest membership;
    membership.left = retired;
    const auto full = fresh.rebuild_delta(truth, eps, membership);
    ASSERT_FALSE(full.delta.delta);
    expect_same_bytes(next, *full.postings);

    const eppi::BitMatrix before = served->to_matrix_index().matrix();
    const eppi::BitMatrix after = next.to_matrix_index().matrix();
    if (before.rows() == after.rows() && before.cols() == after.cols()) {
      EXPECT_EQ(result.churn, before.hamming_distance(after));
    } else {
      EXPECT_EQ(result.churn, after.rows() * after.cols());
    }
    // Shard 0 is shared exactly when none of its cells changed.
    bool shard0_changed = before.rows() != after.rows();
    for (std::size_t i = 0; i < before.rows() && !shard0_changed; ++i) {
      for (std::size_t j = 0; j < kDefaultShardSpan; ++j) {
        if (before.get(i, j) != after.get(i, j)) {
          shard0_changed = true;
          break;
        }
      }
    }
    EXPECT_EQ(next.shard(0) == served->shard(0), !shard0_changed);
    lambda = manager.construction_info().lambda;
    served = result.postings;
  };

  {  // Dirty owners only in shard 1.
    EpochManager::DeltaRequest request;
    for (const std::size_t j : {kDefaultShardSpan + 3, n - 1}) {
      truth.owners[j] = {1, 5};
      request.dirty.push_back(static_cast<IdentityId>(j));
    }
    const auto shard0 = served->shard(0);
    step("dirty owners in shard 1", request);
    EXPECT_EQ(served->shard(0), shard0);
  }
  {  // Appended owners grow shard 1.
    for (std::size_t k = 0; k < 10; ++k) {
      truth.owners.push_back({static_cast<ProviderId>(k % kShardM)});
      eps.push_back(0.4);
    }
    n = truth.owners.size();
    step("appended owners", {});
  }
  {  // An ε change that makes an owner common moves λ.
    const std::size_t j = 12;
    truth.owners[j] = {0, 1, 2, 3, 4, 5, 6, 7};
    eps[j] = 0.9;
    const double before = lambda;
    EpochManager::DeltaRequest request;
    request.dirty = {static_cast<IdentityId>(j)};
    step("epsilon change moving lambda", request);
    EXPECT_NE(lambda, before);
  }
  {  // Provider 3 leaves: its facts are withdrawn and its row goes dark.
    EpochManager::DeltaRequest request;
    request.left = {3};
    for (std::size_t j = 0; j < n; ++j) {
      auto& holders = truth.owners[j];
      const auto at = std::find(holders.begin(), holders.end(), 3u);
      if (at == holders.end()) continue;
      holders.erase(at);
      request.dirty.push_back(static_cast<IdentityId>(j));
    }
    retired = {3};
    step("leave", request);
  }
  {  // A new provider joins with a few facts, growing the universe.
    truth.providers = kShardM + 1;
    EpochManager::DeltaRequest request;
    request.joined = {static_cast<ProviderId>(kShardM)};
    for (const std::size_t j : {std::size_t{40}, kDefaultShardSpan + 40}) {
      truth.owners[j].push_back(static_cast<ProviderId>(kShardM));
      request.dirty.push_back(static_cast<IdentityId>(j));
    }
    step("join", request);
  }
}

}  // namespace
}  // namespace eppi::core
