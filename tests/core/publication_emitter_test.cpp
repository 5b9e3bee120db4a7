// The one publication emitter against the sticky rule written cell by cell
// (`ctest -L index`). The reference below is the rule as the paper states
// it — provider i publishes identity j iff it holds j or its keyed draw
// falls below β_j·2⁶⁴ — evaluated in long double with no hoisted
// threshold, no word masks and no list walking. The emitter must agree
// with it bit for bit at every provider count around the 64-bit word edge,
// at the β edges, with retired and re-joined providers, and with λ-mixing
// on and off. Full epochs of three seeded collections are pinned by their
// postings CRC, so a change to the emitter cannot move one published bit
// unnoticed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_matrix.h"
#include "common/rng.h"
#include "core/epoch_manager.h"
#include "core/epoch_store.h"
#include "core/owner_truth.h"
#include "core/sticky_publisher.h"
#include "dataset/synthetic.h"
#include "fixtures/publication.h"

namespace eppi::core {
namespace {

// truth || draw(key_i, j) < β_j·2⁶⁴, and nothing from a retired provider.
eppi::BitMatrix reference_publication(
    const eppi::BitMatrix& truth, const std::vector<double>& betas,
    const std::vector<std::uint64_t>& keys,
    const std::vector<std::uint8_t>& retired) {
  eppi::BitMatrix published(truth.rows(), truth.cols());
  for (std::size_t i = 0; i < truth.rows(); ++i) {
    if (i < retired.size() && retired[i] != 0) continue;
    const StickyPublisher prf(keys[i]);
    for (std::size_t j = 0; j < truth.cols(); ++j) {
      const long double draw = static_cast<long double>(prf.draw(j));
      if (truth.get(i, j) ||
          draw < std::ldexp(static_cast<long double>(betas[j]), 64)) {
        published.set(i, j, true);
      }
    }
  }
  return published;
}

eppi::BitMatrix random_truth(std::size_t m, std::size_t n,
                             std::uint64_t seed, double density) {
  eppi::Rng rng(seed);
  eppi::BitMatrix truth(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) truth.set(i, j, true);
    }
  }
  return truth;
}

using fixtures::dense_lists;

TEST(PublicationEmitterTest, MatchesPerCellReference) {
  const std::vector<double> edge_betas = {0.0, std::ldexp(1.0, -60), 0.5,
                                          1.0 - std::ldexp(1.0, -53), 1.0};
  for (const std::size_t m : {1u, 63u, 64u, 65u, 1000u}) {
    const std::size_t n = 3 * edge_betas.size();
    eppi::Rng rng(m);
    std::vector<double> betas(n);
    for (std::size_t j = 0; j < n; ++j) betas[j] = edge_betas[j % 5];
    std::vector<std::uint64_t> keys(m);
    for (auto& k : keys) k = rng.next();
    const eppi::BitMatrix truth = random_truth(m, n, m + 1, 0.2);
    // Every third provider retired (none when m = 1, so the lone provider
    // is covered active; a second pass retires it).
    std::vector<std::uint8_t> retired(m, 0);
    for (std::size_t i = 1; i < m; i += 3) retired[i] = 1;
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) retired[0] = 1;
      const StickyEmitter emitter(keys, betas, retired);
      const PostingLists lists =
          fixtures::emit_all(emitter, owner_truth(truth));
      const eppi::BitMatrix expected =
          reference_publication(truth, betas, keys, retired);
      EXPECT_EQ(dense_lists(m, lists), expected) << "m=" << m;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(emitter.publishes(static_cast<ProviderId>(i),
                                      static_cast<IdentityId>(j),
                                      truth.get(i, j)),
                    expected.get(i, j))
              << "m=" << m << " cell " << i << "," << j;
        }
      }
    }
  }
}

TEST(PublicationEmitterTest, CountsWhatItHashes) {
  const std::vector<double> betas = {0.0, 0.25, 1.0, 0.5, 1.0};
  const std::vector<std::uint64_t> keys(70, 9);
  const StickyEmitter emitter(keys, betas);
  EXPECT_EQ(emitter.cells_hashed(), 2u * 70u);  // the two 0 < β < 1 columns
  EXPECT_EQ(emitter.full_columns(), 2u);
}

// Every kernel this CPU runs, against the draw written cell by cell: the
// mask at the threshold edges and at a draw's own value. The baseline is
// always among them, so it runs on every host. Then whole columns emitted
// through the emitter's kernel, with retired providers (the last one among
// them), at every provider count around the 64-provider block.
TEST(PublicationEmitterTest, EveryKernelMatchesTheDrawCellByCell) {
  const std::span<const StickyKernel> kernels = sticky_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "baseline");
  const std::vector<std::uint64_t> thresholds = {
      0, 1, std::uint64_t{1} << 63, kEveryDraw - 1, kEveryDraw};
  eppi::Rng rng(41);
  for (const StickyKernel& kernel : kernels) {
    SCOPED_TRACE(kernel.name);
    std::vector<std::uint64_t> streams(64);
    for (int round = 0; round < 64; ++round) {
      for (auto& stream : streams) stream = rng.next();
      const std::uint64_t j = rng.next_below(std::uint64_t{1} << 32);
      std::vector<std::uint64_t> edges = thresholds;
      const std::uint64_t own = mix64(streams[round] + j);
      edges.push_back(own);  // lane `round` is not below its own draw
      edges.push_back(own + 1);
      for (const std::uint64_t t : edges) {
        std::uint64_t want = 0;
        for (std::size_t b = 0; b < 64; ++b) {
          want |= static_cast<std::uint64_t>(mix64(streams[b] + j) < t) << b;
        }
        ASSERT_EQ(kernel.mask(streams.data(), j, t), want) << "threshold " << t;
      }
    }
  }

  // β for the thresholds emit() reaches: 0, 1, 2^63, 2^64 - 2^11 (the
  // largest below kEveryDraw a β maps to) and kEveryDraw.
  const std::vector<double> edge_betas = {0.0, std::ldexp(1.0, -64), 0.5,
                                          1.0 - std::ldexp(1.0, -53), 1.0};
  ASSERT_EQ(sticky_threshold(edge_betas[1]), 1u);
  ASSERT_EQ(sticky_threshold(edge_betas[2]), thresholds[2]);
  ASSERT_EQ(sticky_threshold(edge_betas[3]), kEveryDraw - 2047);
  for (const std::size_t m : {1u, 63u, 64u, 65u, 1000u, 1025u}) {
    const std::size_t n = 4 * edge_betas.size();
    std::vector<double> betas(n);
    for (std::size_t j = 0; j < n; ++j) betas[j] = edge_betas[j % 5];
    std::vector<std::uint64_t> keys(m);
    for (auto& k : keys) k = rng.next();
    const OwnerTruth truth = owner_truth(random_truth(m, n, m + 3, 0.1));
    std::vector<std::uint8_t> retired(m, 0);
    for (std::size_t i = 2; i < m; i += 5) retired[i] = 1;
    retired[m - 1] = 1;
    const StickyEmitter emitter(keys, betas, retired);
    std::vector<ProviderId> got;
    std::vector<ProviderId> want;
    for (std::size_t j = 0; j < n; ++j) {
      const auto id = static_cast<IdentityId>(j);
      got.clear();
      emitter.emit(id, truth.owners[j], got);
      want.clear();
      const std::uint64_t threshold = sticky_threshold(betas[j]);
      for (std::size_t i = 0; i < m; ++i) {
        const auto p = static_cast<ProviderId>(i);
        if (retired[i] == 0 &&
            (truth.holds(p, id) ||
             sticky_bit(StickyPublisher(keys[i]).draw(j), threshold))) {
          want.push_back(p);
        }
      }
      ASSERT_EQ(got, want) << "m=" << m << " identity " << j;
    }
  }
}

// Epochs through the manager: retire, publish, re-join through the delta
// path, with and without λ-mixing. Each epoch equals the reference under
// the β the manager derived, and the delta epoch equals a full rebuild of
// the same state.
TEST(PublicationEmitterTest, EpochsMatchReferenceAcrossRetireAndRejoin) {
  for (const bool mixing : {false, true}) {
    eppi::Rng rng(mixing ? 5 : 6);
    dataset::SyntheticConfig cfg;
    cfg.providers = 65;
    cfg.identities = 400;
    const auto net = dataset::make_zipf_network(cfg, rng);
    const auto eps = dataset::random_epsilons(cfg.identities, rng, 0.3, 0.9);
    EpochManager::Options opt;
    opt.master_key = 17;
    opt.enable_mixing = mixing;

    std::vector<std::uint64_t> keys(cfg.providers);
    EpochManager manager(opt);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = manager.provider_key(i);
    }
    std::vector<std::uint8_t> retired(cfg.providers, 0);
    retired[0] = retired[7] = retired[64] = 1;

    // Full epoch with three providers retired.
    EpochManager::DeltaRequest leave;
    leave.left = {0, 7, 64};
    const auto first = manager.rebuild_delta(net.membership, eps, leave);
    ASSERT_FALSE(first.delta.delta);
    ASSERT_NE(first.postings, nullptr);
    const ConstructionInfo& first_info = manager.construction_info();
    if (mixing) {
      EXPECT_GT(first_info.lambda, 0.0);
      EXPECT_LT(first_info.lambda, 1.0);
    }
    const eppi::BitMatrix expected_first =
        reference_publication(net.membership, first_info.betas, keys, retired);
    EXPECT_EQ(fixtures::dense(*first.postings), expected_first)
        << "mixing " << mixing;

    // Provider 7 re-joins: a delta epoch.
    EpochManager::DeltaRequest join;
    join.joined = {7};
    const auto second = manager.rebuild_delta(net.membership, eps, join);
    ASSERT_TRUE(second.delta.delta);
    retired[7] = 0;
    EXPECT_EQ(fixtures::dense(*second.postings),
              reference_publication(net.membership,
                                    manager.construction_info().betas, keys,
                                    retired));

    // A fresh manager with the same membership builds the same epoch whole.
    EpochManager fresh(opt);
    EpochManager::DeltaRequest same;
    same.left = {0, 64};
    const auto full = fresh.rebuild_delta(net.membership, eps, same);
    ASSERT_FALSE(full.delta.delta);
    EXPECT_EQ(fixtures::dense(*full.postings),
              fixtures::dense(*second.postings));
  }
}

// Postings CRCs of full epochs, captured from the provider-major publisher
// this emitter replaced. Equal CRCs mean byte-identical published epochs.
TEST(PublicationEmitterTest, FullEpochCrcsArePinned) {
  {
    eppi::Rng rng(11);
    dataset::SyntheticConfig cfg;
    cfg.providers = 200;
    cfg.identities = 3000;
    const auto net = dataset::make_zipf_network(cfg, rng);
    const auto eps = dataset::random_epsilons(cfg.identities, rng, 0.1, 0.5);
    EpochManager::Options opt;
    opt.master_key = 7;
    EpochManager manager(opt);
    const auto r = manager.rebuild(net.membership, eps);
    EXPECT_EQ(postings_checksum(*r.postings), 0x7996c940u);
    EXPECT_EQ(postings_checksum(fixtures::dense(*r.postings)), 0x7996c940u);
    EXPECT_EQ(fixtures::dense(*r.postings).popcount(), 21351u);
  }
  {
    // Mixing off, two providers retired on the first (full) epoch.
    eppi::Rng rng(12);
    dataset::SyntheticConfig cfg;
    cfg.providers = 65;
    cfg.identities = 1000;
    const auto net = dataset::make_zipf_network(cfg, rng);
    const auto eps = dataset::random_epsilons(cfg.identities, rng, 0.2, 0.9);
    EpochManager::Options opt;
    opt.master_key = 8;
    opt.enable_mixing = false;
    EpochManager manager(opt);
    EpochManager::DeltaRequest req;
    req.left = {3, 40};
    const auto r = manager.rebuild_delta(net.membership, eps, req);
    ASSERT_FALSE(r.delta.delta);
    EXPECT_EQ(postings_checksum(*r.postings), 0xce1e1929u);
    EXPECT_EQ(fixtures::dense(*r.postings).popcount(), 9280u);
  }
  {
    // The benchmark's shape in small: m = 1000, one ε for every owner.
    eppi::Rng rng(13);
    dataset::SyntheticConfig cfg;
    cfg.providers = 1000;
    cfg.identities = 5000;
    const auto net = dataset::make_zipf_network(cfg, rng);
    const std::vector<double> eps(cfg.identities, 0.6);
    EpochManager::Options opt;
    opt.master_key = 3;
    EpochManager manager(opt);
    const auto r = manager.rebuild(net.membership, eps);
    EXPECT_EQ(postings_checksum(*r.postings), 0xc208a8f3u);
    EXPECT_EQ(fixtures::dense(*r.postings).popcount(), 66804u);
  }
}

}  // namespace
}  // namespace eppi::core
