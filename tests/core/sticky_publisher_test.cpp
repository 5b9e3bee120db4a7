#include "core/sticky_publisher.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/publisher.h"
#include "dataset/synthetic.h"
#include "fixtures/publication.h"

namespace eppi::core {
namespace {

// One provider's published row: a one-provider epoch through the emitter.
std::vector<std::uint8_t> publish_row(std::uint64_t key,
                                      const std::vector<std::uint8_t>& local,
                                      const std::vector<double>& betas) {
  OwnerTruth truth;
  truth.providers = 1;
  truth.owners.resize(local.size());
  for (std::size_t j = 0; j < local.size(); ++j) {
    if (local[j] != 0) truth.owners[j] = {0};
  }
  const std::vector<std::uint64_t> keys{key};
  const PostingLists lists =
      fixtures::emit_all(StickyEmitter(keys, betas), truth);
  std::vector<std::uint8_t> row(local.size());
  for (std::size_t j = 0; j < local.size(); ++j) {
    row[j] = lists.row(j).empty() ? 0 : 1;
  }
  return row;
}

using fixtures::sticky_matrix;

TEST(StickyPublisherTest, DeterministicAcrossCalls) {
  const std::vector<std::uint8_t> local{0, 1, 0, 0, 1};
  const std::vector<double> betas{0.3, 0.3, 0.7, 0.0, 1.0};
  const auto a = publish_row(42, local, betas);
  const auto b = publish_row(42, local, betas);
  EXPECT_EQ(a, b);
}

TEST(StickyPublisherTest, DifferentKeysDecorrelate) {
  constexpr std::size_t kN = 4096;
  const std::vector<std::uint8_t> local(kN, 0);
  const std::vector<double> betas(kN, 0.5);
  const auto a = publish_row(1, local, betas);
  const auto b = publish_row(2, local, betas);
  std::size_t same = 0;
  for (std::size_t j = 0; j < kN; ++j) same += a[j] == b[j] ? 1 : 0;
  // Independent coins agree ~half the time.
  EXPECT_NEAR(static_cast<double>(same) / kN, 0.5, 0.05);
}

TEST(StickyPublisherTest, TruthfulBitsAlwaysPublished) {
  const std::vector<std::uint8_t> local{1, 1, 1};
  const std::vector<double> betas{0.0, 0.0, 0.0};
  const auto row = publish_row(7, local, betas);
  for (const auto bit : row) EXPECT_EQ(bit, 1);
}

TEST(StickyPublisherTest, MonotoneInBeta) {
  // Raising beta can only add noise, never remove it — the property that
  // makes successive reconstructions intersection-safe.
  constexpr std::size_t kN = 2048;
  const std::vector<std::uint8_t> local(kN, 0);
  std::vector<std::uint8_t> previous(kN, 0);
  for (const double beta : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    const std::vector<double> betas(kN, beta);
    const auto row = publish_row(99, local, betas);
    for (std::size_t j = 0; j < kN; ++j) {
      EXPECT_GE(row[j], previous[j]) << "beta=" << beta << " j=" << j;
    }
    previous = row;
  }
}

TEST(StickyPublisherTest, MarginalRateMatchesBeta) {
  // Across identities, the noise bits are Bernoulli(beta).
  constexpr std::size_t kN = 20000;
  const std::vector<std::uint8_t> local(kN, 0);
  for (const double beta : {0.2, 0.5, 0.8}) {
    const auto row = publish_row(123, local, std::vector<double>(kN, beta));
    std::size_t ones = 0;
    for (const auto bit : row) ones += bit;
    EXPECT_NEAR(static_cast<double>(ones) / kN, beta, 0.02) << beta;
  }
}

TEST(StickyPublisherTest, BetaEdgeCases) {
  const StickyPublisher publisher(5);
  EXPECT_FALSE(publisher.noise_bit(0, 0.0));
  EXPECT_TRUE(publisher.noise_bit(0, 1.0));
  EXPECT_FALSE(publisher.noise_bit(0, -1.0));
  EXPECT_TRUE(publisher.noise_bit(0, 2.0));
  EXPECT_EQ(sticky_threshold(0.0), 0u);
  EXPECT_EQ(sticky_threshold(0.5), std::uint64_t{1} << 63);
  EXPECT_EQ(sticky_threshold(1.0), kEveryDraw);
  EXPECT_LT(sticky_threshold(1.0 - 0x1p-53), kEveryDraw);
}

TEST(StickyPublisherTest, ValidatesInput) {
  const std::vector<std::uint64_t> keys{5};
  const std::vector<double> betas{0.5};
  const StickyEmitter emitter(keys, betas);
  std::vector<ProviderId> out;
  const std::vector<ProviderId> beyond{1};  // only provider 0 exists
  EXPECT_THROW(emitter.emit(0, beyond, out), eppi::ConfigError);
  EXPECT_THROW(emitter.emit(1, {}, out), eppi::ConfigError);
  EXPECT_THROW(emitter.publishes(1, 0, false), eppi::ConfigError);
  const std::vector<std::uint8_t> too_many{0, 0};
  EXPECT_THROW(StickyEmitter(keys, betas, too_many), eppi::ConfigError);
}

TEST(StickyPublishMatrixTest, ReconstructionOfUnchangedDataIsIdentical) {
  eppi::Rng rng(8);
  const auto net = eppi::dataset::make_network_with_frequencies(
      30, std::vector<std::uint64_t>{5, 10, 2}, rng);
  const std::vector<double> betas{0.4, 0.2, 0.7};
  std::vector<std::uint64_t> keys(30);
  for (auto& k : keys) k = rng.next();
  const auto first = sticky_matrix(net.membership, betas, keys);
  const auto second = sticky_matrix(net.membership, betas, keys);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(full_recall(net.membership, first));
}

TEST(StickyPublishMatrixTest, IntersectionAcrossEpochsRevealsNothingNew) {
  // With fresh randomness, intersecting two snapshots halves the noise;
  // with sticky noise the intersection *is* the snapshot.
  eppi::Rng rng(9);
  constexpr std::size_t kM = 500;
  eppi::BitMatrix truth(kM, 1);
  truth.set(0, 0, true);
  const std::vector<double> betas{0.5};
  std::vector<std::uint64_t> keys(kM);
  for (auto& k : keys) k = rng.next();

  const auto epoch1 = sticky_matrix(truth, betas, keys);
  const auto epoch2 = sticky_matrix(truth, betas, keys);
  std::size_t sticky_intersection = 0;
  for (std::size_t i = 0; i < kM; ++i) {
    if (epoch1.get(i, 0) && epoch2.get(i, 0)) ++sticky_intersection;
  }
  EXPECT_EQ(sticky_intersection, epoch1.col_count(0));

  const auto fresh1 = publish_matrix(truth, betas, rng);
  const auto fresh2 = publish_matrix(truth, betas, rng);
  std::size_t fresh_intersection = 0;
  for (std::size_t i = 0; i < kM; ++i) {
    if (fresh1.get(i, 0) && fresh2.get(i, 0)) ++fresh_intersection;
  }
  // Fresh noise decays under intersection (0.25 vs 0.5 expected rate) —
  // the attack sticky publication prevents.
  EXPECT_LT(fresh_intersection, sticky_intersection);
}

TEST(StickyPublishMatrixTest, ValidatesShapes) {
  eppi::BitMatrix truth(3, 2);
  const std::vector<double> betas{0.5};  // wrong length
  const std::vector<std::uint64_t> keys{1, 2, 3};
  EXPECT_THROW(sticky_matrix(truth, betas, keys), eppi::ConfigError);
  const std::vector<double> ok_betas{0.5, 0.5};
  const std::vector<std::uint64_t> bad_keys{1};
  EXPECT_THROW(sticky_matrix(truth, ok_betas, bad_keys),
               eppi::ConfigError);
}

}  // namespace
}  // namespace eppi::core
