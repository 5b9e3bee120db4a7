// Lifecycle integration: a network that keeps evolving, an epoch manager
// that keeps rebuilding, and audits that keep passing.
#include <gtest/gtest.h>

#include "attack/threat_report.h"
#include "common/error.h"
#include "core/epoch_manager.h"
#include "core/publisher.h"
#include "dataset/evolution.h"
#include "dataset/synthetic.h"
#include "fixtures/publication.h"

namespace eppi {
namespace {

TEST(LifecycleTest, EvolvingNetworkStaysPrivateAcrossEpochs) {
  Rng rng(77);
  constexpr std::size_t kM = 150;
  constexpr std::size_t kN = 60;
  std::vector<std::uint64_t> freqs(kN, 3);
  freqs[0] = 145;
  auto net = dataset::make_network_with_frequencies(kM, freqs, rng);
  const auto epsilons = dataset::random_epsilons(kN, rng, 0.4, 0.8);

  core::EpochManager manager;
  dataset::EvolutionConfig churn;
  churn.new_delegations_per_step = 6.0;
  dataset::NetworkEvolution evolution(net.membership, churn, Rng(78));

  core::EpochManager::EpochResult previous;
  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto result = manager.rebuild(net.membership, epsilons);

    // Invariants every epoch: recall, bounded churn, privacy audit.
    EXPECT_TRUE(core::full_recall(net.membership,
                                  core::fixtures::dense(*result.postings)))
        << "epoch " << epoch;
    if (epoch > 0) {
      // Churn stays in the same order as the ground-truth change (a few
      // delegations per step touch a few columns), far below full rebuild.
      EXPECT_LT(result.churn, kM * kN / 4) << "epoch " << epoch;
    }
    Rng audit_rng(100 + epoch);
    // Ground-truth common flags at this epoch.
    std::vector<bool> common(kN);
    for (std::size_t j = 0; j < kN; ++j) {
      common[j] = manager.construction_info().is_common[j];
    }
    const auto report =
        attack::audit_index(net.membership,
                            core::fixtures::dense(*result.postings), epsilons,
                            common, audit_rng);
    EXPECT_EQ(report.primary_degree, attack::PrivacyDegree::kEpsPrivate)
        << "epoch " << epoch;

    previous = result;
    (void)evolution.step();
  }
}

}  // namespace
}  // namespace eppi
