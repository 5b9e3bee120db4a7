#include "core/distributed_constructor.h"

#include <algorithm>

#include "common/error.h"
#include "core/construction_party.h"
#include "net/cluster.h"
#include "net/fault.h"

namespace eppi::core {

DistributedResult construct_distributed(const eppi::BitMatrix& truth,
                                        std::span<const double> epsilons,
                                        const DistributedOptions& options) {
  const std::size_t m = truth.rows();
  const std::size_t n = truth.cols();
  require(n >= 1, "construct_distributed: need at least one identity");
  require(epsilons.size() == n, "construct_distributed: epsilon count");
  require(options.c >= 2 && options.c <= m,
          "construct_distributed: need 2 <= c <= m");

  // Per-party private inputs (rows of the truth matrix).
  std::vector<std::vector<std::uint8_t>> rows(m,
                                              std::vector<std::uint8_t>(n));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      rows[i][j] = truth.get(i, j) ? 1 : 0;
    }
  }

  const FaultToleranceOptions& ft = options.fault_tolerance;

  std::vector<ConstructionPartyResult> party_results(m);
  eppi::net::Cluster cluster(m, options.seed);
  if (!ft.fault_scenario.empty()) {
    cluster.inject_faults(eppi::net::FaultScenario::parse(ft.fault_scenario),
                          ft.fault_seed);
  }
  if (ft.reliable_delivery) cluster.enable_reliability(ft.reliable);
  if (ft.enabled) {
    // Bound every receive outside SecSumShare (MPC rounds, broadcast) so a
    // coordinator crash surfaces as PartyFailure instead of a hang. The
    // SecSumShare FT path uses its own stage_timeout internally.
    cluster.set_recv_timeout(ft.mpc_timeout);
  }
  cluster.run([&](eppi::net::PartyContext& ctx) {
    party_results[ctx.id()] =
        run_construction_party(ctx, rows[ctx.id()], epsilons, options);
  });
  const std::vector<eppi::net::PartyId>& crashed = cluster.crashed();
  const auto has_crashed = [&](eppi::net::PartyId p) {
    return std::binary_search(crashed.begin(), crashed.end(), p);
  };
  require(!has_crashed(0) && party_results[0].coordinator.has_value(),
          "construct_distributed: coordinator 0 produced no view");

  // Assemble the PPI server's matrix from the published rows. A crashed
  // provider publishes nothing: its row stays all-zero (the locator simply
  // never routes to it), matching the committed survivor view.
  eppi::BitMatrix published(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    if (has_crashed(static_cast<eppi::net::PartyId>(i))) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (party_results[i].published_row[j] != 0) published.set(i, j, true);
    }
  }

  DistributedResult result;
  result.index = PpiIndex(std::move(published));
  const CoordinatorView& view = *party_results[0].coordinator;
  result.report.betas = party_results[0].betas;
  result.report.mixed = view.mixed;
  result.report.revealed_frequencies = view.revealed_frequencies;
  result.report.common_count = view.common_count;
  result.report.xi = view.xi;
  result.report.lambda = view.lambda;
  result.report.count_below_stats = view.count_below_stats;
  result.report.mix_reveal_stats = view.mix_reveal_stats;
  result.report.total_cost = cluster.meter().snapshot();
  result.report.survivors = party_results[0].survivors;
  result.report.crashed = crashed;
  result.report.secsum_attempts = party_results[0].secsum_attempts;
  return result;
}

}  // namespace eppi::core
