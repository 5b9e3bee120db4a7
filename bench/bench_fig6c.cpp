// Figure 6c: construction time vs. number of identities in a three-party
// network — ε-PPI vs. pure MPC.
//
// Paper setup (§V-B): m = 3 parties, identity count scaled 1..1000. The
// measured stages match the paper's prototype (ε-PPI = SecSumShare +
// c-party CountBelow; pure = the m-party common-count MPC). Both grow with
// the identity count, but ε-PPI grows at a much slower rate: its
// per-identity MPC work is a share-sum + comparison over log(m)-bit values,
// evaluated among c parties whose per-gate cost never grows with m, and
// SecSumShare handles all identities in two rounds regardless of count.
#include <chrono>
#include <cstddef>
#include <vector>

#include "baseline/pure_mpc_runner.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/beta_policy.h"
#include "dataset/synthetic.h"
#include "mpc/eppi_circuits.h"
#include "mpc/gmw.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "secret/sec_sum_share.h"

namespace {

struct EppiStageResult {
  eppi::mpc::CircuitStats stats;
  eppi::net::CostSnapshot cost;
  double wall_seconds = 0.0;
};

EppiStageResult run_eppi_stage(const eppi::BitMatrix& truth,
                               const std::vector<std::uint64_t>& thresholds,
                               std::size_t c, std::uint64_t seed) {
  const std::size_t m = truth.rows();
  const std::size_t n = truth.cols();
  const eppi::secret::SecSumShareParams ss_params{c, 0, n};
  const auto ring = eppi::secret::resolve_ring(ss_params, m);

  eppi::mpc::CountBelowSpec spec;
  spec.c = c;
  spec.q = ring.q();
  spec.thresholds = thresholds;
  const auto circuit = eppi::mpc::build_count_below_circuit(spec);

  eppi::net::Cluster cluster(m, seed);
  const auto start = std::chrono::steady_clock::now();
  cluster.run([&](eppi::net::PartyContext& ctx) {
    std::vector<std::uint8_t> row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = truth.get(ctx.id(), j);
    const auto shares =
        eppi::secret::run_sec_sum_share_party(ctx, ss_params, row);
    if (ctx.id() >= c) return;
    const auto inputs =
        eppi::mpc::bitslice_inputs(*shares, ring.bit_width());
    eppi::mpc::GmwSession session;
    for (std::size_t i = 0; i < c; ++i) {
      session.parties.push_back(static_cast<eppi::net::PartyId>(i));
    }
    (void)eppi::mpc::run_gmw_party(ctx, session, circuit, inputs);
  });
  const auto stop = std::chrono::steady_clock::now();

  EppiStageResult result;
  result.stats = circuit.stats();
  result.cost = cluster.meter().snapshot();
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace

int main() {
  constexpr std::size_t kM = 3;
  const eppi::net::CostModel model;
  const std::vector<std::size_t> identity_counts{1, 10, 100, 1000};

  eppi::bench::ResultTable table(
      {"identities", "eppi-modeled-s", "pure-modeled-s", "eppi-measured-s",
       "pure-measured-s", "eppi-gates", "pure-gates"});
  for (const std::size_t n : identity_counts) {
    eppi::Rng rng(660 + n);
    std::vector<std::uint64_t> freqs(n);
    for (auto& f : freqs) f = rng.next_below(kM + 1);
    const auto net =
        eppi::dataset::make_network_with_frequencies(kM, freqs, rng);
    const auto eps = eppi::dataset::random_epsilons(n, rng, 0.3, 0.7);
    const auto policy = eppi::core::BetaPolicy::chernoff(0.9);
    const auto thresholds = eppi::core::common_thresholds(policy, eps, kM);

    const auto eppi_run = run_eppi_stage(net.membership, thresholds, kM, n + 1);
    const double eppi_modeled = model.modeled_seconds(
        eppi_run.stats.and_gates,
        eppi_run.stats.xor_gates + eppi_run.stats.not_gates, eppi_run.cost,
        kM, kM);

    // Pure MPC carries the whole per-identity flow (count + mixing +
    // selective reveal) inside the m-party MPC — the paper's baseline that
    // does not separate secure from non-secure computation. ε-PPI's MPC is
    // the minimized CountBelow; its mixing runs downstream of the opened
    // aggregate (the paper's prototype releases β there).
    eppi::baseline::PureMpcRunOptions pure_options;
    pure_options.include_mixing = true;
    pure_options.lambda = 0.1;
    pure_options.coin_bits = 8;
    pure_options.seed = n + 1;
    const auto pure_run =
        eppi::baseline::run_pure_mpc(net.membership, thresholds, pure_options);
    const double pure_modeled = model.modeled_seconds(
        pure_run.stats.and_gates,
        pure_run.stats.xor_gates + pure_run.stats.not_gates, pure_run.cost,
        kM, kM);

    table.add_row({std::to_string(n), eppi::bench::fmt(eppi_modeled, 2),
                   eppi::bench::fmt(pure_modeled, 2),
                   eppi::bench::fmt(eppi_run.wall_seconds, 4),
                   eppi::bench::fmt(pure_run.wall_seconds, 4),
                   std::to_string(eppi_run.stats.total_gates()),
                   std::to_string(pure_run.stats.total_gates())});
  }
  table.print("Fig 6c: construction time vs identity count (3 parties)");
  std::cout << "\nPaper shape: both grow with identity count; e-PPI grows "
               "at a slower rate\nthan pure MPC (share-sum comparisons vs "
               "whole-flow inside the MPC).\n";
  return 0;
}
