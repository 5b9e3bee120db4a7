// Figure 6a: construction execution time vs. number of parties, single
// identity — ε-PPI (MPC-reduced) vs. pure MPC.
//
// Paper setup (§V-B): 3..9 Emulab machines, c = 3, FairplayMP for the
// generic-MPC stage, single identity. The measured stage matches the
// paper's prototype: ε-PPI = SecSumShare over all m providers feeding a
// 3-party CountBelow MPC; pure MPC = the same common-count functionality
// computed by one generic MPC over all m providers' raw bits.
//
// We execute both protocols for real on the threaded in-memory cluster and
// report (a) the measured engine wall time and (b) the modeled Emulab/
// FairplayMP-like time derived from the platform-independent counts
// (secure gates scaled by MPC party count, rounds, bytes — net/cost_model.h).
//
// Expected shape: pure MPC grows superlinearly with the party count (its
// circuit *and* per-gate cost grow with m); ε-PPI grows slowly (its MPC is
// pinned to c = 3 parties; only SecSumShare touches all m).
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

// The paper-faithful ε-PPI construction core: SecSumShare over m providers,
// then CountBelow by GMW among the c coordinators.
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
  constexpr double kEps = 0.5;
  constexpr std::size_t kC = 3;
  const eppi::net::CostModel model;
  eppi::bench::ResultTable table(
      {"parties", "eppi-modeled-s", "pure-modeled-s", "eppi-measured-s",
       "pure-measured-s", "eppi-gates", "pure-gates"});

  for (std::size_t m = 3; m <= 9; ++m) {
    eppi::Rng rng(600 + m);
    const auto net = eppi::dataset::make_network_with_frequencies(
        m, std::vector<std::uint64_t>{m / 2 + 1}, rng);
    const std::vector<double> eps{kEps};
    const auto policy = eppi::core::BetaPolicy::chernoff(0.9);
    const auto thresholds = eppi::core::common_thresholds(policy, eps, m);

    const auto eppi_run = run_eppi_stage(net.membership, thresholds, kC, m);
    const double eppi_modeled = model.modeled_seconds(
        eppi_run.stats.and_gates,
        eppi_run.stats.xor_gates + eppi_run.stats.not_gates, eppi_run.cost,
        m, kC);

    eppi::baseline::PureMpcRunOptions pure_options;
    pure_options.include_mixing = false;
    pure_options.seed = m;
    const auto pure_run =
        eppi::baseline::run_pure_mpc(net.membership, thresholds, pure_options);
    const double pure_modeled = model.modeled_seconds(
        pure_run.stats.and_gates,
        pure_run.stats.xor_gates + pure_run.stats.not_gates, pure_run.cost,
        m, m);

    table.add_row({std::to_string(m), eppi::bench::fmt(eppi_modeled, 2),
                   eppi::bench::fmt(pure_modeled, 2),
                   eppi::bench::fmt(eppi_run.wall_seconds, 4),
                   eppi::bench::fmt(pure_run.wall_seconds, 4),
                   std::to_string(eppi_run.stats.total_gates()),
                   std::to_string(pure_run.stats.total_gates())});
  }
  table.print(
      "Fig 6a: construction time vs parties (single identity, c=3)");
  std::cout << "\nPaper shape: pure MPC time grows superlinearly with "
               "parties; e-PPI grows\nslowly (MPC fixed to c=3 parties; "
               "SecSumShare is constant-round).\n";
  return 0;
}
