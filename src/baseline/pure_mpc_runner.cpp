#include "baseline/pure_mpc_runner.h"

#include <chrono>

#include "common/error.h"
#include "mpc/gmw.h"
#include "net/cluster.h"

namespace eppi::baseline {

PureMpcRunResult run_pure_mpc(const eppi::BitMatrix& truth,
                              std::span<const std::uint64_t> thresholds,
                              const PureMpcRunOptions& options) {
  const std::size_t m = truth.rows();
  const std::size_t n = truth.cols();
  require(m >= 2, "run_pure_mpc: need at least 2 providers");
  require(thresholds.size() == n, "run_pure_mpc: threshold count mismatch");

  eppi::mpc::PureMpcSpec spec;
  spec.m = m;
  spec.thresholds.assign(thresholds.begin(), thresholds.end());
  spec.lambda = options.lambda;
  spec.coin_bits = options.coin_bits;
  spec.include_mixing = options.include_mixing;
  const eppi::mpc::Circuit circuit = eppi::mpc::build_pure_mpc_circuit(spec);

  eppi::net::Cluster cluster(m, options.seed);
  std::vector<bool> opened;  // written by party 0 only

  const auto start = std::chrono::steady_clock::now();
  cluster.run([&](eppi::net::PartyContext& ctx) {
    const std::size_t me = ctx.id();
    std::vector<eppi::SecretU64> membership;
    membership.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      membership.emplace_back(truth.get(me, j) ? 1 : 0);
    }
    auto inputs = eppi::mpc::bitslice_inputs(membership, 1);
    if (options.include_mixing) {
      // λ-coins: one fair bit per coin bit, identity after identity.
      const auto coin_inputs =
          eppi::mpc::draw_coin_planes(n, options.coin_bits, ctx.rng());
      inputs.insert(inputs.end(), coin_inputs.begin(), coin_inputs.end());
    }
    eppi::mpc::GmwSession session;
    for (std::size_t i = 0; i < m; ++i) {
      session.parties.push_back(static_cast<eppi::net::PartyId>(i));
    }
    auto out = eppi::mpc::opened_bits(
        circuit, eppi::mpc::run_gmw_party(ctx, session, circuit, inputs));
    if (me == 0) opened = std::move(out);
  });
  const auto stop = std::chrono::steady_clock::now();

  PureMpcRunResult result;
  result.output = eppi::mpc::decode_pure_mpc(spec, opened);
  result.stats = circuit.stats();
  result.cost = cluster.meter().snapshot();
  result.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace eppi::baseline
