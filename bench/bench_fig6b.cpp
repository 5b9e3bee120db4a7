// Figure 6b: MPC circuit size vs. number of parties — ε-PPI vs. pure MPC.
//
// Paper setup (§V-B): single identity, party count up to ~61; circuit size
// (size of the compiled MPC program) is the scalability metric because it
// determines execution time in real runs. We compile both circuits and
// count gates — no execution, exactly like the paper's methodology for this
// figure.
//
// Expected shape: pure-MPC circuit size grows linearly with the party
// count; ε-PPI's stays flat (c = 3 parties, only the share ring width grows
// logarithmically with m).
//
// Sizes are logical (the circuit unrolled over every identity, what the
// paper's compiler would emit); the "-tmpl" columns give the size of the
// per-identity template the engine actually holds. With one identity the
// two agree; the second table shows them parting at n = 50,000.
#include <cstddef>
#include <vector>

#include "bench_util.h"
#include "core/beta_policy.h"
#include "mpc/eppi_circuits.h"
#include "secret/mod_ring.h"

int main() {
  constexpr double kEps = 0.5;
  constexpr std::size_t kC = 3;
  const std::vector<std::size_t> party_counts{3, 11, 21, 31, 41, 51, 61};

  eppi::bench::ResultTable table({"parties", "eppi-gates", "eppi-and",
                                  "pure-gates", "pure-and", "eppi-depth",
                                  "pure-depth", "eppi-tmpl", "pure-tmpl"});
  for (const std::size_t m : party_counts) {
    const auto policy = eppi::core::BetaPolicy::chernoff(0.9);
    const std::vector<double> eps{kEps};
    const auto thresholds = eppi::core::common_thresholds(policy, eps, m);
    const auto ring = eppi::secret::ModRing::power_of_two_for(m);

    eppi::mpc::CountBelowSpec cb_spec;
    cb_spec.c = kC;
    cb_spec.q = ring.q();
    cb_spec.thresholds.assign(thresholds.begin(), thresholds.end());
    cb_spec.xi_ranks = {1};
    const auto cb = eppi::mpc::build_count_below_circuit(cb_spec);
    const auto& cb_stats = cb.stats();

    eppi::mpc::MixRevealSpec mr_spec;
    mr_spec.c = kC;
    mr_spec.q = ring.q();
    mr_spec.thresholds = cb_spec.thresholds;
    mr_spec.lambda = 0.1;
    mr_spec.coin_bits = 8;
    const auto mr = eppi::mpc::build_mix_reveal_circuit(mr_spec);
    const auto& mr_stats = mr.stats();

    eppi::mpc::PureMpcSpec pure_spec;
    pure_spec.m = m;
    pure_spec.thresholds = cb_spec.thresholds;
    pure_spec.lambda = 0.1;
    pure_spec.coin_bits = 8;
    const auto pure = eppi::mpc::build_pure_mpc_circuit(pure_spec);
    const auto& pure_stats = pure.stats();

    table.add_row(
        {std::to_string(m),
         std::to_string(cb_stats.total_gates() + mr_stats.total_gates()),
         std::to_string(cb_stats.and_gates + mr_stats.and_gates),
         std::to_string(pure_stats.total_gates()),
         std::to_string(pure_stats.and_gates),
         std::to_string(cb_stats.and_depth + mr_stats.and_depth),
         std::to_string(pure_stats.and_depth),
         std::to_string(cb.template_stats().total_gates() +
                        mr.template_stats().total_gates()),
         std::to_string(pure.template_stats().total_gates())});
  }
  table.print("Fig 6b: circuit size vs parties (single identity, c=3)");

  // The construction's own shape: m = 4, c = 2, n = 50,000 identities.
  {
    constexpr std::size_t kM = 4;
    constexpr std::size_t kN = 50000;
    const std::vector<double> eps(kN, kEps);
    const auto thresholds = eppi::core::common_thresholds(
        eppi::core::BetaPolicy::chernoff(0.9), eps, kM);
    eppi::mpc::CountBelowSpec cb_spec;
    cb_spec.c = 2;
    cb_spec.q = eppi::secret::ModRing::power_of_two_for(kM).q();
    cb_spec.thresholds.assign(thresholds.begin(), thresholds.end());
    eppi::mpc::MixRevealSpec mr_spec;
    mr_spec.c = 2;
    mr_spec.q = cb_spec.q;
    mr_spec.thresholds = cb_spec.thresholds;
    mr_spec.lambda = 0.3;
    eppi::bench::ResultTable sizes(
        {"circuit", "logical-and", "logical-depth", "tmpl-and", "tmpl-gates"});
    const auto row = [&sizes](const char* name,
                              const eppi::mpc::Circuit& circuit) {
      sizes.add_row({name, std::to_string(circuit.stats().and_gates),
                     std::to_string(circuit.stats().and_depth),
                     std::to_string(circuit.template_stats().and_gates),
                     std::to_string(circuit.template_stats().total_gates())});
    };
    row("count-below", eppi::mpc::build_count_below_circuit(cb_spec));
    row("mix-reveal", eppi::mpc::build_mix_reveal_circuit(mr_spec));
    sizes.print("Fig 6b companion: logical vs template size (m=4, c=2, "
                "n=50000, lambda=0.3)");
  }
  std::cout << "\nPaper shape: pure-MPC circuit size grows linearly with "
               "parties; e-PPI's is\nnear-flat (only the frequency ring "
               "width grows with log m).\n";
  return 0;
}
