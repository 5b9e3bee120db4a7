// MPC-design ablations (DESIGN.md experiment index):
//
//  1. Modulus choice: q = 2^k (carry-free reduction) vs. general q
//     (conditional subtract) — circuit size of CountBelow.
//  2. MPC reduction: the whole point of SecSumShare. Compare the c-party
//     CountBelow + MixAndReveal against the pure m-party circuit across m.
//  3. Collusion knob: cost of raising c (more coordinators tolerated in
//     collusion) at fixed m.
//  4. λ-coin resolution: coin_bits vs. circuit size of MixAndReveal.
#include <cstddef>
#include <vector>

#include "bench_util.h"
#include "mpc/eppi_circuits.h"
#include "secret/mod_ring.h"

namespace {

eppi::mpc::CircuitStats count_below_stats(std::size_t c, std::uint64_t q,
                                          std::size_t n) {
  eppi::mpc::CountBelowSpec spec;
  spec.c = c;
  spec.q = q;
  spec.thresholds = std::vector<std::uint64_t>(n, q / 2);
  return eppi::mpc::build_count_below_circuit(spec).stats();
}

eppi::mpc::CircuitStats mix_reveal_stats(std::size_t c, std::uint64_t q,
                                         std::size_t n, unsigned coin_bits) {
  eppi::mpc::MixRevealSpec spec;
  spec.c = c;
  spec.q = q;
  spec.thresholds = std::vector<std::uint64_t>(n, q / 2);
  spec.lambda = 0.25;
  spec.coin_bits = coin_bits;
  return eppi::mpc::build_mix_reveal_circuit(spec).stats();
}

}  // namespace

int main() {
  // 1. Power-of-two vs. general modulus.
  {
    eppi::bench::ResultTable table(
        {"modulus", "gates", "and-gates", "and-depth"});
    for (const std::uint64_t q : {1024ull, 1000ull, 4096ull, 4093ull}) {
      const auto stats = count_below_stats(3, q, 16);
      table.add_row({std::to_string(q), std::to_string(stats.total_gates()),
                     std::to_string(stats.and_gates),
                     std::to_string(stats.and_depth)});
    }
    table.print("Ablation 1: CountBelow circuit vs modulus choice (c=3, n=16)");
    std::cout << "Power-of-two moduli reduce mod-q addition to truncation;\n"
                 "general q pays a comparator + conditional subtract per "
                 "addition.\n";
  }

  // 2. MPC reduction across network size.
  {
    eppi::bench::ResultTable table(
        {"providers", "eppi-gates(c=3)", "pure-gates(m)"});
    for (const std::size_t m : {8u, 32u, 128u, 512u}) {
      const auto ring = eppi::secret::ModRing::power_of_two_for(m);
      const auto eppi_stats = count_below_stats(3, ring.q(), 8);
      const auto mr = mix_reveal_stats(3, ring.q(), 8, 8);
      eppi::mpc::PureMpcSpec pure;
      pure.m = m;
      pure.thresholds = std::vector<std::uint64_t>(8, m / 2);
      pure.coin_bits = 8;
      const auto pure_stats =
          eppi::mpc::build_pure_mpc_circuit(pure).stats();
      table.add_row(
          {std::to_string(m),
           std::to_string(eppi_stats.total_gates() + mr.total_gates()),
           std::to_string(pure_stats.total_gates())});
    }
    table.print("Ablation 2: MPC reduction (SecSumShare keeps MPC at c=3)");
  }

  // 3. Collusion tolerance knob c.
  {
    eppi::bench::ResultTable table({"c", "gates", "and-gates", "and-depth"});
    for (const std::size_t c : {2u, 3u, 5u, 9u, 17u}) {
      const auto stats = count_below_stats(c, 1024, 16);
      table.add_row({std::to_string(c), std::to_string(stats.total_gates()),
                     std::to_string(stats.and_gates),
                     std::to_string(stats.and_depth)});
    }
    table.print("Ablation 3: collusion tolerance c vs CountBelow size");
    std::cout << "Raising c buys collusion tolerance at linear circuit-size "
                 "cost — the\ntrade-off behind the paper's c << m design "
                 "point.\n";
  }

  // 4. λ-coin resolution.
  {
    eppi::bench::ResultTable table({"coin-bits", "gates", "and-gates"});
    for (const unsigned bits : {4u, 8u, 16u, 24u}) {
      const auto stats = mix_reveal_stats(3, 1024, 16, bits);
      table.add_row({std::to_string(bits),
                     std::to_string(stats.total_gates()),
                     std::to_string(stats.and_gates)});
    }
    table.print("Ablation 4: lambda-coin resolution vs MixAndReveal size");
    std::cout << "coin_bits bounds the mixing-probability quantization "
                 "error at 2^-bits;\n8-16 bits is ample for any practical "
                 "lambda.\n";
  }

  return 0;
}
