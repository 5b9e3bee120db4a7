// Circuit generators for the secure stages of ε-PPI construction.
//
// Three functionalities, matching DESIGN.md §3:
//
//  * CountBelow (paper Algorithm 2): from the c coordinators' SecSumShare
//    vectors, reconstruct each identity's frequency sum S_j inside the
//    circuit and count how many identities are "common", i.e. S_j >= t_j for
//    the per-identity public threshold t_j (the frequency at which the
//    chosen β-policy saturates to β* >= 1). Only the count is opened.
//
//  * MixAndReveal: the identity-mixing stage (paper Eq. 6). Per identity,
//    computes the common bit b_j = (S_j >= t_j), a secret coin
//    coin_j = (r_j < λ·2^w) from XOR-combined per-party randomness, and
//    mix_j = b_j | coin_j. Opens mix_j and, only when mix_j = 0, the value
//    S_j (as S_j & ~mix_j per bit); for mixed/common identities the opened
//    value is 0 so the true frequency of a common identity never leaves the
//    MPC — this is exactly what defeats the common-identity attack.
//
//  * PureMpc (the paper's comparison baseline, §V-B): the same end-to-end
//    functionality computed directly from all m providers' raw membership
//    bits inside one big circuit (frequency via popcount instead of a
//    SecSumShare pre-stage), so circuit size and party count grow with m.
//
// Each generator writes one per-identity *template* (circuit.h): every wire
// has one lane per identity, so the template's size does not depend on n
// apart from the log n reduction levels that fold the common count and the
// max ξ rank across lanes. Per-identity public values (t_j, ξ ranks) enter
// as public words, or fold to constants when equal for every identity.
// Circuit::stats() is the logical size (the circuit unrolled over all n
// identities); template_stats() the template's own.
//
// All generators also have plain reference implementations used by tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "mpc/circuit.h"
#include "secret/secret.h"

namespace eppi::mpc {

// Bitslices one secret value per identity into MPC input lanes: `width`
// input wires (bit b of every value), lane j = identity j, in the layout
// run_gmw_party takes. This is the share→circuit transition for a
// coordinator's SecSumShare shares and its λ-coin words; the engine's input
// phase XOR-shares the result before anything leaves the party.
std::vector<eppi::SecretU64> bitslice_inputs(
    std::span<const eppi::SecretU64> values, unsigned width);

// A party's λ-coin inputs for `n` identities, drawn straight into
// bitslice_inputs' layout: `coin_bits` planes, bit b of identity j's coin
// in lane j of plane b. Identity after identity, bit after bit, each coin
// bit is 1 exactly when one rng.next() has its top bit clear — what
// rng.bernoulli(0.5) returns for that draw — so every seed yields the
// coins of a per-identity bernoulli(0.5) loop. 1 <= coin_bits <= 64.
std::vector<eppi::SecretU64> draw_coin_planes(std::size_t n,
                                              unsigned coin_bits,
                                              eppi::Rng& rng);

struct CountBelowSpec {
  std::size_t c = 3;                     // MPC parties (coordinators)
  std::uint64_t q = 0;                   // ring modulus (required, >= 2)
  std::vector<std::uint64_t> thresholds; // t_j per identity, in [0, q)
  // Optional: public per-identity ranks (e.g. each identity's ε rank in the
  // sorted public ε list). When non-empty the circuit additionally outputs
  // max over common identities of xi_ranks[j] — this is how the ε-PPI
  // constructor obtains ξ = max ε over the (secret) common set without
  // revealing which identities are common.
  std::vector<std::uint64_t> xi_ranks;
};

struct CountBelowOutput {
  std::uint64_t common_count = 0;
  std::uint64_t max_xi_rank = 0;  // 0 when xi_ranks was empty or no commons
};

// Inputs: for party i in [0,c), bit_width(q) wires holding the bits of its
// shares s(i,·), declared party-major. Outputs (one lane each): the common
// count as bit_width(n) bits, then (iff xi_ranks non-empty) the selected max
// rank as bit_width(max rank) bits.
Circuit build_count_below_circuit(const CountBelowSpec& spec);

CountBelowOutput decode_count_below(const CountBelowSpec& spec,
                                    const std::vector<bool>& output_bits);

// Plain reference for the same functionality.
CountBelowOutput plain_count_below(
    const CountBelowSpec& spec,
    std::span<const std::vector<std::uint64_t>> shares_per_party);

struct MixRevealSpec {
  std::size_t c = 3;
  std::uint64_t q = 0;
  std::vector<std::uint64_t> thresholds;
  double lambda = 0.0;      // mixing probability for non-common identities
  unsigned coin_bits = 16;  // resolution of the secure λ-coin
};

// Inputs, party-major: party i contributes the bit_width(q) share wires of
// s(i,·), then (after all shares) coin_bits coin wires. Outputs (one lane per
// identity): mix, then the bits of S & ~mix.
Circuit build_mix_reveal_circuit(const MixRevealSpec& spec);

struct MixRevealResult {
  bool mixed = false;          // published with β = 1
  std::uint64_t frequency = 0; // opened S_j; 0 (hidden) when mixed
};

// Parses the output lanes of a MixAndReveal circuit (evaluate_plain order).
std::vector<MixRevealResult> decode_mix_reveal(
    const MixRevealSpec& spec, const std::vector<bool>& output_bits);

// Plain reference. rand_words[p][j] is party p's coin input for identity j
// (low coin_bits bits used).
std::vector<MixRevealResult> plain_mix_reveal(
    const MixRevealSpec& spec,
    std::span<const std::vector<std::uint64_t>> shares_per_party,
    std::span<const std::vector<std::uint64_t>> rand_words);

struct PureMpcSpec {
  std::size_t m = 0;                     // provider parties
  std::vector<std::uint64_t> thresholds; // t_j per identity, in [0, m]
  double lambda = 0.0;
  unsigned coin_bits = 16;
  // false reproduces the paper's measured pure-MPC baseline (count only, no
  // per-identity mixing outputs and no coin inputs).
  bool include_mixing = true;
};

// Inputs, party-major: party i contributes one membership wire, then (after
// all memberships, iff include_mixing) coin_bits coin wires. Outputs: the
// common count (bit_width(n) one-lane bits), then the lanes of mix and of
// the bits of S & ~mix.
Circuit build_pure_mpc_circuit(const PureMpcSpec& spec);

struct PureMpcResult {
  std::uint64_t common_count = 0;
  std::vector<MixRevealResult> identities;
};

PureMpcResult decode_pure_mpc(const PureMpcSpec& spec,
                              const std::vector<bool>& output_bits);

}  // namespace eppi::mpc
