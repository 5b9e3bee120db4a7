#include "mpc/eppi_circuits.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "mpc/circuit_builder.h"
#include "secret/mod_ring.h"

namespace eppi::mpc {

std::vector<eppi::SecretU64> bitslice_inputs(
    std::span<const eppi::SecretU64> values, unsigned width) {
  const std::size_t words = lane_words(values.size());
  std::vector<eppi::SecretU64> out(width * words);
  for (std::size_t j = 0; j < values.size(); ++j) {
    const auto lane = static_cast<unsigned>(j % 64);
    for (unsigned b = 0; b < width; ++b) {
      eppi::SecretU64& word = out[b * words + j / 64];
      word = word ^ (((values[j] >> b) & 1) << lane);
    }
  }
  return out;
}

std::vector<eppi::SecretU64> draw_coin_planes(std::size_t n,
                                              unsigned coin_bits,
                                              eppi::Rng& rng) {
  require(coin_bits >= 1 && coin_bits <= 64,
          "draw_coin_planes: coin_bits out of range");
  const std::size_t words = lane_words(n);
  std::vector<eppi::SecretU64> planes(coin_bits * words);
  std::array<std::uint64_t, 64> acc{};
  for (std::size_t w = 0; w < words; ++w) {
    const auto lanes =
        static_cast<unsigned>(std::min<std::size_t>(64, n - w * 64));
    std::fill_n(acc.begin(), coin_bits, 0);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      for (unsigned b = 0; b < coin_bits; ++b) {
        acc[b] |= (~rng.next() >> 63) << lane;
      }
    }
    for (unsigned b = 0; b < coin_bits; ++b) {
      planes[b * words + w] = eppi::SecretU64(acc[b]);
    }
  }
  return planes;
}

namespace {

// Declares the share inputs for all parties (party-major); shares[i] holds
// the bit wires of s(i,·).
std::vector<WireVec> declare_share_inputs(CircuitBuilder& cb, std::size_t c,
                                          unsigned width) {
  std::vector<WireVec> shares(c);
  for (std::size_t i = 0; i < c; ++i) {
    shares[i] = cb.input_bits(static_cast<std::uint32_t>(i), width);
  }
  return shares;
}

// Reconstructs S = sum of c shares mod q inside the circuit.
WireVec sum_shares(CircuitBuilder& cb, const std::vector<WireVec>& shares,
                   std::uint64_t q) {
  WireVec sum = shares[0];
  for (std::size_t i = 1; i < shares.size(); ++i) {
    sum = cb.add_mod(sum, shares[i], q);
  }
  return sum;
}

std::uint64_t lambda_threshold(double lambda, unsigned coin_bits) {
  require(lambda >= 0.0 && lambda <= 1.0,
          "eppi_circuits: lambda must be in [0,1]");
  require(coin_bits >= 1 && coin_bits <= 62,
          "eppi_circuits: coin_bits out of range");
  const double scaled = lambda * static_cast<double>(std::uint64_t{1} << coin_bits);
  return static_cast<std::uint64_t>(std::llround(scaled));
}

std::uint64_t max_of(std::span<const std::uint64_t> values) {
  std::uint64_t best = 0;
  for (const std::uint64_t v : values) best = std::max(best, v);
  return best;
}

// The common bit S >= t per lane; t folds to constants when uniform.
Wire common_bit(CircuitBuilder& cb, const WireVec& sum,
                std::span<const std::uint64_t> thresholds) {
  const auto width = static_cast<unsigned>(
      std::max<std::size_t>(sum.size(), bit_width_for(max_of(thresholds))));
  return cb.Not(cb.lt(cb.zext(sum, width), cb.public_bits(thresholds, width)));
}

// Per-lane mix bit and masked value wires from the reconstructed frequency
// S. Declares the coin inputs, party-major, so call it after every share
// input is declared.
WireVec mix_reveal_lanes(CircuitBuilder& cb, std::size_t n_parties,
                         const WireVec& sum, Wire common, double lambda,
                         unsigned coin_bits) {
  std::vector<WireVec> coins(n_parties);
  for (std::size_t p = 0; p < n_parties; ++p) {
    coins[p] = cb.input_bits(static_cast<std::uint32_t>(p), coin_bits);
  }
  WireVec joint = coins[0];
  for (std::size_t p = 1; p < n_parties; ++p) {
    joint = cb.xor_vec(joint, coins[p]);
  }
  const Wire coin = cb.lt_const(joint, lambda_threshold(lambda, coin_bits));
  const Wire mix = cb.Or(common, coin);
  const Wire keep = cb.Not(mix);
  WireVec outputs{mix};
  for (const Wire bit : sum) outputs.push_back(cb.And(bit, keep));
  return outputs;
}

// Pads or truncates to an exact width; truncation is only used where the
// value provably fits (e.g. a count of n bits fits in bit_width_for(n)).
WireVec fit_width(CircuitBuilder& cb, WireVec v, unsigned width) {
  while (v.size() < width) v.push_back(cb.zero());
  v.resize(width);
  return v;
}

unsigned rank_output_width(std::span<const std::uint64_t> ranks) {
  return bit_width_for(max_of(ranks));
}

// Folds the lanes down to one: the count of common lanes (an adder tree)
// and, when ranks are given, the max of ranks[j] over common lanes (a max
// tree). Both halve the lanes together, so their rounds overlap. A common
// bit known at build time reduces in the clear.
void append_count_and_rank_outputs(CircuitBuilder& cb, Wire common,
                                   std::span<const std::uint64_t> ranks) {
  const unsigned count_width = bit_width_for(cb.lanes_here());
  require(ranks.empty() || ranks.size() == cb.lanes_here(),
          "eppi_circuits: xi_ranks size mismatch");
  if (const auto known = cb.constant_value(common)) {
    // Every lane public: reduce in the clear, then open constants.
    const std::uint64_t count = *known ? cb.lanes_here() : 0;
    const std::uint64_t best = *known ? max_of(ranks) : 0;
    while (cb.lanes_here() > 1) cb.next_level();
    cb.output_vec(cb.constant_bits(count, count_width));
    if (!ranks.empty()) {
      cb.output_vec(cb.constant_bits(best, rank_output_width(ranks)));
    }
    return;
  }
  WireVec count{common};
  WireVec best;
  if (!ranks.empty()) {
    // rank_j if common else 0: a public word AND the common bit, local.
    for (const Wire bit : cb.public_bits(ranks, rank_output_width(ranks))) {
      best.push_back(cb.And(bit, common));
    }
  }
  while (cb.lanes_here() > 1) {
    cb.next_level();
    count = cb.add_expand(cb.halve_vec(count, false), cb.halve_vec(count, true));
    if (best.empty()) continue;
    const WireVec lo = cb.halve_vec(best, false);
    const WireVec hi = cb.halve_vec(best, true);
    best = cb.mux_vec(cb.lt(lo, hi), hi, lo);
  }
  cb.output_vec(fit_width(cb, count, count_width));
  cb.output_vec(best);
}

}  // namespace

Circuit build_count_below_circuit(const CountBelowSpec& spec) {
  require(spec.c >= 2, "CountBelow: need at least 2 parties");
  require(spec.q >= 2, "CountBelow: modulus required");
  const std::size_t n = spec.thresholds.size();
  require(n >= 1, "CountBelow: need at least one identity");
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();

  CircuitBuilder cb(n);
  const auto shares = declare_share_inputs(cb, spec.c, width);
  const Wire common =
      common_bit(cb, sum_shares(cb, shares, spec.q), spec.thresholds);
  append_count_and_rank_outputs(cb, common, spec.xi_ranks);
  return cb.take();
}

CountBelowOutput decode_count_below(const CountBelowSpec& spec,
                                    const std::vector<bool>& output_bits) {
  const std::size_t n = spec.thresholds.size();
  const unsigned count_width = bit_width_for(n);
  const unsigned rank_width =
      spec.xi_ranks.empty() ? 0 : rank_output_width(spec.xi_ranks);
  require(output_bits.size() == count_width + rank_width,
          "decode_count_below: output size mismatch");
  CountBelowOutput out;
  std::size_t pos = 0;
  for (unsigned b = 0; b < count_width; ++b) {
    if (output_bits[pos++]) out.common_count |= std::uint64_t{1} << b;
  }
  for (unsigned b = 0; b < rank_width; ++b) {
    if (output_bits[pos++]) out.max_xi_rank |= std::uint64_t{1} << b;
  }
  return out;
}

CountBelowOutput plain_count_below(
    const CountBelowSpec& spec,
    std::span<const std::vector<std::uint64_t>> shares_per_party) {
  require(shares_per_party.size() == spec.c,
          "plain_count_below: wrong party count");
  const std::size_t n = spec.thresholds.size();
  CountBelowOutput out;
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t sum = 0;
    for (const auto& shares : shares_per_party) {
      require(shares.size() == n, "plain_count_below: share vector size");
      sum = (sum + shares[j]) % spec.q;
    }
    if (sum >= spec.thresholds[j]) {
      ++out.common_count;
      if (!spec.xi_ranks.empty()) {
        out.max_xi_rank = std::max(out.max_xi_rank, spec.xi_ranks[j]);
      }
    }
  }
  return out;
}

Circuit build_mix_reveal_circuit(const MixRevealSpec& spec) {
  require(spec.c >= 2, "MixReveal: need at least 2 parties");
  require(spec.q >= 2, "MixReveal: modulus required");
  const std::size_t n = spec.thresholds.size();
  require(n >= 1, "MixReveal: need at least one identity");
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();

  CircuitBuilder cb(n);
  const auto shares = declare_share_inputs(cb, spec.c, width);
  const WireVec sum = sum_shares(cb, shares, spec.q);
  const Wire common = common_bit(cb, sum, spec.thresholds);
  cb.output_vec(mix_reveal_lanes(cb, spec.c, sum, common, spec.lambda,
                                 spec.coin_bits));
  return cb.take();
}

namespace {

// Per-identity [mix, value bits] from output lanes starting at `pos`: the
// mix lanes, then one run of n lanes per value bit.
std::vector<MixRevealResult> decode_lanes(const std::vector<bool>& bits,
                                          std::size_t pos, std::size_t n,
                                          unsigned width) {
  std::vector<MixRevealResult> results(n);
  for (std::size_t j = 0; j < n; ++j) {
    results[j].mixed = bits[pos + j];
    for (unsigned b = 0; b < width; ++b) {
      if (bits[pos + (1 + b) * n + j]) {
        results[j].frequency |= std::uint64_t{1} << b;
      }
    }
  }
  return results;
}

}  // namespace

std::vector<MixRevealResult> decode_mix_reveal(
    const MixRevealSpec& spec, const std::vector<bool>& output_bits) {
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();
  const std::size_t n = spec.thresholds.size();
  require(output_bits.size() == n * (1 + width),
          "decode_mix_reveal: output size mismatch");
  return decode_lanes(output_bits, 0, n, width);
}

std::vector<MixRevealResult> plain_mix_reveal(
    const MixRevealSpec& spec,
    std::span<const std::vector<std::uint64_t>> shares_per_party,
    std::span<const std::vector<std::uint64_t>> rand_words) {
  require(shares_per_party.size() == spec.c, "plain_mix_reveal: party count");
  require(rand_words.size() == spec.c, "plain_mix_reveal: rand count");
  const std::size_t n = spec.thresholds.size();
  const std::uint64_t coin_threshold =
      lambda_threshold(spec.lambda, spec.coin_bits);
  const std::uint64_t coin_mask =
      (std::uint64_t{1} << spec.coin_bits) - 1;
  std::vector<MixRevealResult> results(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t sum = 0;
    std::uint64_t joint = 0;
    for (std::size_t p = 0; p < spec.c; ++p) {
      sum = (sum + shares_per_party[p][j]) % spec.q;
      joint ^= rand_words[p][j] & coin_mask;
    }
    const bool common = sum >= spec.thresholds[j];
    const bool coin = joint < coin_threshold;
    results[j].mixed = common || coin;
    results[j].frequency = results[j].mixed ? 0 : sum;
  }
  return results;
}

Circuit build_pure_mpc_circuit(const PureMpcSpec& spec) {
  require(spec.m >= 2, "PureMpc: need at least 2 providers");
  const std::size_t n = spec.thresholds.size();
  require(n >= 1, "PureMpc: need at least one identity");

  CircuitBuilder cb(n);
  // One membership wire per provider, party-major.
  WireVec bits(spec.m);
  for (std::size_t i = 0; i < spec.m; ++i) {
    bits[i] = cb.input_bit(static_cast<std::uint32_t>(i));
  }
  const WireVec sum = fit_width(cb, cb.popcount(bits), bit_width_for(spec.m));
  const Wire common = common_bit(cb, sum, spec.thresholds);
  // The per-identity outputs are built before the count folds the lanes
  // away, and opened after it. Like a separate MixAndReveal stage, they
  // derive their own common bit.
  const WireVec lane_outputs =
      spec.include_mixing
          ? mix_reveal_lanes(cb, spec.m, sum,
                             common_bit(cb, sum, spec.thresholds),
                             spec.lambda, spec.coin_bits)
          : WireVec{};
  append_count_and_rank_outputs(cb, common, {});
  cb.output_vec(lane_outputs);
  return cb.take();
}

PureMpcResult decode_pure_mpc(const PureMpcSpec& spec,
                              const std::vector<bool>& output_bits) {
  const std::size_t n = spec.thresholds.size();
  const unsigned count_width = bit_width_for(n);
  const unsigned width = bit_width_for(spec.m);
  const std::size_t expected =
      count_width + (spec.include_mixing ? n * (1 + width) : 0);
  require(output_bits.size() == expected,
          "decode_pure_mpc: output size mismatch");
  PureMpcResult result;
  for (unsigned b = 0; b < count_width; ++b) {
    if (output_bits[b]) result.common_count |= std::uint64_t{1} << b;
  }
  if (spec.include_mixing) {
    result.identities = decode_lanes(output_bits, count_width, n, width);
  }
  return result;
}

}  // namespace eppi::mpc
