#include "mpc/eppi_circuits.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "mpc/circuit_builder.h"
#include "mpc/plain_eval.h"
#include "secret/additive_share.h"
#include "secret/mod_ring.h"

namespace eppi::mpc {
namespace {

// Splits per-identity frequencies into c share vectors and returns
// shares_per_party[i][j].
std::vector<std::vector<std::uint64_t>> share_out(
    const std::vector<std::uint64_t>& values, std::size_t c, std::uint64_t q,
    eppi::Rng& rng) {
  const eppi::secret::ModRing ring(q);
  std::vector<std::vector<std::uint64_t>> per_party(
      c, std::vector<std::uint64_t>(values.size()));
  for (std::size_t j = 0; j < values.size(); ++j) {
    const auto shares =
        eppi::secret::split_additive(values[j], c, ring, rng);
    // Opened immediately: this helper feeds the *plain* circuit evaluator,
    // which stands in for all c parties at once.
    for (std::size_t i = 0; i < c; ++i) per_party[i][j] = shares[i].reveal();
  }
  return per_party;
}

// Flattens per-identity values into plain-eval input bits: per vector (a
// party, as declared), `width` wires of one lane per identity.
std::vector<bool> flatten_share_inputs(
    const std::vector<std::vector<std::uint64_t>>& per_party,
    unsigned width) {
  std::vector<bool> bits;
  for (const auto& vec : per_party) {
    for (unsigned b = 0; b < width; ++b) {
      for (const std::uint64_t s : vec) bits.push_back((s >> b) & 1);
    }
  }
  return bits;
}

TEST(CountBelowCircuitTest, MatchesPlainOnRandomInstances) {
  eppi::Rng rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    CountBelowSpec spec;
    spec.c = 2 + trial % 3;
    spec.q = 32;
    const std::size_t n = 1 + rng.next_below(8);
    spec.thresholds.resize(n);
    std::vector<std::uint64_t> freqs(n);
    for (std::size_t j = 0; j < n; ++j) {
      spec.thresholds[j] = rng.next_below(20);
      freqs[j] = rng.next_below(20);
    }
    const auto per_party = share_out(freqs, spec.c, spec.q, rng);
    const Circuit circuit = build_count_below_circuit(spec);
    const auto bits = flatten_share_inputs(per_party, 5);
    const auto out_bits = evaluate_plain(circuit, bits);
    std::vector<bool> out_vec(out_bits.begin(), out_bits.end());
    const auto got = decode_count_below(spec, out_vec);
    const auto expected = plain_count_below(spec, per_party);
    EXPECT_EQ(got.common_count, expected.common_count) << "trial " << trial;
    // Plain count must equal the direct count on frequencies.
    std::uint64_t direct = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (freqs[j] >= spec.thresholds[j]) ++direct;
    }
    EXPECT_EQ(got.common_count, direct);
  }
}

TEST(CountBelowCircuitTest, XiRankSelectsMaxOverCommons) {
  eppi::Rng rng(405);
  CountBelowSpec spec;
  spec.c = 3;
  spec.q = 16;
  // freq/threshold: identities 0,2 common (ranks 3, 5); identity 1 not
  // (rank 7 must not leak into the max).
  spec.thresholds = {4, 10, 2};
  spec.xi_ranks = {3, 7, 5};
  const std::vector<std::uint64_t> freqs{6, 3, 2};
  const auto per_party = share_out(freqs, spec.c, spec.q, rng);
  const Circuit circuit = build_count_below_circuit(spec);
  const auto out_bits =
      evaluate_plain(circuit, flatten_share_inputs(per_party, 4));
  const auto got = decode_count_below(spec, out_bits);
  EXPECT_EQ(got.common_count, 2u);
  EXPECT_EQ(got.max_xi_rank, 5u);
  const auto expected = plain_count_below(spec, per_party);
  EXPECT_EQ(got.max_xi_rank, expected.max_xi_rank);
}

TEST(CountBelowCircuitTest, NoCommonsGivesRankZero) {
  eppi::Rng rng(406);
  CountBelowSpec spec;
  spec.c = 2;
  spec.q = 16;
  spec.thresholds = {10, 10};
  spec.xi_ranks = {1, 2};
  const std::vector<std::uint64_t> freqs{1, 2};
  const auto per_party = share_out(freqs, spec.c, spec.q, rng);
  const Circuit circuit = build_count_below_circuit(spec);
  const auto got = decode_count_below(
      spec, evaluate_plain(circuit, flatten_share_inputs(per_party, 4)));
  EXPECT_EQ(got.common_count, 0u);
  EXPECT_EQ(got.max_xi_rank, 0u);
}

TEST(CountBelowCircuitTest, RejectsBadSpecs) {
  CountBelowSpec spec;
  spec.c = 1;
  spec.q = 8;
  spec.thresholds = {1};
  EXPECT_THROW(build_count_below_circuit(spec), eppi::ConfigError);
  spec.c = 3;
  spec.q = 0;
  EXPECT_THROW(build_count_below_circuit(spec), eppi::ConfigError);
  spec.q = 8;
  spec.thresholds.clear();
  EXPECT_THROW(build_count_below_circuit(spec), eppi::ConfigError);
}

TEST(MixRevealCircuitTest, MatchesPlainReference) {
  eppi::Rng rng(500);
  MixRevealSpec spec;
  spec.c = 3;
  spec.q = 32;
  spec.thresholds = {8, 20, 1, 31};
  spec.lambda = 0.5;
  spec.coin_bits = 6;
  const std::vector<std::uint64_t> freqs{10, 3, 0, 15};
  const auto per_party = share_out(freqs, spec.c, spec.q, rng);
  // Per-party coin words.
  std::vector<std::vector<std::uint64_t>> coins(
      spec.c, std::vector<std::uint64_t>(freqs.size()));
  for (auto& vec : coins) {
    for (auto& w : vec) w = rng.next_below(1u << spec.coin_bits);
  }
  const Circuit circuit = build_mix_reveal_circuit(spec);
  std::vector<bool> bits = flatten_share_inputs(per_party, 5);
  // Coin inputs are declared party-major after the shares.
  const auto coin_bits = flatten_share_inputs(coins, spec.coin_bits);
  bits.insert(bits.end(), coin_bits.begin(), coin_bits.end());
  const auto got = decode_mix_reveal(spec, evaluate_plain(circuit, bits));
  const auto expected = plain_mix_reveal(spec, per_party, coins);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].mixed, expected[j].mixed) << "identity " << j;
    EXPECT_EQ(got[j].frequency, expected[j].frequency) << "identity " << j;
  }
}

TEST(MixRevealCircuitTest, CommonIdentityFrequencyIsHidden) {
  eppi::Rng rng(501);
  MixRevealSpec spec;
  spec.c = 2;
  spec.q = 16;
  spec.thresholds = {5};
  spec.lambda = 0.0;
  spec.coin_bits = 4;
  const std::vector<std::uint64_t> freqs{9};  // common (9 >= 5)
  const auto per_party = share_out(freqs, spec.c, spec.q, rng);
  std::vector<bool> bits = flatten_share_inputs(per_party, 4);
  for (std::size_t p = 0; p < spec.c; ++p) {
    for (unsigned b = 0; b < spec.coin_bits; ++b) bits.push_back(false);
  }
  const Circuit circuit = build_mix_reveal_circuit(spec);
  const auto got = decode_mix_reveal(spec, evaluate_plain(circuit, bits));
  EXPECT_TRUE(got[0].mixed);
  EXPECT_EQ(got[0].frequency, 0u);  // true frequency 9 never opened
}

TEST(MixRevealCircuitTest, LambdaOneMixesEverything) {
  eppi::Rng rng(502);
  MixRevealSpec spec;
  spec.c = 2;
  spec.q = 16;
  spec.thresholds = {15, 15};
  spec.lambda = 1.0;
  spec.coin_bits = 4;
  const std::vector<std::uint64_t> freqs{1, 2};  // both non-common
  const auto per_party = share_out(freqs, spec.c, spec.q, rng);
  std::vector<bool> bits = flatten_share_inputs(per_party, 4);
  for (std::size_t p = 0; p < spec.c; ++p) {
    for (std::size_t j = 0; j < freqs.size(); ++j) {
      for (unsigned b = 0; b < spec.coin_bits; ++b) {
        bits.push_back(rng.bernoulli(0.5));
      }
    }
  }
  const Circuit circuit = build_mix_reveal_circuit(spec);
  const auto got = decode_mix_reveal(spec, evaluate_plain(circuit, bits));
  EXPECT_TRUE(got[0].mixed);
  EXPECT_TRUE(got[1].mixed);
}

TEST(MixRevealCircuitTest, LambdaZeroRevealsNonCommons) {
  eppi::Rng rng(503);
  MixRevealSpec spec;
  spec.c = 2;
  spec.q = 16;
  spec.thresholds = {15};
  spec.lambda = 0.0;
  spec.coin_bits = 4;
  const std::vector<std::uint64_t> freqs{7};
  const auto per_party = share_out(freqs, spec.c, spec.q, rng);
  std::vector<bool> bits = flatten_share_inputs(per_party, 4);
  for (std::size_t p = 0; p < spec.c; ++p) {
    for (unsigned b = 0; b < spec.coin_bits; ++b) {
      bits.push_back(rng.bernoulli(0.5));
    }
  }
  const Circuit circuit = build_mix_reveal_circuit(spec);
  const auto got = decode_mix_reveal(spec, evaluate_plain(circuit, bits));
  EXPECT_FALSE(got[0].mixed);
  EXPECT_EQ(got[0].frequency, 7u);
}

TEST(PureMpcCircuitTest, MatchesDirectComputation) {
  eppi::Rng rng(600);
  PureMpcSpec spec;
  spec.m = 6;
  spec.thresholds = {3, 5, 1};
  spec.lambda = 0.0;
  spec.coin_bits = 4;
  // Membership bits per provider.
  std::vector<std::vector<bool>> membership(spec.m,
                                            std::vector<bool>(3, false));
  std::vector<std::uint64_t> freqs(3, 0);
  for (std::size_t i = 0; i < spec.m; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      membership[i][j] = rng.bernoulli(0.5);
      freqs[j] += membership[i][j] ? 1 : 0;
    }
  }
  const Circuit circuit = build_pure_mpc_circuit(spec);
  std::vector<bool> bits;
  for (std::size_t i = 0; i < spec.m; ++i) {
    bits.insert(bits.end(), membership[i].begin(), membership[i].end());
  }
  for (std::size_t i = 0; i < spec.m; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (unsigned b = 0; b < spec.coin_bits; ++b) bits.push_back(false);
    }
  }
  const auto got = decode_pure_mpc(spec, evaluate_plain(circuit, bits));
  std::uint64_t expected_count = 0;
  for (std::size_t j = 0; j < 3; ++j) {
    const bool common = freqs[j] >= spec.thresholds[j];
    if (common) ++expected_count;
    EXPECT_EQ(got.identities[j].mixed, common) << "identity " << j;
    EXPECT_EQ(got.identities[j].frequency, common ? 0 : freqs[j]);
  }
  EXPECT_EQ(got.common_count, expected_count);
}

TEST(PureMpcCircuitTest, CircuitSizeGrowsWithProviders) {
  PureMpcSpec small;
  small.m = 4;
  small.thresholds = {2};
  PureMpcSpec large = small;
  large.m = 32;
  const auto s = build_pure_mpc_circuit(small).stats();
  const auto l = build_pure_mpc_circuit(large).stats();
  EXPECT_GT(l.total_gates(), 4 * s.total_gates());
}

TEST(CountBelowCircuitTest, SizeIndependentOfProviderCount) {
  // The MPC-reduced design's point: the CountBelow circuit depends on c and
  // the ring width, not on m. Doubling the ring width (m 2x) grows the
  // circuit only logarithmically.
  CountBelowSpec spec;
  spec.c = 3;
  spec.q = 1 << 10;  // m ~ 1000
  spec.thresholds = std::vector<std::uint64_t>(16, 100);
  const auto small = build_count_below_circuit(spec).stats();
  spec.q = 1 << 20;  // m ~ 1,000,000
  const auto large = build_count_below_circuit(spec).stats();
  EXPECT_LT(large.total_gates(), 3 * small.total_gates());
}

// The planes must be bit for bit what bitslicing a per-identity
// bernoulli(0.5) loop gives, and leave the generator in the same state, for
// full, partial and single-lane words.
TEST(CoinPlanesTest, MatchBitslicedBernoulliLoop) {
  for (const std::size_t n : {1, 63, 64, 65, 1000}) {
    for (const unsigned coin_bits : {1u, 16u}) {
      eppi::Rng reference(n * 131 + coin_bits);
      eppi::Rng fast(n * 131 + coin_bits);
      std::vector<eppi::SecretU64> coins;
      for (std::size_t j = 0; j < n; ++j) {
        std::uint64_t coin = 0;
        for (unsigned b = 0; b < coin_bits; ++b) {
          if (reference.bernoulli(0.5)) coin |= std::uint64_t{1} << b;
        }
        coins.emplace_back(coin);
      }
      const auto expected =
          eppi::reveal_shares(bitslice_inputs(coins, coin_bits));
      const auto planes =
          eppi::reveal_shares(draw_coin_planes(n, coin_bits, fast));
      EXPECT_EQ(planes, expected) << "n " << n << " coin_bits " << coin_bits;
      EXPECT_EQ(fast.next(), reference.next());
    }
  }
}

}  // namespace
}  // namespace eppi::mpc
