// Differential and pin tests for the per-identity templates.
//
// The CountBelow, MixAndReveal and pure-MPC templates, evaluated bitsliced
// by the GMW engine, must open exactly what the plain references compute,
// across lane counts around the 64-lane word boundary, coordinator counts,
// power-of-two and general moduli, and threshold shapes that fold, vary by
// lane, or saturate. The logical sizes they report are pinned to the sizes
// of the circuits unrolled over every identity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/beta_policy.h"
#include "mpc/eppi_circuits.h"
#include "mpc/gmw.h"
#include "net/cluster.h"
#include "secret/additive_share.h"
#include "secret/mod_ring.h"

namespace eppi::mpc {
namespace {

using eppi::net::Cluster;
using eppi::net::PartyContext;
using eppi::net::PartyId;
using Words = std::vector<std::uint64_t>;

// Runs `circuit` among `parties` GMW parties; inputs[p] are party p's input
// values per wire group, each bitsliced at its width. Returns the opened
// bits (checked equal on every party).
std::vector<bool> run_secure(
    const Circuit& circuit,
    const std::vector<std::vector<std::pair<Words, unsigned>>>& inputs,
    std::uint64_t seed) {
  const std::size_t parties = inputs.size();
  std::vector<std::vector<bool>> outputs(parties);
  Cluster cluster(parties, seed);
  cluster.run([&](PartyContext& ctx) {
    std::vector<eppi::SecretU64> words;
    for (const auto& [values, width] : inputs[ctx.id()]) {
      const auto sliced =
          bitslice_inputs(eppi::secret::wrap_shares(values), width);
      words.insert(words.end(), sliced.begin(), sliced.end());
    }
    GmwSession session;
    for (std::size_t i = 0; i < parties; ++i) {
      session.parties.push_back(static_cast<PartyId>(i));
    }
    outputs[ctx.id()] = opened_bits(
        circuit, run_gmw_party(ctx, session, circuit, words));
  });
  for (std::size_t p = 1; p < parties; ++p) {
    EXPECT_EQ(outputs[p], outputs[0]) << "party " << p << " disagrees";
  }
  return outputs[0];
}

enum class Thresholds { kUniform, kMixed, kAllZero, kAboveMax };

const char* name_of(Thresholds t) {
  switch (t) {
    case Thresholds::kUniform:
      return "uniform";
    case Thresholds::kMixed:
      return "mixed";
    case Thresholds::kAllZero:
      return "all-zero";
    case Thresholds::kAboveMax:
      return "above-max";
  }
  return "?";
}

// Thresholds for frequencies in [0, max_freq] under a ring of width bits.
Words make_thresholds(Thresholds shape, std::size_t n, std::uint64_t max_freq,
                      eppi::Rng& rng) {
  Words t(n, 0);
  for (auto& v : t) {
    switch (shape) {
      case Thresholds::kUniform:
        v = max_freq / 2 + 1;
        break;
      case Thresholds::kMixed:
        v = rng.next_below(max_freq + 2);
        break;
      case Thresholds::kAllZero:
        v = 0;
        break;
      case Thresholds::kAboveMax:
        v = max_freq + 1 + rng.next_below(3);
        break;
    }
  }
  return t;
}

// Additive shares mod q of per-identity frequencies, per party.
std::vector<Words> share_frequencies(const Words& freqs, std::size_t c,
                                     std::uint64_t q, eppi::Rng& rng) {
  const eppi::secret::ModRing ring(q);
  std::vector<Words> per_party(c, Words(freqs.size()));
  for (std::size_t j = 0; j < freqs.size(); ++j) {
    const auto shares = eppi::secret::split_additive(freqs[j], c, ring, rng);
    // The test plays every coordinator, so holding all shares is legitimate.
    for (std::size_t i = 0; i < c; ++i) per_party[i][j] = shares[i].reveal();
  }
  return per_party;
}

Words random_words(std::size_t n, std::uint64_t bound, eppi::Rng& rng) {
  Words w(n);
  for (auto& v : w) v = rng.next_below(bound);
  return w;
}

const std::size_t kLanes[] = {1, 63, 64, 65, 1000, 50000};
const Thresholds kShapes[] = {Thresholds::kUniform, Thresholds::kMixed,
                              Thresholds::kAllZero, Thresholds::kAboveMax};
// A power of two (carry-free reduction) and not (the add_mod subtract path).
const std::uint64_t kModuli[] = {16, 13};

TEST(TemplateDifferentialTest, CountBelowMatchesPlainReference) {
  std::uint64_t seed = 1;
  for (const std::size_t n : kLanes) {
    for (const std::size_t c : {2u, 3u, 5u}) {
      for (const std::uint64_t q : kModuli) {
        for (const Thresholds shape : kShapes) {
          eppi::Rng rng(++seed);
          const std::uint64_t max_freq = q - 4;
          CountBelowSpec spec;
          spec.c = c;
          spec.q = q;
          spec.thresholds = make_thresholds(shape, n, max_freq, rng);
          spec.xi_ranks = random_words(n, 6, rng);
          for (auto& r : spec.xi_ranks) ++r;
          const auto shares = share_frequencies(
              random_words(n, max_freq + 1, rng), c, q, rng);
          const unsigned width = eppi::secret::ModRing(q).bit_width();
          std::vector<std::vector<std::pair<Words, unsigned>>> inputs(c);
          for (std::size_t i = 0; i < c; ++i) inputs[i] = {{shares[i], width}};
          const Circuit circuit = build_count_below_circuit(spec);
          const auto got =
              decode_count_below(spec, run_secure(circuit, inputs, seed));
          const auto expected = plain_count_below(spec, shares);
          EXPECT_EQ(got.common_count, expected.common_count)
              << "n=" << n << " c=" << c << " q=" << q << " "
              << name_of(shape);
          EXPECT_EQ(got.max_xi_rank, expected.max_xi_rank)
              << "n=" << n << " c=" << c << " q=" << q << " "
              << name_of(shape);
        }
      }
    }
  }
}

TEST(TemplateDifferentialTest, MixRevealMatchesPlainReference) {
  std::uint64_t seed = 100;
  for (const std::size_t n : kLanes) {
    for (const double lambda : {0.0, 0.3, 1.0}) {
      for (const Thresholds shape : kShapes) {
        ++seed;
        const std::size_t coordinators[] = {2, 3, 5};
        const std::size_t c = coordinators[seed % 3];
        const std::uint64_t q = kModuli[seed % 2];
        eppi::Rng rng(seed);
        MixRevealSpec spec;
        spec.c = c;
        spec.q = q;
        spec.thresholds = make_thresholds(shape, n, q - 4, rng);
        spec.lambda = lambda;
        spec.coin_bits = 8;
        const auto shares =
            share_frequencies(random_words(n, q - 3, rng), c, q, rng);
        std::vector<Words> coins(c);
        for (auto& w : coins) w = random_words(n, 1u << spec.coin_bits, rng);
        const unsigned width = eppi::secret::ModRing(q).bit_width();
        std::vector<std::vector<std::pair<Words, unsigned>>> inputs(c);
        for (std::size_t i = 0; i < c; ++i) {
          inputs[i] = {{shares[i], width}, {coins[i], spec.coin_bits}};
        }
        const Circuit circuit = build_mix_reveal_circuit(spec);
        const auto got =
            decode_mix_reveal(spec, run_secure(circuit, inputs, seed));
        const auto expected = plain_mix_reveal(spec, shares, coins);
        ASSERT_EQ(got.size(), expected.size());
        std::size_t mismatches = 0;
        for (std::size_t j = 0; j < n; ++j) {
          if (got[j].mixed != expected[j].mixed ||
              got[j].frequency != expected[j].frequency) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "n=" << n << " c=" << c << " q=" << q
                                  << " lambda=" << lambda << " "
                                  << name_of(shape);
      }
    }
  }
}

// Plain pure-MPC reference: frequencies straight from membership.
PureMpcResult plain_pure_mpc(const PureMpcSpec& spec,
                             const std::vector<Words>& membership,
                             const std::vector<Words>& coins) {
  const std::size_t n = spec.thresholds.size();
  const auto coin_threshold = static_cast<std::uint64_t>(std::llround(
      spec.lambda * static_cast<double>(std::uint64_t{1} << spec.coin_bits)));
  PureMpcResult result;
  result.identities.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t sum = 0;
    std::uint64_t joint = 0;
    for (std::size_t i = 0; i < spec.m; ++i) {
      sum += membership[i][j];
      joint ^= coins[i][j];
    }
    const bool common = sum >= spec.thresholds[j];
    if (common) ++result.common_count;
    result.identities[j].mixed = common || joint < coin_threshold;
    result.identities[j].frequency = result.identities[j].mixed ? 0 : sum;
  }
  return result;
}

TEST(TemplateDifferentialTest, PureMpcMatchesPlainReference) {
  std::uint64_t seed = 200;
  for (const std::size_t n : {1u, 63u, 64u, 65u, 1000u}) {
    for (const std::size_t m : {3u, 5u}) {
      for (const Thresholds shape : kShapes) {
        eppi::Rng rng(++seed);
        PureMpcSpec spec;
        spec.m = m;
        spec.thresholds = make_thresholds(shape, n, m, rng);
        spec.lambda = seed % 2 == 0 ? 0.3 : 0.0;
        spec.coin_bits = 6;
        std::vector<Words> membership(m);
        std::vector<Words> coins(m);
        std::vector<std::vector<std::pair<Words, unsigned>>> inputs(m);
        for (std::size_t i = 0; i < m; ++i) {
          membership[i] = random_words(n, 2, rng);
          coins[i] = random_words(n, 1u << spec.coin_bits, rng);
          inputs[i] = {{membership[i], 1}, {coins[i], spec.coin_bits}};
        }
        const auto got = decode_pure_mpc(
            spec, run_secure(build_pure_mpc_circuit(spec), inputs, seed));
        const auto expected = plain_pure_mpc(spec, membership, coins);
        EXPECT_EQ(got.common_count, expected.common_count)
            << "n=" << n << " m=" << m << " " << name_of(shape);
        ASSERT_EQ(got.identities.size(), n);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(got.identities[j].mixed, expected.identities[j].mixed)
              << "identity " << j;
          ASSERT_EQ(got.identities[j].frequency,
                    expected.identities[j].frequency)
              << "identity " << j;
        }
      }
    }
  }
}

// --- pins: logical sizes equal the unrolled circuits' ------------------------

TEST(TemplatePinTest, ConstructM4ShapeKeepsUnrolledSize) {
  // m = 4, c = 2, q = 8, n = 50,000 identities, every threshold 0 (Chernoff
  // γ = 0.9 saturates at m = 4).
  constexpr std::size_t kN = 50000;
  eppi::Rng rng(7);
  CountBelowSpec cb;
  cb.c = 2;
  cb.q = 8;
  cb.thresholds.assign(kN, 0);
  cb.xi_ranks = random_words(kN, 5, rng);
  for (auto& r : cb.xi_ranks) ++r;
  const Circuit count_below = build_count_below_circuit(cb);
  EXPECT_EQ(count_below.stats().and_gates, 250000u);
  EXPECT_EQ(count_below.stats().and_depth, 3u);
  EXPECT_EQ(count_below.template_stats().and_gates, 5u);

  MixRevealSpec mr;
  mr.c = 2;
  mr.q = 8;
  mr.thresholds = cb.thresholds;
  for (const double lambda : {0.0, 1.0}) {
    mr.lambda = lambda;
    const auto stats = build_mix_reveal_circuit(mr).stats();
    EXPECT_EQ(stats.and_gates, 250000u) << "lambda=" << lambda;
    EXPECT_EQ(stats.and_depth, 3u) << "lambda=" << lambda;
  }
  mr.lambda = 0.3;
  const auto stats = build_mix_reveal_circuit(mr).stats();
  EXPECT_EQ(stats.and_gates, 1150000u);
  EXPECT_EQ(stats.and_depth, 16u);
}

TEST(TemplatePinTest, Fig6bRowsKeepUnrolledSize) {
  struct Row {
    std::size_t m;
    std::uint64_t eppi_gates, eppi_and, eppi_depth;
    std::uint64_t pure_gates, pure_and, pure_depth;
  };
  const Row rows[] = {
      {3, 84, 20, 9, 62, 11, 7},      {11, 149, 45, 12, 199, 41, 8},
      {21, 180, 56, 13, 357, 73, 8},  {31, 180, 56, 13, 503, 101, 8},
      {41, 191, 59, 14, 645, 127, 8}, {51, 199, 63, 14, 801, 160, 8},
      {61, 197, 61, 14, 947, 187, 8},
  };
  for (const Row& row : rows) {
    // bench_fig6b's configuration: one identity, ε = 0.5, c = 3.
    const std::vector<double> eps{0.5};
    const auto thresholds = eppi::core::common_thresholds(
        eppi::core::BetaPolicy::chernoff(0.9), eps, row.m);
    CountBelowSpec cb;
    cb.c = 3;
    cb.q = eppi::secret::ModRing::power_of_two_for(row.m).q();
    cb.thresholds.assign(thresholds.begin(), thresholds.end());
    cb.xi_ranks = {1};
    MixRevealSpec mr;
    mr.c = 3;
    mr.q = cb.q;
    mr.thresholds = cb.thresholds;
    mr.lambda = 0.1;
    mr.coin_bits = 8;
    PureMpcSpec pure;
    pure.m = row.m;
    pure.thresholds = cb.thresholds;
    pure.lambda = 0.1;
    pure.coin_bits = 8;
    const auto c = build_count_below_circuit(cb).stats();
    const auto x = build_mix_reveal_circuit(mr).stats();
    const auto p = build_pure_mpc_circuit(pure).stats();
    EXPECT_EQ(c.total_gates() + x.total_gates(), row.eppi_gates) << row.m;
    EXPECT_EQ(c.and_gates + x.and_gates, row.eppi_and) << row.m;
    EXPECT_EQ(c.and_depth + x.and_depth, row.eppi_depth) << row.m;
    EXPECT_EQ(p.total_gates(), row.pure_gates) << row.m;
    EXPECT_EQ(p.and_gates, row.pure_and) << row.m;
    EXPECT_EQ(p.and_depth, row.pure_depth) << row.m;
  }
}

TEST(TemplatePinTest, TemplateSizeGrowsOnlyWithReductionLevels) {
  CountBelowSpec spec;
  spec.c = 3;
  spec.q = 1 << 10;
  spec.thresholds.assign(64, 100);
  const auto small = build_count_below_circuit(spec).template_stats();
  spec.thresholds.assign(65536, 100);
  const auto large = build_count_below_circuit(spec).template_stats();
  // 64 -> 65536 lanes adds ten halving levels to the count's adder tree,
  // each at most a (level + 1)-bit ripple add; the per-identity part is the
  // same template.
  EXPECT_LT(large.and_gates - small.and_gates, 10u * 2u * 17u);
}

}  // namespace
}  // namespace eppi::mpc
