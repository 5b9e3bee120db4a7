// The bitsliced GMW engine on multi-lane templates: random circuits with
// public words and lane halving must open exactly what the plain evaluator
// computes, for lane counts around the 64-lane word boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mpc/circuit_builder.h"
#include "mpc/gmw.h"
#include "mpc/circuit.h"
#include "mpc/plain_eval.h"
#include "net/cluster.h"

namespace eppi::mpc {
namespace {

using eppi::net::Cluster;
using eppi::net::PartyContext;
using eppi::net::PartyId;

// Random lane bits for every input wire, in declaration order.
std::vector<std::vector<bool>> random_inputs(const Circuit& circuit,
                                             eppi::Rng& rng) {
  std::vector<std::vector<bool>> lanes(circuit.inputs().size(),
                                       std::vector<bool>(circuit.lanes()));
  for (auto& wire : lanes) {
    for (auto&& bit : wire) bit = rng.bernoulli(0.5);
  }
  return lanes;
}

// Runs `circuit` under GMW; returns party 0's opened bits and checks that
// every party opened the same.
std::vector<bool> run_secure(const Circuit& circuit, std::size_t n_parties,
                             const std::vector<std::vector<bool>>& lanes,
                             std::uint64_t seed) {
  const std::size_t words = lane_words(circuit.lanes());
  std::vector<std::vector<eppi::SecretU64>> inputs(n_parties);
  for (std::size_t i = 0; i < circuit.inputs().size(); ++i) {
    auto& mine = inputs[circuit.input_owner(circuit.inputs()[i])];
    std::vector<std::uint64_t> packed(words, 0);
    for (std::size_t l = 0; l < lanes[i].size(); ++l) {
      if (lanes[i][l]) packed[l / 64] |= std::uint64_t{1} << (l % 64);
    }
    for (const std::uint64_t w : packed) mine.emplace_back(w);
  }
  Cluster cluster(n_parties, seed);
  std::vector<std::vector<bool>> outputs(n_parties);
  cluster.run([&](PartyContext& ctx) {
    GmwSession session;
    for (std::size_t i = 0; i < n_parties; ++i) {
      session.parties.push_back(static_cast<PartyId>(i));
    }
    outputs[ctx.id()] = opened_bits(
        circuit, run_gmw_party(ctx, session, circuit, inputs[ctx.id()]));
  });
  for (std::size_t i = 1; i < n_parties; ++i) {
    EXPECT_EQ(outputs[i], outputs[0]) << "party " << i << " disagrees";
  }
  return outputs[0];
}

std::vector<bool> flatten(const std::vector<std::vector<bool>>& lanes) {
  std::vector<bool> flat;
  for (const auto& wire : lanes) flat.insert(flat.end(), wire.begin(), wire.end());
  return flat;
}

// A random template: secret inputs, public words, random gates at level 0,
// then a lane reduction (sum and max) with random gates at every level.
Circuit random_template(std::size_t lanes, std::size_t n_parties,
                        eppi::Rng& rng) {
  CircuitBuilder cb(lanes);
  std::vector<Wire> pool;
  for (std::size_t p = 0; p < n_parties; ++p) {
    for (const Wire w : cb.input_bits(static_cast<std::uint32_t>(p), 3)) {
      pool.push_back(w);
    }
  }
  std::vector<std::uint64_t> values(lanes);
  for (auto& v : values) v = rng.next_below(4);
  for (const Wire w : cb.public_bits(values, 2)) pool.push_back(w);
  const auto grow = [&](std::vector<Wire>& from, int gates) {
    for (int g = 0; g < gates; ++g) {
      const Wire a = from[rng.next_below(from.size())];
      const Wire b = from[rng.next_below(from.size())];
      switch (rng.next_below(4)) {
        case 0:
          from.push_back(cb.And(a, b));
          break;
        case 1:
          from.push_back(cb.Xor(a, b));
          break;
        case 2:
          from.push_back(cb.Not(a));
          break;
        default:
          from.push_back(cb.Or(a, b));
          break;
      }
    }
  };
  grow(pool, 30);
  for (int o = 0; o < 4; ++o) cb.output(pool[pool.size() - 1 - o]);
  WireVec sum{pool[pool.size() - 5], pool[pool.size() - 6]};
  WireVec best{pool[pool.size() - 7], pool[pool.size() - 8]};
  while (cb.lanes_here() > 1) {
    cb.next_level();
    sum = cb.add_expand(cb.halve_vec(sum, false), cb.halve_vec(sum, true));
    const WireVec lo = cb.halve_vec(best, false);
    const WireVec hi = cb.halve_vec(best, true);
    best = cb.mux_vec(cb.lt(lo, hi), hi, lo);
    std::vector<Wire> level_pool(sum.begin(), sum.end());
    level_pool.insert(level_pool.end(), best.begin(), best.end());
    grow(level_pool, 3);
    cb.output(level_pool.back());
  }
  cb.output_vec(sum);
  cb.output_vec(best);
  return cb.take();
}

class BitslicedGmwSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BitslicedGmwSweep, MatchesPlainEvaluationOnRandomTemplates) {
  const auto [lanes, n_parties] = GetParam();
  eppi::Rng rng(lanes * 7 + n_parties);
  for (int trial = 0; trial < 3; ++trial) {
    const Circuit circuit = random_template(lanes, n_parties, rng);
    const auto inputs = random_inputs(circuit, rng);
    const auto expected = evaluate_plain(circuit, flatten(inputs));
    EXPECT_EQ(run_secure(circuit, n_parties, inputs, trial + 1), expected)
        << "lanes=" << lanes << " parties=" << n_parties << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, BitslicedGmwSweep,
    ::testing::Combine(::testing::Values(1, 63, 64, 65, 1000),
                       ::testing::Values(2, 3)));

TEST(BitslicedGmwTest, HalvingSumsAcrossLanes) {
  // Popcount of one secret bit per lane, for odd and even lane counts.
  for (const std::size_t lanes : {1u, 2u, 3u, 64u, 65u, 127u, 1000u}) {
    CircuitBuilder cb(lanes);
    WireVec count{cb.Xor(cb.input_bit(0), cb.input_bit(1))};
    while (cb.lanes_here() > 1) {
      cb.next_level();
      count = cb.add_expand(cb.halve_vec(count, false),
                            cb.halve_vec(count, true));
    }
    cb.output_vec(count);
    const Circuit circuit = cb.take();
    eppi::Rng rng(lanes);
    const auto inputs = random_inputs(circuit, rng);
    std::uint64_t expected = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      expected += inputs[0][l] != inputs[1][l] ? 1 : 0;
    }
    EXPECT_EQ(bits_to_u64(run_secure(circuit, 2, inputs, 1)), expected)
        << "lanes=" << lanes;
  }
}

TEST(BitslicedGmwTest, LogicalStatsWeighGatesByLanes) {
  CircuitBuilder cb(100);
  const Wire a = cb.And(cb.input_bit(0), cb.input_bit(1));
  cb.next_level();
  const Wire b = cb.And(cb.halve(a, false), cb.halve(a, true));
  cb.output(b);
  const Circuit circuit = cb.take();
  EXPECT_EQ(circuit.stats().and_gates, 100u + 50u);
  EXPECT_EQ(circuit.stats().input_wires, 200u);
  EXPECT_EQ(circuit.stats().and_depth, 2u);
  EXPECT_EQ(circuit.template_stats().and_gates, 2u);
  EXPECT_EQ(circuit.template_stats().and_depth, 2u);
  EXPECT_EQ(circuit.lanes_of(b), 50u);
}

TEST(BitslicedGmwTest, PublicWordsFoldOrStayLocal) {
  CircuitBuilder cb(3);
  const std::vector<std::uint64_t> uniform{5, 5, 5};
  const WireVec folded = cb.public_bits(uniform, 3);
  const std::vector<std::uint64_t> mixed{1, 0, 1};
  const Wire word = cb.public_bits(mixed, 1)[0];
  const Wire x = cb.input_bit(0);
  const Wire masked = cb.And(x, word);  // local: no triple, no round
  cb.output(masked);
  cb.output(cb.Xor(cb.input_bit(1), word));
  const Circuit circuit = cb.take();
  // 5 = 0b101 in every lane folds to constants, like any public value.
  EXPECT_EQ(circuit.gates()[folded[0]].op, GateOp::kConstOne);
  EXPECT_EQ(circuit.gates()[folded[1]].op, GateOp::kConstZero);
  EXPECT_EQ(circuit.gates()[folded[2]].op, GateOp::kConstOne);
  EXPECT_EQ(circuit.gates()[word].op, GateOp::kPublic);
  EXPECT_TRUE(circuit.is_public(word));
  EXPECT_FALSE(circuit.is_public(masked));
  EXPECT_EQ(circuit.stats().and_gates, 0u);
  EXPECT_EQ(circuit.stats().and_depth, 0u);
  const std::vector<std::vector<bool>> inputs{{true, true, false},
                                              {false, true, true}};
  const std::vector<bool> expected{true, false, false, true, true, false};
  EXPECT_EQ(run_secure(circuit, 2, inputs, 3), expected);
  EXPECT_EQ(evaluate_plain(circuit, flatten(inputs)), expected);
}

TEST(BitslicedGmwTest, RoundCountMatchesTemplateDepth) {
  CircuitBuilder cb(130);
  WireVec v = cb.input_bits(0, 2);
  v = cb.add_expand(v, cb.input_bits(1, 2));
  while (cb.lanes_here() > 1) {
    cb.next_level();
    v = cb.add_expand(cb.halve_vec(v, false), cb.halve_vec(v, true));
  }
  cb.output_vec(v);
  const Circuit circuit = cb.take();
  Cluster cluster(2);
  cluster.run([&](PartyContext& ctx) {
    GmwSession session;
    session.parties = {0, 1};
    const std::vector<eppi::SecretU64> inputs(2 * lane_words(130));
    (void)run_gmw_party(ctx, session, circuit, inputs);
  });
  EXPECT_EQ(cluster.meter().snapshot().rounds, gmw_round_count(circuit));
}

TEST(BitslicedGmwTest, BitInputsNeedOneLane) {
  CircuitBuilder cb(2);
  cb.output(cb.And(cb.input_bit(0), cb.input_bit(1)));
  const Circuit circuit = cb.take();
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([&](PartyContext& ctx) {
                 GmwSession session;
                 session.parties = {0, 1};
                 (void)run_gmw_party(ctx, session, circuit,
                                     std::vector<bool>{true});
               }),
               eppi::ConfigError);
}

TEST(BitslicedGmwTest, BuilderRejectsMixedLevels) {
  CircuitBuilder cb(8);
  const Wire x = cb.input_bit(0);
  cb.next_level();
  EXPECT_THROW((void)cb.Xor(x, cb.halve(x, false)), eppi::ConfigError);
  EXPECT_THROW((void)cb.input_bit(1), eppi::ConfigError);
}

}  // namespace
}  // namespace eppi::mpc
