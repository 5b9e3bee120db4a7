#include "mpc/optimizer.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mpc/circuit_builder.h"
#include "mpc/eppi_circuits.h"
#include "mpc/plain_eval.h"

namespace eppi::mpc {
namespace {

TEST(OptimizerTest, RemovesDeadGates) {
  CircuitBuilder cb;
  const Wire a = cb.input_bit(0);
  const Wire b = cb.input_bit(0);
  (void)cb.And(a, b);  // dead: never used as output
  cb.output(cb.Xor(a, b));
  const Circuit circuit = cb.take();
  const auto result = optimize_circuit(circuit);
  EXPECT_EQ(result.stats.dead_removed, 1u);
  EXPECT_EQ(result.circuit.stats().and_gates, 0u);
  EXPECT_EQ(result.circuit.stats().xor_gates, 1u);
}

TEST(OptimizerTest, KeepsAllInputsEvenIfUnused) {
  CircuitBuilder cb;
  const Wire a = cb.input_bit(0);
  (void)cb.input_bit(1);  // unused input must survive
  cb.output(a);
  const Circuit circuit = cb.take();
  const auto result = optimize_circuit(circuit);
  EXPECT_EQ(result.circuit.inputs().size(), 2u);
  EXPECT_EQ(result.circuit.inputs_of(1).size(), 1u);
}

TEST(OptimizerTest, MergesCommonSubexpressions) {
  CircuitBuilder cb;
  const Wire a = cb.input_bit(0);
  const Wire b = cb.input_bit(0);
  // Same AND built twice, once with swapped operands.
  const Wire x = cb.And(a, b);
  const Wire y = cb.And(b, a);
  cb.output(cb.Xor(x, y));
  const Circuit circuit = cb.take();
  ASSERT_EQ(circuit.stats().and_gates, 2u);  // builder doesn't CSE
  const auto result = optimize_circuit(circuit);
  EXPECT_EQ(result.stats.cse_merged, 1u);
  EXPECT_EQ(result.circuit.stats().and_gates, 1u);
  // x ^ x folds to constant 0 in the rebuild.
  EXPECT_EQ(result.circuit.stats().xor_gates, 0u);
}

TEST(OptimizerTest, CollapsesDoubleNegation) {
  CircuitBuilder cb;
  const Wire a = cb.input_bit(0);
  cb.output(cb.Not(cb.Not(a)));
  const Circuit circuit = cb.take();
  ASSERT_EQ(circuit.stats().not_gates, 2u);
  const auto result = optimize_circuit(circuit);
  EXPECT_EQ(result.stats.not_collapsed, 1u);
  EXPECT_EQ(result.circuit.stats().not_gates, 1u);
  // Semantics: identity.
  EXPECT_EQ(evaluate_plain(result.circuit, {true})[0], true);
  EXPECT_EQ(evaluate_plain(result.circuit, {false})[0], false);
}

// Property: optimization never changes the computed function.
class OptimizerEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerEquivalenceSweep, PreservesSemanticsOnRandomCircuits) {
  eppi::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  CircuitBuilder cb;
  std::vector<Wire> pool;
  constexpr std::size_t kInputs = 8;
  for (std::size_t i = 0; i < kInputs; ++i) {
    pool.push_back(cb.input_bit(0));
  }
  for (int g = 0; g < 60; ++g) {
    const Wire a = pool[rng.next_below(pool.size())];
    const Wire b = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0:
        pool.push_back(cb.And(a, b));
        break;
      case 1:
        pool.push_back(cb.Xor(a, b));
        break;
      case 2:
        pool.push_back(cb.Not(a));
        break;
      default:
        pool.push_back(cb.Or(a, b));
        break;
    }
  }
  for (int o = 0; o < 6; ++o) cb.output(pool[pool.size() - 1 - o]);
  const Circuit circuit = cb.take();
  const auto optimized = optimize_circuit(circuit);
  EXPECT_LE(optimized.circuit.stats().total_gates(),
            circuit.stats().total_gates());
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<bool> inputs(kInputs);
    for (std::size_t i = 0; i < kInputs; ++i) inputs[i] = rng.bernoulli(0.5);
    EXPECT_EQ(evaluate_plain(optimized.circuit, inputs),
              evaluate_plain(circuit, inputs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalenceSweep,
                         ::testing::Range(0, 8));

TEST(OptimizerTest, ShrinksEppiCircuits) {
  CountBelowSpec spec;
  spec.c = 3;
  spec.q = 1 << 10;
  spec.thresholds = std::vector<std::uint64_t>(16, 100);
  spec.xi_ranks = std::vector<std::uint64_t>(16, 3);  // repeated ranks: CSE fodder
  const Circuit circuit = build_count_below_circuit(spec);
  const auto optimized = optimize_circuit(circuit);
  EXPECT_LT(optimized.circuit.stats().total_gates(),
            circuit.stats().total_gates());
  // Equivalence on a random share assignment.
  eppi::Rng rng(5);
  std::vector<bool> inputs(circuit.inputs().size() * circuit.lanes());
  for (auto&& bit : inputs) bit = rng.bernoulli(0.5);
  EXPECT_EQ(evaluate_plain(optimized.circuit, inputs),
            evaluate_plain(circuit, inputs));
}

TEST(OptimizerTest, IdempotentOnOptimizedCircuit) {
  CircuitBuilder cb;
  const Wire a = cb.input_bit(0);
  const Wire b = cb.input_bit(0);
  cb.output(cb.And(a, b));
  const Circuit circuit = cb.take();
  const auto once = optimize_circuit(circuit);
  const auto twice = optimize_circuit(once.circuit);
  EXPECT_EQ(twice.stats.dead_removed, 0u);
  EXPECT_EQ(twice.stats.cse_merged, 0u);
  EXPECT_EQ(twice.circuit.stats().total_gates(),
            once.circuit.stats().total_gates());
}

}  // namespace
}  // namespace eppi::mpc
