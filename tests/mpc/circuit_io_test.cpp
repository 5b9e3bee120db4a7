#include "mpc/circuit_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "mpc/circuit_builder.h"
#include "mpc/eppi_circuits.h"
#include "mpc/plain_eval.h"

namespace eppi::mpc {
namespace {

Circuit random_circuit(std::uint64_t seed, std::size_t n_inputs = 6,
                       int n_gates = 40) {
  eppi::Rng rng(seed);
  CircuitBuilder cb;
  std::vector<Wire> pool;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    pool.push_back(cb.input_bit(static_cast<std::uint32_t>(i % 2)));
  }
  for (int g = 0; g < n_gates; ++g) {
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
  for (int o = 0; o < 4; ++o) cb.output(pool[pool.size() - 1 - o]);
  return cb.take();
}

TEST(CircuitIoTest, RoundTripPreservesStatsAndSemantics) {
  const Circuit original = random_circuit(11);
  std::stringstream ss;
  save_circuit(ss, original);
  const Circuit loaded = load_circuit(ss);
  EXPECT_EQ(loaded.stats().and_gates, original.stats().and_gates);
  EXPECT_EQ(loaded.stats().xor_gates, original.stats().xor_gates);
  EXPECT_EQ(loaded.stats().not_gates, original.stats().not_gates);
  EXPECT_EQ(loaded.stats().and_depth, original.stats().and_depth);
  EXPECT_EQ(loaded.inputs().size(), original.inputs().size());
  EXPECT_EQ(loaded.outputs().size(), original.outputs().size());

  eppi::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> inputs(original.inputs().size());
    for (auto&& b : inputs) b = rng.bernoulli(0.5);
    EXPECT_EQ(evaluate_plain(loaded, inputs),
              evaluate_plain(original, inputs));
  }
}

TEST(CircuitIoTest, RoundTripPreservesInputOwnership) {
  const Circuit original = random_circuit(12);
  std::stringstream ss;
  save_circuit(ss, original);
  const Circuit loaded = load_circuit(ss);
  EXPECT_EQ(loaded.inputs_of(0).size(), original.inputs_of(0).size());
  EXPECT_EQ(loaded.inputs_of(1).size(), original.inputs_of(1).size());
}

TEST(CircuitIoTest, RoundTripEppiCircuit) {
  CountBelowSpec spec;
  spec.c = 3;
  spec.q = 64;
  spec.thresholds = {10, 20, 30};
  spec.xi_ranks = {1, 2, 3};
  const Circuit original = build_count_below_circuit(spec);
  std::stringstream ss;
  save_circuit(ss, original);
  const Circuit loaded = load_circuit(ss);
  EXPECT_EQ(loaded.stats().total_gates(), original.stats().total_gates());
  EXPECT_EQ(loaded.stats().and_depth, original.stats().and_depth);
  EXPECT_EQ(loaded.template_stats().total_gates(),
            original.template_stats().total_gates());
  EXPECT_EQ(loaded.lanes(), original.lanes());
  eppi::Rng rng(4);
  std::vector<bool> inputs(original.inputs().size() * original.lanes());
  for (auto&& b : inputs) b = rng.bernoulli(0.5);
  EXPECT_EQ(evaluate_plain(loaded, inputs), evaluate_plain(original, inputs));
}

TEST(CircuitIoTest, BadMagicRejected) {
  std::stringstream ss("garbage garbage garbage");
  EXPECT_THROW(load_circuit(ss), eppi::SerializeError);
}

TEST(CircuitIoTest, TruncatedPayloadRejected) {
  const Circuit original = random_circuit(13);
  std::stringstream ss;
  save_circuit(ss, original);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() - 5));
  EXPECT_THROW(load_circuit(truncated), eppi::SerializeError);
}

TEST(CircuitIoTest, EmptyStreamRejected) {
  std::stringstream ss;
  EXPECT_THROW(load_circuit(ss), eppi::SerializeError);
}

}  // namespace
}  // namespace eppi::mpc
