#include "mpc/plain_eval.h"

#include "common/error.h"

namespace eppi::mpc {

std::vector<std::uint64_t> evaluate_gate(
    const Circuit& circuit, Wire w,
    const std::vector<std::vector<std::uint64_t>>& values) {
  const Gate& g = circuit.gates()[w];
  const std::size_t lanes = circuit.lanes_of(w);
  std::vector<std::uint64_t> out(lane_words(lanes), 0);
  switch (g.op) {
    case GateOp::kInput:
      throw ConfigError("evaluate_gate: input wires have no gate");
    case GateOp::kConstZero:
      break;
    case GateOp::kConstOne:
      for (auto& word : out) word = ~std::uint64_t{0};
      break;
    case GateOp::kPublic:
      out = circuit.public_words(w);
      break;
    case GateOp::kXor:
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = values[g.a][i] ^ values[g.b][i];
      }
      break;
    case GateOp::kAnd:
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = values[g.a][i] & values[g.b][i];
      }
      break;
    case GateOp::kNot:
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = ~values[g.a][i];
      break;
    case GateOp::kHalve:
      out = take_lanes(values[g.a], g.b != 0 ? lanes : 0, lanes);
      break;
  }
  if (!out.empty()) out.back() &= tail_mask(lanes);
  return out;
}

std::vector<bool> evaluate_plain(const Circuit& circuit,
                                 const std::vector<bool>& inputs) {
  const std::size_t lanes = circuit.lanes();
  require(inputs.size() == circuit.inputs().size() * lanes,
          "evaluate_plain: input count mismatch");
  std::vector<std::vector<std::uint64_t>> values(circuit.n_wires());
  std::size_t next_input = 0;
  for (Wire w = 0; w < circuit.n_wires(); ++w) {
    if (circuit.gates()[w].op != GateOp::kInput) {
      values[w] = evaluate_gate(circuit, w, values);
      continue;
    }
    values[w].assign(lane_words(lanes), 0);
    for (std::size_t l = 0; l < lanes; ++l, ++next_input) {
      if (inputs[next_input]) values[w][l / 64] |= std::uint64_t{1} << (l % 64);
    }
  }
  std::vector<bool> outputs;
  for (const Wire w : circuit.outputs()) {
    for (std::size_t l = 0; l < circuit.lanes_of(w); ++l) {
      outputs.push_back(((values[w][l / 64] >> (l % 64)) & 1) != 0);
    }
  }
  return outputs;
}

std::uint64_t bits_to_u64(const std::vector<bool>& bits) {
  require(bits.size() <= 64, "bits_to_u64: too many bits");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) v |= std::uint64_t{1} << i;
  }
  return v;
}

std::vector<bool> u64_to_bits(std::uint64_t value, unsigned width) {
  std::vector<bool> bits(width);
  for (unsigned i = 0; i < width; ++i) bits[i] = (value >> i) & 1;
  return bits;
}

}  // namespace eppi::mpc
