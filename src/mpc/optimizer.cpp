#include "mpc/optimizer.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "mpc/circuit_builder.h"

namespace eppi::mpc {

OptimizeResult optimize_circuit(const Circuit& input) {
  const auto& gates = input.gates();

  // Liveness: walk back from the outputs. Inputs are pinned live so the
  // per-party input interface survives unchanged.
  std::vector<std::uint8_t> live(gates.size(), 0);
  {
    std::vector<Wire> stack(input.outputs().begin(), input.outputs().end());
    for (const Wire w : input.inputs()) live[w] = 1;
    while (!stack.empty()) {
      const Wire w = stack.back();
      stack.pop_back();
      if (live[w]) continue;
      live[w] = 1;
      const Gate& g = gates[w];
      switch (g.op) {
        case GateOp::kXor:
        case GateOp::kAnd:
          stack.push_back(g.a);
          stack.push_back(g.b);
          break;
        case GateOp::kNot:
        case GateOp::kHalve:
          stack.push_back(g.a);
          break;
        default:
          break;
      }
    }
  }

  CircuitBuilder cb(input.lanes());
  OptimizeStats stats;
  std::vector<Wire> remap(gates.size());
  // Structural value-numbering table: (op, a, b) -> new wire.
  std::map<std::tuple<GateOp, Wire, Wire>, Wire> seen;
  // For NOT-collapse we track, per new wire, which new wire its negation is
  // known to be (if any) — NOT(NOT(x)) then maps straight back to x.
  std::map<Wire, Wire> negation_of;

  for (std::size_t w = 0; w < gates.size(); ++w) {
    const Gate& g = gates[w];
    if (!live[w]) {
      if (g.op != GateOp::kConstZero && g.op != GateOp::kConstOne) {
        ++stats.dead_removed;
      }
      remap[w] = 0;  // never read
      continue;
    }
    while (cb.level() < input.level(static_cast<Wire>(w))) cb.next_level();
    switch (g.op) {
      case GateOp::kInput:
        remap[w] = cb.input_bit(g.a);
        break;
      case GateOp::kPublic:
        remap[w] = cb.public_word(input.public_words(static_cast<Wire>(w)));
        break;
      case GateOp::kConstZero:
        remap[w] = cb.zero();
        break;
      case GateOp::kConstOne:
        remap[w] = cb.one();
        break;
      case GateOp::kNot: {
        const Wire a = remap[g.a];
        const auto neg = negation_of.find(a);
        if (neg != negation_of.end()) {
          remap[w] = neg->second;
          ++stats.not_collapsed;
          break;
        }
        const auto key = std::make_tuple(GateOp::kNot, a, Wire{0});
        const auto it = seen.find(key);
        if (it != seen.end()) {
          remap[w] = it->second;
          ++stats.cse_merged;
          break;
        }
        const Wire out = cb.Not(a);
        seen.emplace(key, out);
        negation_of.emplace(out, a);
        remap[w] = out;
        break;
      }
      case GateOp::kHalve: {
        const auto key = std::make_tuple(GateOp::kHalve, remap[g.a], g.b);
        const auto it = seen.find(key);
        if (it != seen.end()) {
          remap[w] = it->second;
          ++stats.cse_merged;
          break;
        }
        const Wire out = cb.halve(remap[g.a], g.b != 0);
        seen.emplace(key, out);
        remap[w] = out;
        break;
      }
      case GateOp::kXor:
      case GateOp::kAnd: {
        Wire a = remap[g.a];
        Wire b = remap[g.b];
        if (a > b) std::swap(a, b);  // commutative normalization
        const auto key = std::make_tuple(g.op, a, b);
        const auto it = seen.find(key);
        if (it != seen.end()) {
          remap[w] = it->second;
          ++stats.cse_merged;
          break;
        }
        const Wire out =
            g.op == GateOp::kXor ? cb.Xor(a, b) : cb.And(a, b);
        seen.emplace(key, out);
        remap[w] = out;
        break;
      }
    }
  }

  for (const Wire w : input.outputs()) cb.output(remap[w]);
  OptimizeResult result;
  result.circuit = cb.take();
  result.stats = stats;
  return result;
}

}  // namespace eppi::mpc
