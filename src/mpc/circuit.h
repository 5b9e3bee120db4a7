// Boolean circuit representation for secure multi-party computation.
//
// This substitutes for FairplayMP's SFDL-compiled Boolean circuits (paper
// §IV-B.2): protocol functionality is expressed as a DAG of XOR / AND / NOT
// gates over party-owned input wires. Circuit *size* (gate count) is the
// paper's own scalability metric for Fig. 6b, so the representation tracks
// gate counts and the AND-depth (which determines GMW round complexity).
//
// Every wire is a vector of lanes, one per identity, so one circuit is a
// per-identity *template* evaluated for all identities at once (bitsliced).
// A plain circuit has one lane. Wires live at a lane *level*: level 0 has
// lanes() lanes, and a kHalve gate moves a wire to the next level, which has
// half the lanes (rounded up). Halving is how cross-identity reductions
// (sums, maxima) fold n lanes into one in log n levels.
//
// Wires are also either secret (XOR-shared among the parties) or public
// (known to every party): constants, kPublic words, and gates over public
// operands only. An AND with a public operand is local, like XOR.
//
// Wires are dense indices; gate i's output is wire i. Construction is append
// -only, so the gate list is always topologically ordered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eppi::mpc {

using Wire = std::uint32_t;
using WireVec = std::vector<Wire>;

// Lane words: 64 lanes to a std::uint64_t, lane l in bit l % 64 of word
// l / 64. Bits past the last lane are zero (for XOR shares: they XOR to
// zero), so lane moves never drag padding into a lane. `Word` below is
// std::uint64_t for public lanes and eppi::SecretU64 for XOR shares; both
// support the ^, & (public), >> and << used here.
constexpr std::size_t lane_words(std::size_t lanes) noexcept {
  return (lanes + 63) / 64;
}

// Valid-bit mask of the last word of a `lanes`-lane vector.
constexpr std::uint64_t tail_mask(std::size_t lanes) noexcept {
  const unsigned rest = static_cast<unsigned>(lanes % 64);
  return rest == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rest) - 1;
}

// Lanes [first, first + count) of `src`; lanes past the end of `src` read
// as zero.
template <typename Word>
std::vector<Word> take_lanes(const std::vector<Word>& src, std::size_t first,
                             std::size_t count) {
  std::vector<Word> out(lane_words(count));
  const std::size_t base = first / 64;
  const unsigned shift = static_cast<unsigned>(first % 64);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t at = base + i;
    if (at < src.size()) out[i] = src[at] >> shift;
    if (shift != 0 && at + 1 < src.size()) {
      out[i] = out[i] ^ (src[at + 1] << (64 - shift));
    }
  }
  if (!out.empty()) out.back() = out.back() & tail_mask(count);
  return out;
}

enum class GateOp : std::uint8_t {
  kInput,      // party-owned input bit (operand a = party index)
  kConstZero,
  kConstOne,
  kXor,        // a ^ b
  kAnd,        // a & b  (the only gate requiring secure communication)
  kNot,        // !a
  kPublic,     // public lane word (operand a = index into public_words)
  kHalve,      // lanes of a: b = 0 the low half, b = 1 the high half
};

struct Gate {
  GateOp op;
  Wire a = 0;
  Wire b = 0;
};

struct CircuitStats {
  std::uint64_t and_gates = 0;
  std::uint64_t xor_gates = 0;
  std::uint64_t not_gates = 0;
  std::uint64_t input_wires = 0;
  std::uint64_t and_depth = 0;  // number of GMW communication layers

  // "Circuit size" in the Fig. 6b sense: all secure gates. XOR/NOT are free
  // in GMW but FairplayMP's BMR counts every gate, so we report both views.
  std::uint64_t total_gates() const noexcept {
    return and_gates + xor_gates + not_gates;
  }
};

class Circuit {
 public:
  const std::vector<Gate>& gates() const noexcept { return gates_; }
  const WireVec& inputs() const noexcept { return inputs_; }
  const WireVec& outputs() const noexcept { return outputs_; }

  // Owning party (index into the MPC session's party list) of input wire w.
  std::uint32_t input_owner(Wire w) const;

  // Input wires owned by one party, in declaration order.
  WireVec inputs_of(std::uint32_t party) const;

  std::size_t n_wires() const noexcept { return gates_.size(); }

  // Logical size: every gate counted once per lane it runs on, i.e. the
  // size of the circuit unrolled over all identities.
  const CircuitStats& stats() const noexcept { return stats_; }
  // Template size: every gate counted once.
  const CircuitStats& template_stats() const noexcept {
    return template_stats_;
  }

  // AND-layer index of a wire: 0 for wires computable locally from inputs,
  // r for wires available after the r-th GMW communication round.
  std::uint32_t layer(Wire w) const { return layers_[w]; }

  // Lane count of level 0 (1 for a plain circuit), of a level, of a wire.
  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t lanes_at(unsigned level) const noexcept;
  std::size_t lanes_of(Wire w) const { return lanes_at(levels_[w]); }
  unsigned level(Wire w) const { return levels_[w]; }

  bool is_public(Wire w) const { return public_[w] != 0; }
  // Lane words of a kPublic wire (tail bits zero).
  const std::vector<std::uint64_t>& public_words(Wire w) const;

 private:
  friend class CircuitBuilder;

  std::vector<Gate> gates_;
  std::vector<std::uint32_t> layers_;
  std::vector<std::uint8_t> levels_;
  std::vector<std::uint8_t> public_;
  std::vector<std::vector<std::uint64_t>> public_words_;
  WireVec inputs_;
  WireVec outputs_;
  std::size_t lanes_ = 1;
  CircuitStats stats_;
  CircuitStats template_stats_;
};

}  // namespace eppi::mpc
