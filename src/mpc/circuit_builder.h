// Circuit construction with constant folding and an arithmetic block library.
//
// The builder plays the role of the SFDL compiler in the paper's FairplayMP
// stack: high-level operations (mod-2^k addition, comparison against public
// thresholds, population count, multiplexing) are lowered to XOR/AND/NOT
// gates. Constants are folded at build time — AND with a known 0 disappears,
// XOR with a known 1 becomes NOT, etc. — which is what makes comparisons
// against *public* thresholds cheap, mirroring a circuit compiler's constant
// propagation.
//
// Multi-bit values are little-endian WireVecs (bit 0 first).
//
// A builder made with `lanes` > 1 writes a per-identity template (see
// circuit.h). Public values that are the same in every lane fold exactly
// like constants; values that differ by lane enter as public words, and a
// gate over public operands only, or an AND with one public operand, is
// local. Cross-lane reductions step down one lane level at a time
// (next_level + halve): constants and new gates belong to the current level.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "mpc/circuit.h"

namespace eppi::mpc {

class CircuitBuilder {
 public:
  explicit CircuitBuilder(std::size_t lanes = 1);

  // --- wires -------------------------------------------------------------
  // Inputs and public words live at level 0.
  Wire input_bit(std::uint32_t party);
  WireVec input_bits(std::uint32_t party, unsigned width);
  // `width` bits of one public value per lane; a bit that is equal in every
  // lane folds to a constant.
  WireVec public_bits(std::span<const std::uint64_t> values, unsigned width);
  Wire zero();
  Wire one();
  Wire constant(bool value) { return value ? one() : zero(); }
  WireVec constant_bits(std::uint64_t value, unsigned width);

  // --- single-bit gates (constant-folding) ---------------------------------
  Wire Xor(Wire a, Wire b);
  Wire And(Wire a, Wire b);
  Wire Not(Wire a);
  Wire Or(Wire a, Wire b);
  Wire Mux(Wire sel, Wire if_true, Wire if_false);

  // --- multi-bit blocks ----------------------------------------------------
  // a ^ b, elementwise (equal widths).
  WireVec xor_vec(const WireVec& a, const WireVec& b);
  // a + b truncated to max(width(a), width(b)) bits (mod 2^w).
  WireVec add_trunc(const WireVec& a, const WireVec& b);
  // a + b with full carry, width = max + 1.
  WireVec add_expand(const WireVec& a, const WireVec& b);
  // (a + b) mod q for arbitrary public q (conditional subtract). Widths must
  // be ring widths for q.
  WireVec add_mod(const WireVec& a, const WireVec& b, std::uint64_t q);
  // Unsigned comparisons.
  Wire lt(const WireVec& a, const WireVec& b);           // a < b
  Wire ge(const WireVec& a, const WireVec& b);           // a >= b
  Wire lt_const(const WireVec& a, std::uint64_t t);      // a < t
  Wire ge_const(const WireVec& a, std::uint64_t t);      // a >= t
  Wire eq_const(const WireVec& a, std::uint64_t t);      // a == t
  // Number of set bits among `bits` (width = ceil(log2(n+1))).
  WireVec popcount(std::span<const Wire> bits);
  // Sum of multi-bit values with expanding width (adder tree).
  WireVec sum_tree(std::vector<WireVec> values);
  // sel ? if_true : if_false, elementwise (equal widths).
  WireVec mux_vec(Wire sel, const WireVec& a, const WireVec& b);
  // Zero-extend to `width`.
  WireVec zext(WireVec v, unsigned width);

  // --- lane levels ---------------------------------------------------------
  // Steps down to the next level: half the lanes, rounded up.
  void next_level();
  unsigned level() const noexcept { return level_; }
  std::size_t lanes_here() const noexcept {
    return circuit_.lanes_at(level_);
  }
  // The low or high half of a wire one level up; the high half of an odd
  // lane count is zero-padded.
  Wire halve(Wire w, bool high);
  WireVec halve_vec(const WireVec& v, bool high);

  // Build-time constant value of a wire, if known.
  std::optional<bool> constant_value(Wire w) const;

  // --- outputs -------------------------------------------------------------
  void output(Wire w);
  void output_vec(const WireVec& v);

  // Finalizes and returns the circuit; the builder must not be reused.
  Circuit take();

  const CircuitStats& stats() const noexcept { return circuit_.stats_; }

 private:
  Wire append(GateOp op, Wire a, Wire b);
  // A public wire from its lane words (tail bits zero).
  Wire public_word(std::vector<std::uint64_t> words);

  Wire constant_wire(GateOp op);

  Circuit circuit_;
  std::vector<std::int8_t> const_val_;  // -1 unknown, 0/1 known
  unsigned level_ = 0;
  // Constant wires of each level, kNoWire until first use.
  std::vector<Wire> zero_at_;
  std::vector<Wire> one_at_;
};

// Helper: bits needed to hold values up to `max_value`.
unsigned bit_width_for(std::uint64_t max_value) noexcept;

}  // namespace eppi::mpc
