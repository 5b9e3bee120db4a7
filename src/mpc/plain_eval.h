// Cleartext circuit evaluation.
//
// Used as the correctness reference for the secure GMW engine (every circuit
// test evaluates both ways and compares) and by unit tests of the arithmetic
// block library. Evaluates all lanes of a template at once, like the engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpc/circuit.h"

namespace eppi::mpc {

// `inputs` holds circuit.lanes() bits per input wire, wire after wire in
// circuit input-declaration order (interleaved across parties exactly as
// declared). Returns each output wire's lanes, output after output.
std::vector<bool> evaluate_plain(const Circuit& circuit,
                                 const std::vector<bool>& inputs);

// The lanes of the non-input gate `w`, from its operands' lanes in `values`
// (tail bits zero). The secure engine evaluates its public wires with it.
std::vector<std::uint64_t> evaluate_gate(
    const Circuit& circuit, Wire w,
    const std::vector<std::vector<std::uint64_t>>& values);

// Packs little-endian bits into an integer (first bit = LSB).
std::uint64_t bits_to_u64(const std::vector<bool>& bits);

// Unpacks `width` little-endian bits of `value`.
std::vector<bool> u64_to_bits(std::uint64_t value, unsigned width);

}  // namespace eppi::mpc
