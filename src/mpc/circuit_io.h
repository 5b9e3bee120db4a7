// Binary persistence for compiled circuits.
//
// Compiling the secure functionality is the expensive, deterministic step
// (FairplayMP compiles SFDL offline and ships the circuit to the parties);
// this module gives the same deployment shape: compile once, serialize,
// distribute to the c coordinators, load and evaluate. The format is a
// versioned header followed by the lane count and varint-encoded gates, each
// with its lane level; public words travel inline with their kPublic gate.
#pragma once

#include <iosfwd>

#include "mpc/circuit.h"

namespace eppi::mpc {

// Writes the circuit in the eppi-circ-v2 format.
void save_circuit(std::ostream& out, const Circuit& circuit);

// Reads a circuit back; throws SerializeError on bad magic/version,
// truncation, or structurally invalid gates (forward references, bad ops,
// lane-level or public-word mismatches). The reloaded circuit is identical
// in behaviour (and, for circuits that came from CircuitBuilder, in logical
// and template statistics as well).
Circuit load_circuit(std::istream& in);

}  // namespace eppi::mpc
