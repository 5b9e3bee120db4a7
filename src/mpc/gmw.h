// GMW-style secure evaluation of Boolean circuits, bitsliced.
//
// This is the generic-MPC engine standing in for FairplayMP (paper §IV-B.2):
// every wire value is XOR-shared among the session parties; XOR/NOT gates
// and ANDs with a public word are evaluated locally, and each AND gate of
// two secrets consumes Beaver triples and one masked opening. A wire is a
// vector of lanes (one per identity, 64 per word; see circuit.h), so one
// gate costs the same round for every lane, and all AND gates at the same
// AND-depth share a single communication round: total online rounds =
// AND-depth + 3 (triple delivery, input sharing, output opening).
//
// The engine runs *inside* a net::Cluster: any subset of cluster parties can
// form an MPC session (the ε-PPI constructor runs SecSumShare over all m
// providers, then a c-party GMW session among the coordinators, all within
// one cluster).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpc/circuit.h"
#include "net/cluster.h"
#include "secret/secret.h"

namespace eppi::mpc {

struct GmwSession {
  // Cluster ids of the session parties; circuit input owners are indices
  // into this vector. parties[0] acts as preprocessing dealer and round
  // marker.
  std::vector<eppi::net::PartyId> parties;
  // Message-sequence namespace; concurrent or consecutive sessions in one
  // cluster must use seq_base values at least kSeqStride apart.
  std::uint64_t seq_base = 0;

  static constexpr std::uint64_t kSeqStride = std::uint64_t{1} << 20;
};

// The lanes of one wire, 64 to a word (lane l in bit l % 64 of word l / 64).
using LaneWords = std::vector<std::uint64_t>;

// Runs the session body for one party. `my_inputs` holds this party's input
// lanes, lane_words(circuit.lanes()) words per input wire, wire after wire
// in the order Circuit::inputs_of(my session index) declares them. Returns
// every output wire's opened lanes (all session parties learn all outputs).
//
// Must be called from within Cluster::run, by every session party, with the
// same circuit. Throws ConfigError on misuse, ProtocolError on malformed
// peer messages.
std::vector<LaneWords> run_gmw_party(eppi::net::PartyContext& ctx,
                                     const GmwSession& session,
                                     const Circuit& circuit,
                                     std::span<const eppi::SecretU64> my_inputs);

// One-lane form: one input bit per input wire, one output bit per output.
std::vector<bool> run_gmw_party(eppi::net::PartyContext& ctx,
                                const GmwSession& session,
                                const Circuit& circuit,
                                const std::vector<bool>& my_inputs);

// Flattens opened outputs to bits, output after output and lane after lane
// (the order evaluate_plain returns and the eppi_circuits decoders read).
std::vector<bool> opened_bits(const Circuit& circuit,
                              const std::vector<LaneWords>& opened);

// Total synchronous rounds the engine will use for `circuit` (for analytic
// cost accounting and tests).
std::uint64_t gmw_round_count(const Circuit& circuit) noexcept;

}  // namespace eppi::mpc
