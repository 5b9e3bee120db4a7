// Distributed secure ε-PPI construction (paper §IV).
//
// Runs the full realization pipeline over a threaded multi-party cluster in
// which every provider is a party and no trusted third party exists:
//
//   1. SecSumShare over all m providers — the coordinators (p_0..p_{c-1})
//      obtain (c,c)-secret-shared identity frequencies (2 rounds, parallel
//      in the number of identities).
//   2. CountBelow by generic MPC among only the c coordinators — opens the
//      number of common identities and ξ (the max ε over the secret common
//      set, selected securely over public ε ranks). This is the expensive
//      part the MPC-reduced design confines to c parties.
//   3. λ is derived publicly from the opened count and ξ (Eq. 7); then the
//      MixAndReveal MPC opens, per identity, either "mixed" (β = 1; covers
//      all common identities and a λ-fraction of decoys) or the true
//      frequency — so a common identity's frequency never leaves the MPC.
//   4. Coordinator p_0 broadcasts the opened vector; every provider computes
//      its final β_j locally (complex floating-point work pushed to the
//      non-private end, Eq. 9) and runs randomized publication on its own
//      private row.
//
// The returned report carries the protocol-level cost counters and circuit
// statistics that drive the Fig. 6 benchmarks.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "core/beta_policy.h"
#include "core/ppi_index.h"
#include "mpc/circuit.h"
#include "net/cost_meter.h"
#include "net/message.h"
#include "net/reliable_transport.h"

namespace eppi::core {

// Dropout tolerance for the distributed construction. Defaults are
// paper-faithful: everything off, receives unbounded, exactly the §IV
// protocol. Enabling `enabled` turns on bounded receives, the SecSumShare
// failure detector with restart-over-survivors, and typed PartyFailure
// aborts when a coordinator dies (docs/fault_tolerance.md).
struct FaultToleranceOptions {
  bool enabled = false;
  // Bound on each SecSumShare-stage receive (suspicion threshold).
  std::chrono::milliseconds stage_timeout{250};
  // Bound on every other receive (MPC openings, broadcast); must cover the
  // coordinators' circuit-evaluation time.
  std::chrono::milliseconds mpc_timeout{2000};
  // SecSumShare restarts over shrinking survivor sets before giving up.
  std::size_t max_attempts = 3;

  // Reliable delivery (acks + retransmission + per-message deadline) under
  // the protocol; turns transient loss into latency so the failure detector
  // only fires on genuinely dead parties.
  bool reliable_delivery = false;
  eppi::net::ReliableOptions reliable;

  // Fault injection for tests/benches: a FaultScenario DSL string (see
  // net/fault.h) applied to the in-process transport, deterministic under
  // fault_seed. Empty = no injected faults.
  std::string fault_scenario;
  std::uint64_t fault_seed = 1;
};

struct DistributedOptions {
  BetaPolicy policy = BetaPolicy::chernoff(0.9);
  bool enable_mixing = true;
  std::size_t c = 3;          // coordinators / collusion tolerance knob
  std::uint64_t q = 0;        // SecSumShare modulus; 0 = auto power of two
  unsigned coin_bits = 16;    // λ-coin resolution inside the MPC
  std::uint64_t seed = 1;     // drives all party RNG streams
  FaultToleranceOptions fault_tolerance;
};

struct DistributedReport {
  std::vector<double> betas;                  // final per-identity β
  std::vector<bool> mixed;                    // published with β == 1
  std::vector<std::uint64_t> revealed_frequencies;  // 0 where mixed
  std::uint64_t common_count = 0;             // opened by CountBelow
  double xi = 0.0;
  double lambda = 0.0;
  eppi::mpc::CircuitStats count_below_stats;
  eppi::mpc::CircuitStats mix_reveal_stats;
  eppi::net::CostSnapshot total_cost;         // messages/bytes/rounds
  // Dropout accounting (fault-tolerant mode; trivial otherwise): providers
  // whose inputs the committed construction covers, providers that crashed
  // mid-protocol (their rows are all-zero in the index), and how many
  // SecSumShare attempts the commit took.
  std::vector<eppi::net::PartyId> survivors;
  std::vector<eppi::net::PartyId> crashed;
  std::size_t secsum_attempts = 1;
};

struct DistributedResult {
  PpiIndex index;
  DistributedReport report;
};

// `truth` row i is provider i's private membership vector; `epsilons` are
// the public per-owner privacy degrees. Requires m >= options.c >= 2.
DistributedResult construct_distributed(const eppi::BitMatrix& truth,
                                        std::span<const double> epsilons,
                                        const DistributedOptions& options);

}  // namespace eppi::core
