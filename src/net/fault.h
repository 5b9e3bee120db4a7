// Fault scenarios for the fault-injection framework.
//
// A FaultScenario describes, declaratively, what the network does to the
// protocol: per-link probabilistic drop / duplication / delay / reordering,
// plus party crash points (after the k-th send, or at the first send of a
// given tag). Scenarios are pure data — FaultyTransport (faulty_transport.h)
// interprets them against a seeded per-link RNG so every run of the same
// scenario over the same protocol schedule is reproducible.
//
// Scenarios can be built programmatically or parsed from a one-line DSL used
// by tests and benches:
//
//   "all: drop=0.1, delay=1..5ms; link 2->0: drop=1.0; crash 3 after 4 sends"
//
// Grammar (';'-separated statements):
//   all: <faults>               default fault set for every link
//   link A->B: <faults>         override for the directed link A->B
//   crash P after N sends       party P crashes on its (N+1)-th send
//   crash P at tag T            party P crashes on its first send of tag T
//   churn P: <events>           membership churn for party P (see below)
//   <faults> := fault (',' fault)*
//   <fault>  := drop=<p> | dup=<p> | reorder=<p> | delay=<lo>..<hi>ms
//             | reset_after=<bytes> | blackhole=<0|1> | throttle=<bytes/s>
//             | split=<bytes> | connect_delay=<ms>ms
//   <events> := event (',' event)*
//   <event>  := join_at=<round> | leave_at=<round> | flap=<leave>..<rejoin>
//
// The first row of faults is interpreted by the in-memory FaultyTransport;
// the second row describes TCP-level misbehaviour and is interpreted by the
// ChaosProxy (chaos_proxy.h) against real sockets — the in-memory layer
// ignores them, so one scenario string can drive both harnesses. Churn
// statements describe *membership* over construction rounds (a deliberate
// provider leave/join, not a crash) and are interpreted by the epoch-level
// harnesses driving LocatorService::retire_provider / re-registration;
// `flap=2..4` is shorthand for leave_at=2, join_at=4.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"

namespace eppi::net {

// Faults applied to one directed link (or to every link, as the default).
struct LinkFault {
  double drop_prob = 0.0;     // message vanishes
  double dup_prob = 0.0;      // message delivered twice
  double reorder_prob = 0.0;  // message held briefly so later sends overtake it
  std::chrono::microseconds delay_min{0};  // uniform extra latency
  std::chrono::microseconds delay_max{0};

  // TCP-level faults, interpreted only by the ChaosProxy relay:
  std::uint64_t reset_after_bytes = 0;   // RST the link after N relayed bytes
  bool blackhole = false;                // accept, then silently discard bytes
  std::uint64_t throttle_bytes_per_s = 0;  // pace the relay (0 = unthrottled)
  std::uint64_t split_bytes = 0;  // forward in <=N-byte chunks (partial writes)
  std::chrono::milliseconds connect_delay{0};  // hold the dial before relaying

  // True when the in-memory fault layer has nothing to do on this link
  // (TCP-level fields are deliberately excluded: they do not exist for the
  // in-memory transport).
  bool lossless() const noexcept {
    return drop_prob == 0.0 && dup_prob == 0.0 && reorder_prob == 0.0 &&
           delay_max.count() == 0;
  }
};

// When a party "crashes" it stops participating: the send that trips the
// crash point throws SimulatedCrash in the party's thread (unwinding its
// protocol body), and every later send attributed to that party — e.g. a
// retransmission by the reliability layer — is silently swallowed.
struct CrashPoint {
  // Crash on the (after_sends + 1)-th send by this party, counting data
  // messages only (acks don't advance the counter, so crash points stay
  // stable whether or not reliable delivery is layered on).
  std::optional<std::uint64_t> after_sends;
  // Crash on the first send with this tag (lets tests target a protocol
  // stage: kSuperShare = "between SecSumShare rounds").
  std::optional<std::uint32_t> at_tag;
};

// Membership churn over construction rounds, for epoch-driven harnesses:
// at the start of round `leave_at` the party retires (its rows are withdrawn
// through the join/leave protocol); at the start of round `join_at` it
// (re-)enters. Rounds are 1-based construction attempts. A flap is both,
// with leave_at < join_at.
struct ChurnEvent {
  std::optional<std::uint64_t> join_at;
  std::optional<std::uint64_t> leave_at;
};

struct FaultScenario {
  LinkFault default_fault;
  std::map<std::pair<PartyId, PartyId>, LinkFault> link_faults;
  std::map<PartyId, CrashPoint> crashes;
  std::map<PartyId, ChurnEvent> churn;

  const LinkFault& fault_for(PartyId from, PartyId to) const noexcept {
    const auto it = link_faults.find({from, to});
    return it == link_faults.end() ? default_fault : it->second;
  }

  // Parties whose churn event fires at the given (1-based) round, ascending.
  std::vector<PartyId> joins_at(std::uint64_t round) const;
  std::vector<PartyId> leaves_at(std::uint64_t round) const;
  // The last round any churn event fires in (0 when there is no churn) —
  // harnesses run at least this many construction rounds.
  std::uint64_t last_churn_round() const;

  // Parses the DSL described above; throws ConfigError on malformed input.
  static FaultScenario parse(const std::string& spec);
};

// Thrown by FaultyTransport in the crashing party's own thread. Deliberately
// NOT derived from ProtocolError: a simulated crash is part of the test
// harness, not a protocol contract violation, and the Cluster treats it as a
// party dropout rather than a test failure.
class SimulatedCrash : public std::exception {
 public:
  explicit SimulatedCrash(PartyId party) : party_(party) {
    what_ = "simulated crash of party " + std::to_string(party);
  }
  const char* what() const noexcept override { return what_.c_str(); }
  PartyId party() const noexcept { return party_; }

 private:
  PartyId party_;
  std::string what_;
};

}  // namespace eppi::net
