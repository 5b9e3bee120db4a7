// Threaded multi-party cluster runtime.
//
// A Cluster runs one OS thread per protocol party (the paper maps each party
// to one Emulab machine; we map each to a thread with metered in-memory
// links). Party code receives a PartyContext offering selective blocking
// receive, metered send, and a per-party deterministic RNG stream.
//
// Exceptions thrown inside any party are captured and rethrown from run() on
// the caller's thread, so test assertions inside protocol code surface
// normally. A SimulatedCrash (fault injection) is the one exception treated
// differently: the party is recorded as crashed and run() completes, letting
// the surviving parties' dropout-recovery logic be exercised end to end.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/cost_meter.h"
#include "net/faulty_transport.h"
#include "net/mailbox.h"
#include "net/reliable_transport.h"
#include "net/transport.h"

namespace eppi::net {

class Cluster;

class PartyContext {
 public:
  PartyContext(PartyId id, std::size_t n_parties, Transport& transport,
               Mailbox& inbox, CostMeter& meter, Rng rng,
               std::chrono::milliseconds recv_timeout =
                   std::chrono::milliseconds::zero())
      : id_(id),
        n_parties_(n_parties),
        transport_(transport),
        inbox_(inbox),
        meter_(meter),
        rng_(rng),
        recv_timeout_(recv_timeout) {}

  PartyId id() const noexcept { return id_; }
  std::size_t n_parties() const noexcept { return n_parties_; }

  // Sends `payload` to party `to` under (tag, seq).
  void send(PartyId to, std::uint32_t tag, std::uint64_t seq,
            std::vector<std::uint8_t> payload);

  // Blocks until the matching message arrives and returns its payload.
  // When the cluster configured a receive timeout, waiting longer than the
  // deadline throws PartyFailure (a ProtocolError) naming the silent party
  // instead of hanging — protocols fail cleanly under message loss or a
  // crashed peer.
  std::vector<std::uint8_t> recv(PartyId from, std::uint32_t tag,
                                 std::uint64_t seq);

  // Bounded receive: blocks on the mailbox (no polling) and returns
  // std::nullopt once `timeout` passes or a failure detector marks `from`
  // dead, unless the message is already buffered. recv() takes this path
  // whenever the cluster configured a receive timeout, so it carries every
  // message of a fault-tolerant run.
  std::optional<std::vector<std::uint8_t>> recv_for(
      PartyId from, std::uint32_t tag, std::uint64_t seq,
      std::chrono::milliseconds timeout);

  // The cluster-wide receive timeout (zero = unbounded).
  std::chrono::milliseconds recv_timeout() const noexcept {
    return recv_timeout_;
  }

  // Marks one synchronous communication round. By convention only party 0 of
  // a protocol instance calls this, so the meter counts protocol rounds, not
  // rounds x parties.
  void mark_round(std::uint64_t n = 1) {
    meter_.record_round(n);
    local_meter_.record_round(n);
  }

  // This party's own traffic, metered at send() time. Phase instrumentation
  // snapshots it around each protocol phase to attribute cost per party and
  // per phase; unlike the shared cluster meter it excludes transport-layer
  // extras (acks, retransmits), so per-party deltas sum to the cluster
  // totals only on plain (non-reliable) transports.
  const CostMeter& local_meter() const noexcept { return local_meter_; }

  Rng& rng() noexcept { return rng_; }

 private:
  PartyId id_;
  std::size_t n_parties_;
  Transport& transport_;
  Mailbox& inbox_;
  CostMeter& meter_;
  CostMeter local_meter_;
  Rng rng_;
  std::chrono::milliseconds recv_timeout_;
};

class Cluster {
 public:
  // n_parties parties; `seed` drives the per-party RNG streams. An optional
  // transport decorator factory lets tests wrap the metered transport (e.g.
  // FaultyTransport).
  explicit Cluster(std::size_t n_parties, std::uint64_t seed = 1);
  ~Cluster();

  std::size_t n_parties() const noexcept { return mailboxes_.size(); }
  CostMeter& meter() noexcept { return meter_; }

  // Replaces the outgoing transport seen by parties (must outlive run()).
  void set_transport(Transport& transport) noexcept {
    active_transport_ = &transport;
  }

  // Bounds every PartyContext::recv; zero (the default) waits forever.
  void set_recv_timeout(std::chrono::milliseconds timeout) noexcept {
    recv_timeout_ = timeout;
  }
  Transport& base_transport() noexcept { return *base_transport_; }

  // Installs a FaultyTransport over the currently active transport and makes
  // it active. Convenience for tests/benches driving scenarios by DSL.
  FaultyTransport& inject_faults(FaultScenario scenario,
                                 std::uint64_t seed = 1);

  // Wraps the currently active transport in a ReliableTransport (acks,
  // retransmission, per-message deadline) and switches every mailbox to
  // ack-and-dedup mode. Call after set_transport/inject_faults so the
  // reliability layer sits above the lossy one.
  ReliableTransport& enable_reliability(ReliableOptions options = {});

  // Runs `body(ctx)` on every party concurrently and joins. Rethrows the
  // first party exception; SimulatedCrash is not an error — the party is
  // recorded in crashed() instead.
  void run(const std::function<void(PartyContext&)>& body);

  // Heterogeneous variant: bodies[i] runs as party i.
  void run(const std::vector<std::function<void(PartyContext&)>>& bodies);

  // Parties that ended the last run() with a SimulatedCrash.
  const std::vector<PartyId>& crashed() const noexcept { return crashed_; }

 private:
  std::vector<Mailbox> mailboxes_;
  CostMeter meter_;
  std::unique_ptr<InMemoryTransport> base_transport_;
  std::unique_ptr<FaultyTransport> fault_layer_;
  std::unique_ptr<ReliableTransport> reliable_layer_;
  Transport* active_transport_;
  std::uint64_t seed_;
  std::chrono::milliseconds recv_timeout_ = std::chrono::milliseconds::zero();
  std::vector<PartyId> crashed_;
};

}  // namespace eppi::net
