// FaultyTransport: a composable, seeded fault-injection transport decorator.
//
// Wraps any Transport and interprets a FaultScenario (fault.h) against it:
//
//  * drop / duplicate — decided per message by a per-link RNG stream, so a
//    given link sees the same fault sequence every run regardless of how the
//    OS interleaves the other parties' threads;
//  * delay / reorder — delayed copies are handed to a scheduler thread that
//    releases them at their due time ("reorder" is a short probabilistic
//    hold, which lets later sends on the same link overtake the held one);
//  * crash — the send tripping a party's crash point throws SimulatedCrash
//    in that party's thread; all later sends from the crashed party
//    (including retransmissions issued on its behalf) are swallowed.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "net/fault.h"
#include "net/transport.h"

namespace eppi::net {

struct FaultStats {
  std::uint64_t forwarded = 0;   // messages that reached the inner transport
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;     // includes reorder holds
  std::uint64_t swallowed = 0;   // sends from already-crashed parties
};

class FaultyTransport final : public Transport {
 public:
  FaultyTransport(Transport& inner, FaultScenario scenario,
                  std::uint64_t seed = 1);
  ~FaultyTransport() override;

  FaultyTransport(const FaultyTransport&) = delete;
  FaultyTransport& operator=(const FaultyTransport&) = delete;

  void send(Message msg) override EPPI_EXCLUDES(mutex_);

  FaultStats stats() const EPPI_EXCLUDES(mutex_);

  // True once the party's crash point has tripped.
  bool crashed(PartyId party) const EPPI_EXCLUDES(mutex_);

  // Delivers any still-held delayed messages immediately and joins the
  // scheduler (also done by the destructor). Idempotent.
  void drain() EPPI_EXCLUDES(mutex_);

 private:
  struct Delayed {
    std::chrono::steady_clock::time_point due;
    std::uint64_t order;  // FIFO tie-break among equal due times
    Message msg;
    bool operator>(const Delayed& other) const noexcept {
      return due != other.due ? due > other.due : order > other.order;
    }
  };

  Rng& link_rng(PartyId from, PartyId to) EPPI_REQUIRES(mutex_);
  void scheduler_loop() EPPI_EXCLUDES(mutex_);
  void enqueue_delayed(Message msg, std::chrono::microseconds delay)
      EPPI_REQUIRES(mutex_);

  Transport& inner_;
  const FaultScenario scenario_;
  const std::uint64_t seed_;

  mutable Mutex mutex_;
  std::map<std::pair<PartyId, PartyId>, Rng> link_rngs_
      EPPI_GUARDED_BY(mutex_);
  std::map<PartyId, std::uint64_t> sends_by_party_ EPPI_GUARDED_BY(mutex_);
  std::map<PartyId, bool> crashed_ EPPI_GUARDED_BY(mutex_);
  FaultStats stats_ EPPI_GUARDED_BY(mutex_);

  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<Delayed>>
      delayed_ EPPI_GUARDED_BY(mutex_);
  std::uint64_t delay_order_ EPPI_GUARDED_BY(mutex_) = 0;
  CondVar cv_;
  // Started under mutex_ in enqueue_delayed, but only joined in drain()
  // after the stopping_ handshake, so the handle itself needs no guard.
  std::thread scheduler_;
  bool stopping_ EPPI_GUARDED_BY(mutex_) = false;
  bool scheduler_started_ EPPI_GUARDED_BY(mutex_) = false;
};

}  // namespace eppi::net
