// Per-party inbox with blocking, selective receive.
//
// recv(from, tag, seq) blocks until a message with that exact key arrives.
// Messages arriving out of order are buffered, which lets protocol code be
// written in straight-line style (send everything, then receive everything)
// without deadlocking on delivery interleavings.
//
// When the cluster enables reliable delivery the mailbox additionally
// acknowledges every data frame on delivery (through the configured ack
// transport) and suppresses duplicate frames — retransmissions and
// fault-injected duplicates are re-acked but delivered to the party at most
// once per (from, tag, seq) key.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/message.h"

namespace eppi::net {

class Transport;

class Mailbox {
 public:
  void deliver(Message msg) EPPI_EXCLUDES(mutex_);

  using Deadline = std::chrono::steady_clock::time_point;

  // Blocks until a message from `from` with tag `tag` and sequence `seq`
  // arrives; removes and returns it. Throws PartyFailure once `from` is
  // marked failed and no such message is buffered.
  Message recv(PartyId from, std::uint32_t tag, std::uint64_t seq)
      EPPI_EXCLUDES(mutex_);

  // Bounded variant: blocks on the same condition variable until the
  // message is buffered (true, `out` filled), `from` is marked failed, or
  // `deadline` passes (false). A buffered message wins over both.
  bool recv_until(PartyId from, std::uint32_t tag, std::uint64_t seq,
                  Deadline deadline, Message& out) EPPI_EXCLUDES(mutex_);

  // Non-blocking variant; returns true and fills `out` if present.
  bool try_recv(PartyId from, std::uint32_t tag, std::uint64_t seq,
                Message& out) EPPI_EXCLUDES(mutex_);

  std::size_t pending() const EPPI_EXCLUDES(mutex_);

  // Reliable-delivery mode: `owner` is this mailbox's party id; every
  // delivered data frame is acked back to its sender through `ack_via`
  // (which must outlive the mailbox or be cleared with nullptr), and
  // duplicate data frames are suppressed after re-acking.
  void enable_reliable(Transport* ack_via, PartyId owner)
      EPPI_EXCLUDES(mutex_);

  // Failure signal from a detector (e.g. the socket runtime's heartbeat):
  // a blocked recv on a failed party throws PartyFailure instead of waiting
  // forever (recv_until returns false), and new blocking receives fail
  // fast. Messages already buffered stay retrievable — only the *wait* is
  // cut short. clear_failed() (on reconnect) restores normal blocking
  // behaviour.
  void fail_party(PartyId party) EPPI_EXCLUDES(mutex_);
  void clear_failed(PartyId party) EPPI_EXCLUDES(mutex_);
  bool party_failed(PartyId party) const EPPI_EXCLUDES(mutex_);

 private:
  using Key = std::tuple<PartyId, std::uint32_t, std::uint64_t>;

  // The one wait loop behind recv and recv_until; no deadline waits until
  // the message arrives or its sender fails.
  bool take_or_wait(const Key& key, std::optional<Deadline> deadline,
                    Message& out) EPPI_REQUIRES(mutex_);

  mutable Mutex mutex_;
  CondVar cv_;
  std::multimap<Key, Message> buffer_ EPPI_GUARDED_BY(mutex_);
  std::set<Key> seen_ EPPI_GUARDED_BY(mutex_);  // reliable: keys delivered
  std::set<PartyId> failed_ EPPI_GUARDED_BY(mutex_);
  Transport* ack_via_ EPPI_GUARDED_BY(mutex_) = nullptr;
  PartyId owner_ EPPI_GUARDED_BY(mutex_) = 0;
};

}  // namespace eppi::net
