#include "net/mailbox.h"

#include <string>

#include "common/error.h"
#include "net/transport.h"

namespace eppi::net {

void Mailbox::deliver(Message msg) {
  msg.tag &= ~kRetransmitBit;  // receivers match on the original tag
  const Key key{msg.from, msg.tag, msg.seq};

  // Capture ack routing fields before msg is moved into the buffer. The ack
  // itself is sent outside the mailbox lock: it traverses the full transport
  // chain and ends in the sender's mailbox, and two parties delivering to
  // each other concurrently would otherwise deadlock on crossed locks.
  Message ack;
  Transport* ack_via = nullptr;

  bool deliver_to_party = true;
  {
    const MutexLock lock(mutex_);
    if (ack_via_ != nullptr && !is_ack_tag(msg.tag)) {
      ack.from = owner_;
      ack.to = msg.from;
      ack.tag = msg.tag | kAckBit;
      ack.seq = msg.seq;
      ack_via = ack_via_;
      // Dedup: a retransmission whose original got through (the ack was
      // lost) must be re-acked but not delivered twice.
      if (!seen_.insert(key).second) deliver_to_party = false;
    }
    if (deliver_to_party) buffer_.emplace(key, std::move(msg));
  }
  if (deliver_to_party) cv_.notify_all();
  if (ack_via != nullptr) ack_via->send(std::move(ack));
}

bool Mailbox::take_or_wait(const Key& key, std::optional<Deadline> deadline,
                           Message& out) {
  for (;;) {
    const auto it = buffer_.find(key);
    if (it != buffer_.end()) {
      out = std::move(it->second);
      buffer_.erase(it);
      return true;
    }
    if (failed_.count(std::get<0>(key)) != 0) return false;
    if (!deadline) {
      cv_.wait(mutex_);
    } else if (std::chrono::steady_clock::now() >= *deadline) {
      return false;
    } else {
      cv_.wait_until(mutex_, *deadline);
    }
  }
}

Message Mailbox::recv(PartyId from, std::uint32_t tag, std::uint64_t seq) {
  const MutexLock lock(mutex_);
  Message msg;
  if (!take_or_wait(Key{from, tag, seq}, std::nullopt, msg)) {
    throw eppi::PartyFailure("recv: party " + std::to_string(from) +
                                 " marked failed while waiting for tag " +
                                 std::to_string(tag),
                             from);
  }
  return msg;
}

bool Mailbox::recv_until(PartyId from, std::uint32_t tag, std::uint64_t seq,
                         Deadline deadline, Message& out) {
  const MutexLock lock(mutex_);
  return take_or_wait(Key{from, tag, seq}, deadline, out);
}

bool Mailbox::try_recv(PartyId from, std::uint32_t tag, std::uint64_t seq,
                       Message& out) {
  const MutexLock lock(mutex_);
  const Key key{from, tag, seq};
  const auto it = buffer_.find(key);
  if (it == buffer_.end()) return false;
  out = std::move(it->second);
  buffer_.erase(it);
  return true;
}

std::size_t Mailbox::pending() const {
  const MutexLock lock(mutex_);
  return buffer_.size();
}

void Mailbox::enable_reliable(Transport* ack_via, PartyId owner) {
  const MutexLock lock(mutex_);
  ack_via_ = ack_via;
  owner_ = owner;
}

void Mailbox::fail_party(PartyId party) {
  {
    const MutexLock lock(mutex_);
    failed_.insert(party);
  }
  cv_.notify_all();  // wake blocked receivers so they can observe the failure
}

void Mailbox::clear_failed(PartyId party) {
  const MutexLock lock(mutex_);
  failed_.erase(party);
}

bool Mailbox::party_failed(PartyId party) const {
  const MutexLock lock(mutex_);
  return failed_.count(party) != 0;
}

}  // namespace eppi::net
