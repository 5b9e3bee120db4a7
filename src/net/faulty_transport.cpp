#include "net/faulty_transport.h"

#include "common/logging.h"

namespace eppi::net {

namespace {

// Extra hold applied to reordered messages: long enough that the sender's
// next message on the link overtakes it, short enough not to slow tests.
constexpr std::chrono::microseconds kReorderHold{2000};

}  // namespace

FaultyTransport::FaultyTransport(Transport& inner, FaultScenario scenario,
                                 std::uint64_t seed)
    : inner_(inner), scenario_(std::move(scenario)), seed_(seed) {}

FaultyTransport::~FaultyTransport() { drain(); }

Rng& FaultyTransport::link_rng(PartyId from, PartyId to) {
  const auto key = std::make_pair(from, to);
  auto it = link_rngs_.find(key);
  if (it == link_rngs_.end()) {
    // Each directed link gets its own deterministic stream: a party's sends
    // on one link are ordered by its own thread, so fault decisions do not
    // depend on cross-thread interleaving.
    const std::uint64_t link_seed =
        seed_ ^ (static_cast<std::uint64_t>(from) * 0x9E3779B97F4A7C15ULL +
                 static_cast<std::uint64_t>(to) * 0xC2B2AE3D27D4EB4FULL + 1);
    it = link_rngs_.emplace(key, Rng(link_seed)).first;
  }
  return it->second;
}

void FaultyTransport::send(Message msg) {
  bool forward_now = false;
  bool duplicate = false;
  std::chrono::microseconds delay{0};
  {
    MutexLock lock(mutex_);
    const PartyId from = msg.from;
    if (crashed_[from]) {
      ++stats_.swallowed;
      return;
    }
    // Only first-time data sends advance counters: acks and reliability-layer
    // retransmissions are excluded so crash points hit the same protocol
    // frames whether or not reliable delivery is on.
    const bool counted =
        !is_ack_tag(msg.tag) && (msg.tag & kRetransmitBit) == 0;
    const auto crash_it = scenario_.crashes.find(from);
    if (crash_it != scenario_.crashes.end() && counted) {
      const CrashPoint& point = crash_it->second;
      const std::uint64_t sent_so_far = sends_by_party_[from];
      const bool trips =
          (point.after_sends && sent_so_far >= *point.after_sends) ||
          (point.at_tag && msg.tag == *point.at_tag);
      if (trips) {
        crashed_[from] = true;
        lock.unlock();
        throw SimulatedCrash(from);
      }
      ++sends_by_party_[from];
    } else if (counted) {
      ++sends_by_party_[from];
    }

    const LinkFault& fault = scenario_.fault_for(from, msg.to);
    if (fault.lossless()) {
      forward_now = true;
      ++stats_.forwarded;
    } else {
      Rng& rng = link_rng(from, msg.to);
      if (rng.bernoulli(fault.drop_prob)) {
        ++stats_.dropped;
        return;
      }
      duplicate = rng.bernoulli(fault.dup_prob);
      if (duplicate) ++stats_.duplicated;
      const auto span = fault.delay_max - fault.delay_min;
      if (span.count() > 0) {
        delay = fault.delay_min + std::chrono::microseconds(rng.next_below(
                                      static_cast<std::uint64_t>(span.count()) +
                                      1));
      } else {
        delay = fault.delay_min;
      }
      if (rng.bernoulli(fault.reorder_prob)) delay += kReorderHold;
      if (delay.count() > 0) {
        ++stats_.delayed;
        Message copy;
        if (duplicate) copy = msg;
        enqueue_delayed(std::move(msg), delay);
        if (duplicate) enqueue_delayed(std::move(copy), delay);
        return;
      }
      forward_now = true;
      ++stats_.forwarded;
      if (duplicate) ++stats_.forwarded;
    }
  }
  // inner_.send outside the lock: delivery may re-enter this transport on
  // the same thread (mailbox ack sinks send acks back through the chain).
  if (forward_now) {
    Message copy;
    if (duplicate) copy = msg;
    inner_.send(std::move(msg));
    if (duplicate) inner_.send(std::move(copy));
  }
}

void FaultyTransport::enqueue_delayed(Message msg,
                                      std::chrono::microseconds delay) {
  // Caller holds mutex_.
  delayed_.push(Delayed{std::chrono::steady_clock::now() + delay,
                        delay_order_++, std::move(msg)});
  if (!scheduler_started_) {
    scheduler_started_ = true;
    scheduler_ = std::thread([this] { scheduler_loop(); });
  }
  cv_.notify_all();
}

void FaultyTransport::scheduler_loop() {
  MutexLock lock(mutex_);
  while (true) {
    if (stopping_ && delayed_.empty()) return;
    if (delayed_.empty()) {
      // Explicit wait loop: thread-safety analysis is intraprocedural and
      // cannot see through a predicate lambda's capture of guarded fields.
      while (!stopping_ && delayed_.empty()) cv_.wait(mutex_);
      continue;
    }
    const auto due = delayed_.top().due;
    const auto now = std::chrono::steady_clock::now();
    if (now < due && !stopping_) {
      cv_.wait_until(mutex_, due);
      continue;
    }
    Message msg = std::move(const_cast<Delayed&>(delayed_.top()).msg);
    delayed_.pop();
    ++stats_.forwarded;
    lock.unlock();
    try {
      inner_.send(std::move(msg));
    } catch (const std::exception& e) {
      EPPI_WARN("FaultyTransport scheduler: dropped late message: "
                << e.what());
    }
    lock.lock();
  }
}

void FaultyTransport::drain() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  {
    const MutexLock lock(mutex_);
    scheduler_started_ = false;
    stopping_ = false;
  }
}

FaultStats FaultyTransport::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

bool FaultyTransport::crashed(PartyId party) const {
  const MutexLock lock(mutex_);
  const auto it = crashed_.find(party);
  return it != crashed_.end() && it->second;
}

}  // namespace eppi::net
