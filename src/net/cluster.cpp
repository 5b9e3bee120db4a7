#include "net/cluster.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/error.h"
#include "common/mutex.h"
#include "net/fault.h"

namespace eppi::net {

void PartyContext::send(PartyId to, std::uint32_t tag, std::uint64_t seq,
                        std::vector<std::uint8_t> payload) {
  Message msg;
  msg.from = id_;
  msg.to = to;
  msg.tag = tag;
  msg.seq = seq;
  msg.payload = std::move(payload);
  local_meter_.record_message(msg.wire_size());
  transport_.send(std::move(msg));
}

std::vector<std::uint8_t> PartyContext::recv(PartyId from, std::uint32_t tag,
                                             std::uint64_t seq) {
  if (recv_timeout_ == std::chrono::milliseconds::zero()) {
    return inbox_.recv(from, tag, seq).payload;
  }
  auto result = recv_for(from, tag, seq, recv_timeout_);
  if (!result) {
    throw eppi::PartyFailure("recv timed out waiting for party " +
                                 std::to_string(from) + " tag " +
                                 std::to_string(tag),
                             from);
  }
  return std::move(*result);
}

std::optional<std::vector<std::uint8_t>> PartyContext::recv_for(
    PartyId from, std::uint32_t tag, std::uint64_t seq,
    std::chrono::milliseconds timeout) {
  // Blocks on the mailbox until delivery, the deadline, or a failure
  // detector marking `from` dead (a party declared dead will not send, so
  // the wait ends at once instead of running out the full budget).
  Message msg;
  if (!inbox_.recv_until(from, tag, seq,
                         std::chrono::steady_clock::now() + timeout, msg)) {
    return std::nullopt;
  }
  return std::move(msg.payload);
}

Cluster::Cluster(std::size_t n_parties, std::uint64_t seed)
    : mailboxes_(n_parties), seed_(seed) {
  require(n_parties >= 1, "Cluster: need at least one party");
  base_transport_ = std::make_unique<InMemoryTransport>(mailboxes_, meter_);
  active_transport_ = base_transport_.get();
}

Cluster::~Cluster() {
  // The reliability layer's retransmit thread touches mailboxes_; stop it
  // before members are torn down.
  if (reliable_layer_) reliable_layer_->stop();
  if (fault_layer_) fault_layer_->drain();
}

FaultyTransport& Cluster::inject_faults(FaultScenario scenario,
                                        std::uint64_t seed) {
  require(fault_layer_ == nullptr,
          "Cluster: fault injection already installed");
  fault_layer_ = std::make_unique<FaultyTransport>(*active_transport_,
                                                   std::move(scenario), seed);
  active_transport_ = fault_layer_.get();
  return *fault_layer_;
}

ReliableTransport& Cluster::enable_reliability(ReliableOptions options) {
  require(reliable_layer_ == nullptr, "Cluster: reliability already enabled");
  reliable_layer_ = std::make_unique<ReliableTransport>(*active_transport_,
                                                        mailboxes_, options);
  // Acks traverse the full chain below the reliability layer (so they are
  // subject to injected faults) but are never themselves retransmitted.
  for (std::size_t i = 0; i < mailboxes_.size(); ++i) {
    mailboxes_[i].enable_reliable(reliable_layer_.get(),
                                  static_cast<PartyId>(i));
  }
  active_transport_ = reliable_layer_.get();
  return *reliable_layer_;
}

void Cluster::run(const std::function<void(PartyContext&)>& body) {
  std::vector<std::function<void(PartyContext&)>> bodies(mailboxes_.size(),
                                                         body);
  run(bodies);
}

void Cluster::run(const std::vector<std::function<void(PartyContext&)>>& bodies) {
  require(bodies.size() == mailboxes_.size(),
          "Cluster: one body per party required");
  std::vector<std::thread> threads;
  threads.reserve(bodies.size());
  // error_mutex guards first_error and crashed_ for the duration of this
  // call only; once the joins below complete, crashed_ is again owned by the
  // caller's thread (which is why the member carries no EPPI_GUARDED_BY).
  std::exception_ptr first_error;
  Mutex error_mutex;
  crashed_.clear();

  Rng seeder(seed_);
  std::vector<Rng> party_rngs;
  party_rngs.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    party_rngs.push_back(seeder.fork());
  }

  for (std::size_t i = 0; i < bodies.size(); ++i) {
    threads.emplace_back([this, i, &bodies, &party_rngs, &first_error,
                          &error_mutex] {
      PartyContext ctx(static_cast<PartyId>(i), mailboxes_.size(),
                       *active_transport_, mailboxes_[i], meter_,
                       party_rngs[i], recv_timeout_);
      try {
        bodies[i](ctx);
      } catch (const SimulatedCrash&) {
        // Injected dropout, not a failure of the code under test: record it
        // so callers can assert which parties died.
        const MutexLock lock(error_mutex);
        crashed_.push_back(static_cast<PartyId>(i));
      } catch (...) {
        const MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  std::sort(crashed_.begin(), crashed_.end());
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace eppi::net
