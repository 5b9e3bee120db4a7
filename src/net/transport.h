// Transport abstraction and the in-memory implementation.
//
// The paper's prototype used Netty over Emulab machines; here the transport
// routes messages between party threads through per-party mailboxes while
// metering every message for the cost model (DESIGN.md §2). The interface is
// narrow so alternative transports (e.g. loss-injecting, delaying) can be
// substituted in tests.
#pragma once

#include <memory>
#include <vector>

#include "net/cost_meter.h"
#include "net/mailbox.h"
#include "net/message.h"

namespace eppi::net {

class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(Message msg) = 0;
};

// Routes messages to per-party mailboxes; thread-safe. Owns neither the
// mailboxes nor the meter.
class InMemoryTransport final : public Transport {
 public:
  InMemoryTransport(std::vector<Mailbox>& mailboxes, CostMeter& meter)
      : mailboxes_(mailboxes), meter_(meter) {}

  void send(Message msg) override;

 private:
  std::vector<Mailbox>& mailboxes_;
  CostMeter& meter_;
};

}  // namespace eppi::net
