#include "net/mailbox.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace eppi::net {
namespace {

Message make(PartyId from, std::uint32_t tag, std::uint64_t seq,
             std::uint8_t byte) {
  Message m;
  m.from = from;
  m.to = 0;
  m.tag = tag;
  m.seq = seq;
  m.payload = {byte};
  return m;
}

TEST(MailboxTest, DeliverThenRecv) {
  Mailbox box;
  box.deliver(make(1, 7, 0, 0xAA));
  const Message got = box.recv(1, 7, 0);
  EXPECT_EQ(got.payload[0], 0xAA);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxTest, SelectiveRecvIgnoresOtherKeys) {
  Mailbox box;
  box.deliver(make(2, 7, 0, 0x01));
  box.deliver(make(1, 8, 0, 0x02));
  box.deliver(make(1, 7, 1, 0x03));
  box.deliver(make(1, 7, 0, 0x04));
  EXPECT_EQ(box.recv(1, 7, 0).payload[0], 0x04);
  EXPECT_EQ(box.pending(), 3u);
  EXPECT_EQ(box.recv(1, 7, 1).payload[0], 0x03);
  EXPECT_EQ(box.recv(1, 8, 0).payload[0], 0x02);
  EXPECT_EQ(box.recv(2, 7, 0).payload[0], 0x01);
}

TEST(MailboxTest, RecvBlocksUntilDelivery) {
  Mailbox box;
  std::thread producer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.deliver(make(3, 1, 5, 0x42));
  });
  const Message got = box.recv(3, 1, 5);  // must block, then succeed
  EXPECT_EQ(got.payload[0], 0x42);
  producer.join();
}

TEST(MailboxTest, TryRecvDoesNotBlock) {
  Mailbox box;
  Message out;
  EXPECT_FALSE(box.try_recv(1, 1, 1, out));
  box.deliver(make(1, 1, 1, 0x77));
  EXPECT_TRUE(box.try_recv(1, 1, 1, out));
  EXPECT_EQ(out.payload[0], 0x77);
  EXPECT_FALSE(box.try_recv(1, 1, 1, out));
}

TEST(MailboxTest, DuplicateKeysQueueInOrderOfArrival) {
  Mailbox box;
  box.deliver(make(1, 1, 0, 0x01));
  box.deliver(make(1, 1, 0, 0x02));
  EXPECT_EQ(box.pending(), 2u);
  // Multimap preserves insertion order per key.
  EXPECT_EQ(box.recv(1, 1, 0).payload[0], 0x01);
  EXPECT_EQ(box.recv(1, 1, 0).payload[0], 0x02);
}

TEST(MailboxTest, RecvUntilReturnsBufferedMessageAfterFailure) {
  Mailbox box;
  box.deliver(make(2, 4, 1, 0x5A));
  box.fail_party(2);
  Message out;
  // Already past the deadline and the sender is failed: the buffered
  // message still wins.
  EXPECT_TRUE(box.recv_until(2, 4, 1, std::chrono::steady_clock::now(), out));
  EXPECT_EQ(out.payload[0], 0x5A);
  EXPECT_FALSE(box.recv_until(2, 4, 1,
                              std::chrono::steady_clock::now() +
                                  std::chrono::seconds(10),
                              out));
}

TEST(MailboxTest, RecvUntilReturnsFalseAtDeadline) {
  Mailbox box;
  box.deliver(make(1, 1, 0, 0x01));  // a different key does not satisfy it
  Message out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.recv_until(1, 1, 1, start + std::chrono::milliseconds(30),
                              out));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(30));
  EXPECT_EQ(box.pending(), 1u);
}

TEST(MailboxTest, DeliveryWakesBoundedWaiter) {
  Mailbox box;
  std::thread producer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.deliver(make(3, 1, 5, 0x42));
  });
  Message out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(box.recv_until(3, 1, 5, start + std::chrono::seconds(10), out));
  EXPECT_EQ(out.payload[0], 0x42);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  producer.join();
}

TEST(MailboxTest, FailPartyWakesBoundedWaiter) {
  Mailbox box;
  std::thread detector([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.fail_party(3);
  });
  Message out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.recv_until(3, 1, 5, start + std::chrono::seconds(10), out));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  detector.join();
}

TEST(MailboxTest, WireSizeCoversHeaderAndPayload) {
  const Message m = make(1, 1, 0, 0x00);
  EXPECT_EQ(m.wire_size(), 24u + 1u);
}

}  // namespace
}  // namespace eppi::net
