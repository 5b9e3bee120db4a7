#include "net/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/error.h"

namespace eppi::net {
namespace {

TEST(ClusterTest, RingPassAroundToken) {
  constexpr std::size_t kParties = 5;
  Cluster cluster(kParties);
  std::vector<std::uint8_t> received(kParties, 0);
  cluster.run([&](PartyContext& ctx) {
    const PartyId next = (ctx.id() + 1) % kParties;
    const PartyId prev = (ctx.id() + kParties - 1) % kParties;
    ctx.send(next, MessageTag::kUserBase, 0, {static_cast<std::uint8_t>(ctx.id())});
    const auto payload = ctx.recv(prev, MessageTag::kUserBase, 0);
    received[ctx.id()] = payload[0];
  });
  for (std::size_t i = 0; i < kParties; ++i) {
    EXPECT_EQ(received[i], (i + kParties - 1) % kParties);
  }
}

TEST(ClusterTest, MeterCountsMessagesAndBytes) {
  Cluster cluster(3);
  cluster.run([&](PartyContext& ctx) {
    if (ctx.id() == 0) {
      ctx.send(1, MessageTag::kUserBase, 0, {1, 2, 3});
      ctx.mark_round();
    } else if (ctx.id() == 1) {
      (void)ctx.recv(0, MessageTag::kUserBase, 0);
    }
  });
  const CostSnapshot cost = cluster.meter().snapshot();
  EXPECT_EQ(cost.messages, 1u);
  EXPECT_EQ(cost.bytes, 24u + 3u);
  EXPECT_EQ(cost.rounds, 1u);
}

TEST(ClusterTest, PartyExceptionPropagatesToCaller) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](PartyContext& ctx) {
                 if (ctx.id() == 1) {
                   throw eppi::ProtocolError("boom");
                 }
               }),
               eppi::ProtocolError);
}

TEST(ClusterTest, HeterogeneousBodies) {
  Cluster cluster(2);
  std::atomic<int> sum{0};
  std::vector<std::function<void(PartyContext&)>> bodies;
  bodies.emplace_back([&](PartyContext&) { sum += 1; });
  bodies.emplace_back([&](PartyContext&) { sum += 10; });
  cluster.run(bodies);
  EXPECT_EQ(sum.load(), 11);
}

TEST(ClusterTest, BodyCountMismatchThrows) {
  Cluster cluster(3);
  std::vector<std::function<void(PartyContext&)>> bodies(2,
                                                         [](PartyContext&) {});
  EXPECT_THROW(cluster.run(bodies), eppi::ConfigError);
}

TEST(ClusterTest, PartyRngStreamsAreDeterministicAcrossRuns) {
  std::vector<std::uint64_t> first(4), second(4);
  for (auto* out : {&first, &second}) {
    Cluster cluster(4, /*seed=*/77);
    cluster.run([&](PartyContext& ctx) {
      (*out)[ctx.id()] = ctx.rng().next();
    });
  }
  EXPECT_EQ(first, second);
  // And per-party streams differ from each other.
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_NE(first[0], first[i]);
  }
}

TEST(ClusterTest, RecvForTimesOutOnDroppedMessage) {
  Cluster cluster(2);
  const FaultyTransport& faulty =
      cluster.inject_faults(FaultScenario::parse("link 0->1: drop=1.0"));
  std::atomic<bool> timed_out{false};
  cluster.run([&](PartyContext& ctx) {
    if (ctx.id() == 0) {
      ctx.send(1, MessageTag::kUserBase, 0, {9});  // dropped
    } else {
      const auto result = ctx.recv_for(0, MessageTag::kUserBase, 0,
                                       std::chrono::milliseconds(50));
      timed_out = !result.has_value();
    }
  });
  EXPECT_TRUE(timed_out.load());
  EXPECT_EQ(faulty.stats().dropped, 1u);
}

TEST(ClusterTest, RecvForReturnsDeliveredMessage) {
  Cluster cluster(2);
  cluster.run([&](PartyContext& ctx) {
    if (ctx.id() == 0) {
      ctx.send(1, MessageTag::kUserBase, 3, {5});
    } else {
      const auto result = ctx.recv_for(0, MessageTag::kUserBase, 3,
                                       std::chrono::milliseconds(500));
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ((*result)[0], 5);
    }
  });
}

TEST(ClusterTest, ZeroPartiesRejected) {
  EXPECT_THROW(Cluster(0), eppi::ConfigError);
}

}  // namespace
}  // namespace eppi::net
