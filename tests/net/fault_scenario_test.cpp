// Fault-injection framework: scenario DSL parsing and the seeded
// FaultyTransport decorator (drop / duplicate / delay / crash semantics).
#include "net/fault.h"

#include <gtest/gtest.h>

#include <chrono>

#include "common/error.h"
#include "net/cluster.h"
#include "net/faulty_transport.h"

namespace eppi::net {
namespace {

using namespace std::chrono_literals;

Message data_msg(PartyId from, PartyId to, std::uint64_t seq,
                 std::uint32_t tag = MessageTag::kUserBase) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.tag = tag;
  msg.seq = seq;
  msg.payload = {static_cast<std::uint8_t>(seq & 0xff)};
  return msg;
}

TEST(FaultScenarioTest, ParsesFullDsl) {
  const auto scenario = FaultScenario::parse(
      "all: drop=0.1, dup=0.05, delay=1..5ms; link 2->0: drop=1.0; "
      "crash 3 after 4 sends; crash 1 at tag 2");
  EXPECT_DOUBLE_EQ(scenario.default_fault.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(scenario.default_fault.dup_prob, 0.05);
  EXPECT_EQ(scenario.default_fault.delay_min, 1000us);
  EXPECT_EQ(scenario.default_fault.delay_max, 5000us);

  EXPECT_DOUBLE_EQ(scenario.fault_for(2, 0).drop_prob, 1.0);
  // Unlisted links fall back to the default.
  EXPECT_DOUBLE_EQ(scenario.fault_for(0, 2).drop_prob, 0.1);

  ASSERT_EQ(scenario.crashes.count(3), 1u);
  EXPECT_EQ(scenario.crashes.at(3).after_sends, std::uint64_t{4});
  ASSERT_EQ(scenario.crashes.count(1), 1u);
  EXPECT_EQ(scenario.crashes.at(1).at_tag, std::uint32_t{2});
}

TEST(FaultScenarioTest, EmptySpecIsLossless) {
  const auto scenario = FaultScenario::parse("");
  EXPECT_TRUE(scenario.default_fault.lossless());
  EXPECT_TRUE(scenario.crashes.empty());
  EXPECT_TRUE(scenario.link_faults.empty());
  EXPECT_TRUE(scenario.churn.empty());
  EXPECT_EQ(scenario.last_churn_round(), 0u);
}

TEST(FaultScenarioTest, ParsesChurnStatements) {
  const auto scenario = FaultScenario::parse(
      "churn 2: join_at=3; churn 4: leave_at=2; churn 1: flap=2..5; "
      "all: drop=0.1");
  ASSERT_EQ(scenario.churn.size(), 3u);
  EXPECT_EQ(scenario.churn.at(2).join_at, std::uint64_t{3});
  EXPECT_FALSE(scenario.churn.at(2).leave_at.has_value());
  EXPECT_EQ(scenario.churn.at(4).leave_at, std::uint64_t{2});
  // flap = leave then rejoin.
  EXPECT_EQ(scenario.churn.at(1).leave_at, std::uint64_t{2});
  EXPECT_EQ(scenario.churn.at(1).join_at, std::uint64_t{5});

  // Round queries, ascending party order.
  EXPECT_EQ(scenario.leaves_at(2), (std::vector<PartyId>{1, 4}));
  EXPECT_EQ(scenario.joins_at(3), std::vector<PartyId>{2});
  EXPECT_TRUE(scenario.joins_at(2).empty());
  EXPECT_EQ(scenario.last_churn_round(), 5u);
  // Churn composes with transport faults in one spec.
  EXPECT_DOUBLE_EQ(scenario.default_fault.drop_prob, 0.1);
}

TEST(FaultScenarioTest, RejectsMalformedChurn) {
  // A flap that rejoins before it leaves is a contradiction, not churn.
  EXPECT_THROW(FaultScenario::parse("churn 1: flap=4..2"),
               eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("churn 1: flap=3"), eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("churn 1:"), eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("churn 1: join_at=0"),
               eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("churn 1: evaporate_at=2"),
               eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("churn x: join_at=2"),
               eppi::ConfigError);
}

TEST(FaultScenarioTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultScenario::parse("drop=0.1"), eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("all: flop=0.1"), eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("link 2: drop=1.0"), eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("crash x after 4 sends"),
               eppi::ConfigError);
  EXPECT_THROW(FaultScenario::parse("all: drop=nope"), eppi::ConfigError);
}

TEST(FaultyTransportTest, DropsAreDeterministicForFixedSeed) {
  const auto scenario = FaultScenario::parse("all: drop=0.3");
  constexpr std::size_t kSends = 200;
  const auto run_once = [&] {
    std::vector<Mailbox> boxes(2);
    CostMeter meter;
    InMemoryTransport inner(boxes, meter);
    FaultyTransport faulty(inner, scenario, /*seed=*/42);
    for (std::size_t i = 0; i < kSends; ++i) {
      faulty.send(data_msg(0, 1, i));
    }
    std::vector<bool> arrived(kSends);
    Message out;
    for (std::size_t i = 0; i < kSends; ++i) {
      arrived[i] = boxes[1].try_recv(0, MessageTag::kUserBase, i, out);
    }
    return std::make_pair(arrived, faulty.stats().dropped);
  };
  const auto [first, first_dropped] = run_once();
  const auto [second, second_dropped] = run_once();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_dropped, second_dropped);
  EXPECT_GT(first_dropped, 0u);
  EXPECT_LT(first_dropped, kSends);
}

TEST(FaultyTransportTest, LinksUseIndependentStreams) {
  // The same scenario must yield link-local decisions: inserting traffic on
  // one link does not change what another link drops.
  const auto scenario = FaultScenario::parse("all: drop=0.5");
  constexpr std::size_t kSends = 64;
  const auto deliveries_on_01 = [&](bool with_other_traffic) {
    std::vector<Mailbox> boxes(3);
    CostMeter meter;
    InMemoryTransport inner(boxes, meter);
    FaultyTransport faulty(inner, scenario, /*seed=*/7);
    for (std::size_t i = 0; i < kSends; ++i) {
      if (with_other_traffic) faulty.send(data_msg(2, 1, i));
      faulty.send(data_msg(0, 1, i));
    }
    std::vector<bool> arrived(kSends);
    Message out;
    for (std::size_t i = 0; i < kSends; ++i) {
      arrived[i] = boxes[1].try_recv(0, MessageTag::kUserBase, i, out);
    }
    return arrived;
  };
  EXPECT_EQ(deliveries_on_01(false), deliveries_on_01(true));
}

TEST(FaultyTransportTest, DuplicationDeliversTwiceWithoutReliability) {
  const auto scenario = FaultScenario::parse("all: dup=1.0");
  std::vector<Mailbox> boxes(2);
  CostMeter meter;
  InMemoryTransport inner(boxes, meter);
  FaultyTransport faulty(inner, scenario, 1);
  faulty.send(data_msg(0, 1, 9));
  Message out;
  EXPECT_TRUE(boxes[1].try_recv(0, MessageTag::kUserBase, 9, out));
  EXPECT_TRUE(boxes[1].try_recv(0, MessageTag::kUserBase, 9, out));
  EXPECT_FALSE(boxes[1].try_recv(0, MessageTag::kUserBase, 9, out));
  EXPECT_EQ(faulty.stats().duplicated, 1u);
}

TEST(FaultyTransportTest, DelayedMessagesFlushOnDrain) {
  const auto scenario = FaultScenario::parse("all: delay=50..50ms");
  std::vector<Mailbox> boxes(2);
  CostMeter meter;
  InMemoryTransport inner(boxes, meter);
  FaultyTransport faulty(inner, scenario, 1);
  faulty.send(data_msg(0, 1, 3));
  Message out;
  EXPECT_FALSE(boxes[1].try_recv(0, MessageTag::kUserBase, 3, out));
  EXPECT_EQ(faulty.stats().delayed, 1u);
  faulty.drain();  // releases held messages immediately
  EXPECT_TRUE(boxes[1].try_recv(0, MessageTag::kUserBase, 3, out));
}

TEST(FaultyTransportTest, CrashAfterSendsTripsOnNextSendThenSwallows) {
  const auto scenario = FaultScenario::parse("crash 0 after 3 sends");
  std::vector<Mailbox> boxes(2);
  CostMeter meter;
  InMemoryTransport inner(boxes, meter);
  FaultyTransport faulty(inner, scenario, 1);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_NO_THROW(faulty.send(data_msg(0, 1, i)));
  }
  EXPECT_FALSE(faulty.crashed(0));
  EXPECT_THROW(faulty.send(data_msg(0, 1, 3)), SimulatedCrash);
  EXPECT_TRUE(faulty.crashed(0));
  // Post-crash sends (e.g. retransmissions on its behalf) vanish silently.
  EXPECT_NO_THROW(faulty.send(data_msg(0, 1, 4)));
  Message out;
  EXPECT_FALSE(boxes[1].try_recv(0, MessageTag::kUserBase, 3, out));
  EXPECT_FALSE(boxes[1].try_recv(0, MessageTag::kUserBase, 4, out));
  EXPECT_EQ(faulty.stats().swallowed, 1u);
}

TEST(FaultyTransportTest, CrashAtTagTargetsProtocolStage) {
  const auto scenario = FaultScenario::parse("crash 0 at tag 2");
  std::vector<Mailbox> boxes(2);
  CostMeter meter;
  InMemoryTransport inner(boxes, meter);
  FaultyTransport faulty(inner, scenario, 1);
  EXPECT_NO_THROW(faulty.send(data_msg(0, 1, 0, MessageTag::kShareDistribute)));
  EXPECT_THROW(faulty.send(data_msg(0, 1, 0, MessageTag::kSuperShare)),
               SimulatedCrash);
}

TEST(FaultyTransportTest, ClusterRecordsCrashedPartyWithoutFailingRun) {
  Cluster cluster(2);
  cluster.inject_faults(FaultScenario::parse("crash 1 after 0 sends"));
  std::optional<std::vector<std::uint8_t>> got;
  cluster.run([&](PartyContext& ctx) {
    if (ctx.id() == 1) {
      ctx.send(0, MessageTag::kUserBase, 0, {1});  // trips the crash point
      return;
    }
    got = ctx.recv_for(1, MessageTag::kUserBase, 0,
                       std::chrono::milliseconds(100));
  });
  EXPECT_EQ(cluster.crashed(), std::vector<PartyId>{1});
  EXPECT_FALSE(got.has_value());
}

TEST(FaultyTransportTest, ScriptedLinkDropIsDirectional) {
  // A link override over the lossless default: every frame 0->1 is lost,
  // the reverse direction is untouched, and each loss is counted once.
  Cluster cluster(2);
  const FaultyTransport& faulty =
      cluster.inject_faults(FaultScenario::parse("link 0->1: drop=1.0"));
  std::optional<std::vector<std::uint8_t>> at_0;
  std::optional<std::vector<std::uint8_t>> at_1;
  cluster.run([&](PartyContext& ctx) {
    if (ctx.id() == 0) {
      ctx.send(1, MessageTag::kUserBase, 0, {1});
      ctx.send(1, MessageTag::kUserBase, 1, {2});
      at_0 = ctx.recv_for(1, MessageTag::kUserBase, 0,
                          std::chrono::milliseconds(500));
    } else {
      ctx.send(0, MessageTag::kUserBase, 0, {3});
      at_1 = ctx.recv_for(0, MessageTag::kUserBase, 0,
                          std::chrono::milliseconds(50));
    }
  });
  ASSERT_TRUE(at_0.has_value());
  EXPECT_EQ((*at_0)[0], 3);
  EXPECT_FALSE(at_1.has_value());
  EXPECT_EQ(faulty.stats().dropped, 2u);
  EXPECT_EQ(faulty.stats().forwarded, 1u);
}

}  // namespace
}  // namespace eppi::net
