// Failure injection: protocols must fail cleanly (ProtocolError), not hang,
// when the transport drops messages — exercised through the cluster-level
// receive timeout and FaultScenario scripts injected into the cluster.
#include <gtest/gtest.h>

#include <chrono>

#include "common/error.h"
#include "mpc/circuit_builder.h"
#include "mpc/gmw.h"
#include "net/cluster.h"
#include "secret/sec_sum_share.h"

namespace eppi::net {
namespace {

TEST(FailureInjectionTest, SecSumShareFailsCleanlyOnMessageLoss) {
  constexpr std::size_t kM = 5;
  std::vector<std::vector<std::uint8_t>> inputs(
      kM, std::vector<std::uint8_t>(2, 1));
  Cluster cluster(kM);
  cluster.set_recv_timeout(std::chrono::milliseconds(100));
  const FaultyTransport& faulty =
      cluster.inject_faults(FaultScenario::parse("all: drop=1.0"));
  const eppi::secret::SecSumShareParams params{3, 0, 2};
  EXPECT_THROW(cluster.run([&](PartyContext& ctx) {
                 (void)eppi::secret::run_sec_sum_share_party(
                     ctx, params, inputs[ctx.id()]);
               }),
               eppi::ProtocolError);
  EXPECT_GT(faulty.stats().dropped, 0u);
}

TEST(FailureInjectionTest, GmwFailsCleanlyOnMessageLoss) {
  eppi::mpc::CircuitBuilder cb;
  const auto a = cb.input_bits(0, 4);
  const auto b = cb.input_bits(1, 4);
  cb.output_vec(cb.add_trunc(a, b));
  const eppi::mpc::Circuit circuit = cb.take();

  Cluster cluster(2);
  cluster.set_recv_timeout(std::chrono::milliseconds(100));
  cluster.inject_faults(FaultScenario::parse("link 1->0: drop=1.0"));
  EXPECT_THROW(cluster.run([&](PartyContext& ctx) {
                 eppi::mpc::GmwSession session;
                 session.parties = {0, 1};
                 const std::vector<bool> inputs(4, true);
                 (void)eppi::mpc::run_gmw_party(ctx, session, circuit,
                                                inputs);
               }),
               eppi::ProtocolError);
}

TEST(FailureInjectionTest, LossFreeRunsSucceedWithTimeoutArmed) {
  // The timeout must be harmless when nothing is lost.
  constexpr std::size_t kM = 5;
  std::vector<std::vector<std::uint8_t>> inputs(
      kM, std::vector<std::uint8_t>(2, 1));
  Cluster cluster(kM);
  cluster.set_recv_timeout(std::chrono::milliseconds(2000));
  const eppi::secret::SecSumShareParams params{3, 0, 2};
  cluster.run([&](PartyContext& ctx) {
    (void)eppi::secret::run_sec_sum_share_party(ctx, params,
                                                inputs[ctx.id()]);
  });
  EXPECT_EQ(cluster.meter().snapshot().rounds, 2u);
}

TEST(FailureInjectionTest, CrashedPeerSurfacesAsTimeout) {
  // Party 1 "crashes" (returns immediately); party 0's recv must throw
  // rather than block forever.
  Cluster cluster(2);
  cluster.set_recv_timeout(std::chrono::milliseconds(50));
  EXPECT_THROW(cluster.run([&](PartyContext& ctx) {
                 if (ctx.id() == 1) return;  // crash before sending
                 (void)ctx.recv(1, MessageTag::kUserBase, 0);
               }),
               eppi::ProtocolError);
}

}  // namespace
}  // namespace eppi::net
