// Positive tests for the Secret<T> taint type: the audited escape hatches
// must round-trip values faithfully, and the ring/XOR operations must match
// plain arithmetic. The negative half of the contract — logging, comparison,
// and implicit conversion refusing to compile — lives in tests/compile_fail/.
#include "secret/secret.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/rng.h"
#include "secret/additive_share.h"
#include "secret/sec_sum_share.h"
#include "net/cluster.h"

namespace eppi::secret {
namespace {

using eppi::net::Cluster;
using eppi::net::PartyContext;

TEST(SecretTaintTest, RevealRoundTripsConstruction) {
  for (const std::uint64_t v : {0ull, 1ull, 41ull, ~0ull}) {
    const SecretU64 s(v);
    EXPECT_EQ(s.reveal(), v);
    EXPECT_EQ(s.unwrap_for_wire(), v);
  }
  const SecretBit b(true);
  EXPECT_TRUE(b.reveal());
}

TEST(SecretTaintTest, DefaultConstructionIsShareOfZero) {
  const SecretU64 s;
  EXPECT_EQ(s.reveal(), 0u);
  const SecretBit b;
  EXPECT_FALSE(b.reveal());
}

TEST(SecretTaintTest, RingOpsMatchPlainArithmetic) {
  const ModRing ring(1 << 10);
  eppi::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = rng.next_below(ring.q());
    const std::uint64_t b = rng.next_below(ring.q());
    const SecretU64 sa(a), sb(b);
    EXPECT_EQ(sa.add(sb, ring).reveal(), ring.add(a, b));
    EXPECT_EQ(sa.sub(sb, ring).reveal(), ring.sub(a, b));
  }
}

TEST(SecretTaintTest, XorOpsMatchPlainBits) {
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      const SecretBit sa(a), sb(b);
      EXPECT_EQ((sa ^ sb).reveal(), a != b);
      EXPECT_EQ((sa ^ b).reveal(), a != b);
      EXPECT_EQ((sa & b).reveal(), a && b);
      SecretBit acc(a);
      acc ^= sb;
      EXPECT_EQ(acc.reveal(), a != b);
    }
  }
}

TEST(SecretTaintTest, BulkHelpersRoundTrip) {
  const std::vector<std::uint64_t> raw{5, 0, 999, 42};
  const auto wrapped = wrap_shares(raw);
  ASSERT_EQ(wrapped.size(), raw.size());
  EXPECT_EQ(wire_shares(wrapped), raw);
  EXPECT_EQ(reveal_shares(wrapped), raw);
}

// Secrets never become *less* protected by moving through the protocol: the
// end-to-end check that SecSumShare's tainted output still reconstructs the
// true frequencies via the audited reveal() path.
TEST(SecretTaintTest, RevealRoundTripsThroughSecSumShare) {
  constexpr std::size_t kM = 6;
  constexpr std::size_t kC = 3;
  constexpr std::size_t kN = 8;
  eppi::Rng rng(11);
  std::vector<std::vector<std::uint8_t>> inputs(kM,
                                                std::vector<std::uint8_t>(kN));
  std::vector<std::uint64_t> freqs(kN, 0);
  for (auto& row : inputs) {
    for (std::size_t j = 0; j < kN; ++j) {
      row[j] = rng.bernoulli(0.5) ? 1 : 0;
      freqs[j] += row[j];
    }
  }
  const SecSumShareParams params{kC, 0, kN};
  const auto ring = resolve_ring(params, kM);

  Cluster cluster(kM, 13);
  std::vector<std::vector<SecretU64>> views(kC);
  cluster.run([&](PartyContext& ctx) {
    const auto result = run_sec_sum_share_party(ctx, params, inputs[ctx.id()]);
    if (ctx.id() < kC) views[ctx.id()] = *result;
  });

  for (std::size_t j = 0; j < kN; ++j) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kC; ++i) {
      total = ring.add(total, views[i][j].reveal());
    }
    EXPECT_EQ(total, freqs[j]) << "identity " << j;
  }
}

// Static half of the contract that can be expressed as type traits (the
// full compile-fail probes live in tests/compile_fail/).
static_assert(!std::is_convertible_v<SecretU64, std::uint64_t>,
              "shares must not convert to their payload type");
static_assert(!std::is_convertible_v<SecretU64, bool>,
              "shares must not be branch conditions");
static_assert(!std::is_convertible_v<std::uint64_t, SecretU64>,
              "public values must not silently become shares");
static_assert(std::is_copy_constructible_v<SecretU64> &&
                  std::is_move_constructible_v<SecretBytes>,
              "shares still move through containers");

}  // namespace
}  // namespace eppi::secret
