// Golden pin of the distributed construction's output.
//
// A seeded in-process Cluster runs run_construction_party on every provider
// and the test checks the CRC32C of each party's published row and β vector
// and of coordinator 0's opened (mixed, frequency) vector against values
// recorded from the straightforward per-identity implementation. Any kernel
// rewrite underneath (share splitting, share decoding, ε ranking, λ-coin
// drawing, bounded receives) must keep every seed's output byte-identical,
// so a changed CRC here is a changed construction, not a refactor.
#include "core/construction_party.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "common/crc32c.h"
#include "common/rng.h"

namespace eppi::core {
namespace {

struct Instance {
  std::vector<std::vector<std::uint8_t>> rows;
  std::vector<double> epsilons;
};

// m providers, n identities: about 4% held by every provider (common under
// any policy), the rest held by each provider with probability 1/10; ε drawn
// from {0.05, 0.10, ..., 0.40} so ranks repeat.
Instance make_instance(std::size_t m, std::size_t n, std::uint64_t seed) {
  eppi::Rng rng(seed);
  Instance inst;
  inst.rows.assign(m, std::vector<std::uint8_t>(n, 0));
  inst.epsilons.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const bool common = rng.next_below(25) == 0;
    for (std::size_t i = 0; i < m; ++i) {
      inst.rows[i][j] = (common || rng.next_below(10) == 0) ? 1 : 0;
    }
    inst.epsilons[j] = 0.05 * static_cast<double>(1 + rng.next_below(8));
  }
  return inst;
}

template <typename T>
std::uint32_t crc_of(const std::vector<T>& values) {
  std::vector<std::uint8_t> bytes(values.size() * sizeof(T));
  if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
  return eppi::crc32c(bytes);
}

std::uint32_t crc_of(const std::vector<bool>& values) {
  return crc_of(std::vector<std::uint8_t>(values.begin(), values.end()));
}

struct Golden {
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> betas;
  std::uint32_t mixed = 0;
  std::uint32_t frequencies = 0;
  std::uint64_t common_count = 0;
  double lambda = 0.0;
};

Golden run(const Instance& inst, const DistributedOptions& options,
           std::chrono::milliseconds recv_timeout) {
  const std::size_t m = inst.rows.size();
  std::vector<ConstructionPartyResult> results(m);
  eppi::net::Cluster cluster(m, options.seed);
  cluster.set_recv_timeout(recv_timeout);
  cluster.run([&](eppi::net::PartyContext& ctx) {
    results[ctx.id()] = run_construction_party(ctx, inst.rows[ctx.id()],
                                               inst.epsilons, options);
  });
  Golden g;
  for (const auto& r : results) {
    g.rows.push_back(crc_of(r.published_row));
    g.betas.push_back(crc_of(r.betas));
  }
  const CoordinatorView& view = *results[0].coordinator;
  g.mixed = crc_of(view.mixed);
  g.frequencies = crc_of(view.revealed_frequencies);
  g.common_count = view.common_count;
  g.lambda = view.lambda;
  for (std::size_t i = 1; i < options.c; ++i) {
    EXPECT_EQ(crc_of(results[i].coordinator->mixed), g.mixed);
    EXPECT_EQ(crc_of(results[i].coordinator->revealed_frequencies),
              g.frequencies);
  }
  return g;
}

// Fault-tolerant SecSumShare, a receive timeout on every other receive (the
// configuration `eppi_cli party --ft` runs), m = 6 with c = 3 so three
// parties learn the opened vector from the broadcast. n = 1000 leaves a
// partial last lane word.
TEST(ConstructionGoldenTest, FaultTolerantRunIsByteIdentical) {
  const Instance inst = make_instance(6, 1000, 7);
  DistributedOptions options;
  options.policy = BetaPolicy::chernoff(0.9);
  options.c = 3;
  options.seed = 29;
  options.fault_tolerance.enabled = true;
  const Golden g = run(inst, options, std::chrono::milliseconds(2000));
  EXPECT_EQ(g.common_count, 367u);
  EXPECT_GT(g.lambda, 0.0);
  EXPECT_EQ(g.rows, (std::vector<std::uint32_t>{0x510cc397, 0xf3886c5f,
                                                0xcc89fd5f, 0x105dad2f,
                                                0x8f8fa359, 0x53854402}));
  EXPECT_EQ(g.betas, std::vector<std::uint32_t>(6, 0x100d4d7b));
  EXPECT_EQ(g.mixed, 0x72b232aeu);
  EXPECT_EQ(g.frequencies, 0xc295564du);
}

// The plain SecSumShare path over the paper's non-power-of-two ring q = 5
// (m = 4, c = 2), unbounded receives.
TEST(ConstructionGoldenTest, PlainRunOverOddRingIsByteIdentical) {
  const Instance inst = make_instance(4, 333, 8);
  DistributedOptions options;
  options.policy = BetaPolicy::basic();
  options.c = 2;
  options.q = 5;
  options.seed = 30;
  const Golden g = run(inst, options, std::chrono::milliseconds::zero());
  EXPECT_EQ(g.common_count, 19u);
  EXPECT_GT(g.lambda, 0.0);
  EXPECT_EQ(g.rows, (std::vector<std::uint32_t>{0x627044fa, 0xbf84cb09,
                                                0x64cd2803, 0x12348b04}));
  EXPECT_EQ(g.betas, std::vector<std::uint32_t>(4, 0x0ff6b7e0));
  EXPECT_EQ(g.mixed, 0x97617929u);
  EXPECT_EQ(g.frequencies, 0x839673a4u);
}

}  // namespace
}  // namespace eppi::core
