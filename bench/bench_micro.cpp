// Microbenchmarks (google-benchmark) for the primitives on the construction
// and query hot paths: secret sharing, randomized publication, circuit
// compilation, plain/secure evaluation, SecSumShare, and PPI queries.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/beta_policy.h"
#include "core/constructor.h"
#include "core/epoch_manager.h"
#include "core/lexicon.h"
#include "core/owner_truth.h"
#include "core/posting_index.h"
#include "core/ppi_index.h"
#include "core/publisher.h"
#include "core/sticky_publisher.h"
#include "dataset/synthetic.h"
#include "mpc/circuit_builder.h"
#include "mpc/eppi_circuits.h"
#include "mpc/gmw.h"
#include "mpc/plain_eval.h"
#include "net/cluster.h"
#include "secret/additive_share.h"
#include "secret/sec_sum_share.h"

namespace {

void BM_SplitAdditive(benchmark::State& state) {
  const eppi::secret::ModRing ring(1 << 14);
  eppi::Rng rng(1);
  const auto c = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eppi::secret::split_additive(123, c, ring, rng));
  }
}
BENCHMARK(BM_SplitAdditive)->Arg(2)->Arg(3)->Arg(8);

void BM_ReconstructAdditive(benchmark::State& state) {
  const eppi::secret::ModRing ring(1 << 14);
  eppi::Rng rng(2);
  const auto shares = eppi::secret::split_additive(123, 8, ring, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eppi::secret::reconstruct_additive(shares, ring));
  }
}
BENCHMARK(BM_ReconstructAdditive);

void BM_PublishRow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  eppi::Rng rng(3);
  std::vector<std::uint8_t> local(n);
  std::vector<double> betas(n, 0.3);
  for (std::size_t j = 0; j < n; ++j) local[j] = rng.bernoulli(0.1) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eppi::core::publish_row(local, betas, rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_PublishRow)->Arg(1000)->Arg(100000);

void BM_BetaChernoff(benchmark::State& state) {
  double sigma = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eppi::core::beta_chernoff(sigma, 0.5, 0.9, 10000));
    sigma = sigma < 0.5 ? sigma + 1e-6 : 0.01;
  }
}
BENCHMARK(BM_BetaChernoff);

void BM_CommonThreshold(benchmark::State& state) {
  const eppi::core::BetaPolicy policy = eppi::core::BetaPolicy::chernoff(0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eppi::core::common_threshold(policy, 0.7, 10000));
  }
}
BENCHMARK(BM_CommonThreshold);

void BM_BuildCountBelowCircuit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  eppi::mpc::CountBelowSpec spec;
  spec.c = 3;
  spec.q = 1 << 14;
  spec.thresholds = std::vector<std::uint64_t>(n, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eppi::mpc::build_count_below_circuit(spec));
  }
}
BENCHMARK(BM_BuildCountBelowCircuit)->Arg(16)->Arg(256);

void BM_PlainEvalCountBelow(benchmark::State& state) {
  eppi::mpc::CountBelowSpec spec;
  spec.c = 3;
  spec.q = 1 << 10;
  spec.thresholds = std::vector<std::uint64_t>(64, 100);
  const auto circuit = eppi::mpc::build_count_below_circuit(spec);
  std::vector<bool> inputs(circuit.inputs().size() * circuit.lanes(), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eppi::mpc::evaluate_plain(circuit, inputs));
  }
}
BENCHMARK(BM_PlainEvalCountBelow);

void BM_GmwTwoPartyAnd64(benchmark::State& state) {
  eppi::mpc::CircuitBuilder cb;
  const auto a = cb.input_bits(0, 64);
  const auto b = cb.input_bits(1, 64);
  for (int i = 0; i < 64; ++i) cb.output(cb.And(a[i], b[i]));
  const auto circuit = cb.take();
  const std::vector<bool> inputs(64, true);
  for (auto _ : state) {
    eppi::net::Cluster cluster(2);
    cluster.run([&](eppi::net::PartyContext& ctx) {
      eppi::mpc::GmwSession session;
      session.parties = {0, 1};
      benchmark::DoNotOptimize(
          eppi::mpc::run_gmw_party(ctx, session, circuit, inputs));
    });
  }
}
BENCHMARK(BM_GmwTwoPartyAnd64);

void BM_SecSumShare(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kN = 64;
  eppi::Rng rng(4);
  std::vector<std::vector<std::uint8_t>> inputs(
      m, std::vector<std::uint8_t>(kN));
  for (auto& row : inputs) {
    for (auto& bit : row) bit = rng.bernoulli(0.2) ? 1 : 0;
  }
  const eppi::secret::SecSumShareParams params{3, 0, kN};
  for (auto _ : state) {
    eppi::net::Cluster cluster(m);
    cluster.run([&](eppi::net::PartyContext& ctx) {
      benchmark::DoNotOptimize(eppi::secret::run_sec_sum_share_party(
          ctx, params, inputs[ctx.id()]));
    });
  }
}
BENCHMARK(BM_SecSumShare)->Arg(4)->Arg(16);

void BM_CentralizedConstruct(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  eppi::Rng rng(5);
  eppi::dataset::SyntheticConfig config;
  config.providers = m;
  config.identities = 100;
  const auto net = eppi::dataset::make_zipf_network(config, rng);
  const auto eps = eppi::dataset::random_epsilons(100, rng);
  for (auto _ : state) {
    eppi::Rng crng(6);
    benchmark::DoNotOptimize(eppi::core::construct_centralized(
        net.membership, eps, {}, crng));
  }
}
BENCHMARK(BM_CentralizedConstruct)->Arg(200)->Arg(1000);

// One full sticky epoch as the daemon builds it, through
// EpochManager::rebuild: the β prologue over the per-owner truth, then the
// emitter and the encoder block by block on the CPUs of the affinity mask.
void BM_PublishEpoch(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kOwners = 50000;
  eppi::Rng rng(9);
  eppi::dataset::SyntheticConfig config;
  config.providers = m;
  config.identities = kOwners;
  const auto truth = eppi::core::owner_truth(
      eppi::dataset::make_zipf_network(config, rng).membership);
  const std::vector<double> eps(kOwners, 0.6);
  eppi::core::EpochManager manager;
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.rebuild(truth, eps));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * kOwners));
}
BENCHMARK(BM_PublishEpoch)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

// The sticky rule's keyed draws, in ns per hashed cell: one StickyKernel's
// masks over the padded streams of a 1000-provider epoch (16 blocks of 64)
// for 2000 identities at a threshold every cell is compared against. One
// benchmark per kernel this CPU runs, named after it.
void BM_StickyEmit(benchmark::State& state,
                   const eppi::core::StickyKernel& kernel) {
  constexpr std::size_t kBlocks = 16;
  constexpr std::size_t kOwners = 2000;
  eppi::Rng rng(13);
  std::vector<std::uint64_t> streams(64 * kBlocks);
  for (std::size_t i = 0; i < 1000; ++i) streams[i] = rng.next();
  const std::uint64_t threshold = eppi::core::sticky_threshold(0.02);
  for (auto _ : state) {
    for (std::size_t j = 0; j < kOwners; ++j) {
      for (std::size_t base = 0; base < streams.size(); base += 64) {
        benchmark::DoNotOptimize(
            kernel.mask(streams.data() + base, j, threshold));
      }
    }
  }
  // Shown as time per cell.
  state.counters["per_cell"] = benchmark::Counter(
      static_cast<double>(streams.size() * kOwners),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
const bool kStickyEmitRegistered = [] {
  for (const eppi::core::StickyKernel& kernel : eppi::core::sticky_kernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_StickyEmit/") + kernel.name).c_str(), BM_StickyEmit,
        kernel);
  }
  return true;
}();

// Lexicon::merge of the daemon's owner names ("owner%06zu") into an empty
// lexicon, inserted in first-seen order (a shuffle of name order), at
// n = 50k and 10^6: the sort of the pending names and the build of the
// front-coded base with its rank table. The inserts are not timed.
void BM_LexiconMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> names(n);
  for (std::size_t j = 0; j < n; ++j) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "owner%06zu", j);
    names[j] = buf;
  }
  eppi::Rng rng(17);
  for (std::size_t j = n; j > 1; --j) {
    std::swap(names[j - 1], names[rng.next_below(j)]);
  }
  for (auto _ : state) {
    state.PauseTiming();
    eppi::core::Lexicon lexicon;
    for (const std::string& name : names) lexicon.insert(name);
    state.ResumeTiming();
    lexicon.merge();
    benchmark::DoNotOptimize(lexicon.size());
  }
}
BENCHMARK(BM_LexiconMerge)
    ->ArgName("names")
    ->Arg(50000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_PostingIndexQuery(benchmark::State& state) {
  eppi::Rng rng(8);
  eppi::dataset::SyntheticConfig config;
  config.providers = 2000;
  config.identities = 200;
  const auto net = eppi::dataset::make_zipf_network(config, rng);
  const eppi::core::PpiIndex index(net.membership);
  const eppi::core::PostingIndex postings(index);
  std::uint32_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(postings.query(j));
    j = (j + 1) % 200;
  }
}
BENCHMARK(BM_PostingIndexQuery);

// An index shaped like the locator daemon's benchmark collection: m = 1000
// providers, n = 50k owners, 2% of them held by 400-600 providers and the
// rest by 1-8, published at ε = 0.6 under the default β policy.
const eppi::core::PostingIndex& daemon_shaped_index() {
  static const eppi::core::PostingIndex index = [] {
    constexpr std::size_t kProviders = 1000;
    constexpr std::size_t kOwners = 50000;
    eppi::Rng rng(31);
    eppi::core::OwnerTruth truth;
    truth.providers = kProviders;
    truth.owners.resize(kOwners);
    std::vector<eppi::core::ProviderId> perm(kProviders);
    for (std::size_t p = 0; p < kProviders; ++p) {
      perm[p] = static_cast<eppi::core::ProviderId>(p);
    }
    for (auto& holders : truth.owners) {
      const std::size_t k = rng.bernoulli(0.02) ? 400 + rng.next_below(201)
                                                : 1 + rng.next_below(8);
      for (std::size_t i = 0; i < k; ++i) {
        std::swap(perm[i], perm[i + rng.next_below(kProviders - i)]);
      }
      holders.assign(perm.begin(), perm.begin() + static_cast<long>(k));
      std::sort(holders.begin(), holders.end());
    }
    const std::vector<double> eps(kOwners, 0.6);
    eppi::core::EpochManager manager;
    return *manager.rebuild(truth, eps).postings;
  }();
  return index;
}

// Posting decode, checked (decode_postings, what a shard runs on every row
// when it is built or loaded) against trusted (PostingShard's word-level
// decoder, what /query runs). Arg 0 picks the rows: 0 = one Elias-Fano row
// of ~20 entries over m = 1000, 1 = one all-ones bitvector row of 1000,
// 2 = a 256-owner uniform batch over the daemon-shaped index. Arg 1: 0 =
// checked, 1 = trusted. Items are decoded provider ids.
void BM_DecodePostings(benchmark::State& state) {
  using eppi::core::IdentityId;
  using eppi::core::ProviderId;
  const bool trusted = state.range(1) == 1;
  const bool whole_batch = state.range(0) == 2;
  std::vector<ProviderId> ids;
  for (ProviderId p = 0; p < 1000; ++p) {
    if (state.range(0) == 1 || p % 50 == 7) ids.push_back(p);
  }
  const eppi::core::PostingIndex one_row(
      1000, std::vector<std::vector<ProviderId>>{ids});
  const eppi::core::PostingIndex& index =
      whole_batch ? daemon_shaped_index() : one_row;
  std::vector<IdentityId> owners = {0};
  if (whole_batch) {
    eppi::Rng rng(32);
    owners.assign(256, 0);
    for (auto& j : owners) {
      j = static_cast<IdentityId>(rng.next_below(index.identities()));
    }
  }
  const std::size_t span = index.shard_span();
  std::vector<ProviderId> batch;
  std::vector<ProviderId> scratch;
  for (auto _ : state) {
    batch.clear();
    for (const IdentityId j : owners) {
      if (trusted) {
        index.append_postings(j, batch);
      } else {
        const auto& shard = *index.shard(j / span);
        const std::size_t row = j % span;
        eppi::core::decode_postings(
            shard.codec_of(row),
            shard.arena().subspan(shard.tagged_offsets()[row] >> 2),
            shard.universe(), scratch);
        batch.insert(batch.end(), scratch.begin(), scratch.end());
      }
    }
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
  state.counters["entries"] = static_cast<double>(batch.size());
}
BENCHMARK(BM_DecodePostings)
    ->ArgNames({"rows", "trusted"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}});

// Lexicon::find over the daemon's owner names ("owner%06zu", ids in a
// shuffled registration order) at n = 50k and 10^6: random present names,
// or absent ones (a present name plus one byte, which sorts between two
// entries and reaches the same restart block).
void BM_LexiconFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool present = state.range(1) != 0;
  const auto name = [](std::size_t j) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "owner%06zu", j);
    return std::string(buf);
  };
  eppi::Rng rng(11);
  std::vector<eppi::core::IdentityId> ids(n);
  std::iota(ids.begin(), ids.end(), eppi::core::IdentityId{0});
  for (std::size_t j = n; j > 1; --j) {
    std::swap(ids[j - 1], ids[rng.next_below(j)]);
  }
  std::vector<std::pair<std::string, eppi::core::IdentityId>> pairs;
  pairs.reserve(n);
  for (std::size_t j = 0; j < n; ++j) pairs.emplace_back(name(j), ids[j]);
  const eppi::core::Lexicon lexicon(std::move(pairs));
  std::vector<std::string> probes(1 << 16);
  for (auto& probe : probes) {
    probe = name(rng.next_below(n));
    if (!present) probe.push_back('x');
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lexicon.find(probes[k]));
    k = (k + 1) & (probes.size() - 1);
  }
}
BENCHMARK(BM_LexiconFind)
    ->ArgNames({"names", "present"})
    ->ArgsProduct({{50000, 1000000}, {1, 0}});

void BM_PpiQuery(benchmark::State& state) {
  eppi::Rng rng(7);
  eppi::dataset::SyntheticConfig config;
  config.providers = 2000;
  config.identities = 200;
  const auto net = eppi::dataset::make_zipf_network(config, rng);
  const eppi::core::PpiIndex index(net.membership);
  std::uint32_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.query(j));
    j = (j + 1) % 200;
  }
}
BENCHMARK(BM_PpiQuery);

}  // namespace
