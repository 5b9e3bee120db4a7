// Concurrency harness for the epoch-snapshot serving tier (label
// `concurrency`; run under the TSan preset by scripts/check.sh and CI).
//
// The contract under test (core/epoch_snapshot.h): any number of reader
// threads run QueryPPI wait-free while ONE writer thread rebuilds epochs and
// recovers from a durable store, committing each epoch with a single atomic
// snapshot swap. Readers must never observe a torn epoch: every answer
// equals the answer of SOME published epoch in its entirety — and because
// sticky publication makes each epoch a pure function of (membership, ε,
// master key), the writer's ε-toggle produces exactly TWO possible answer
// maps, so the metamorphic check is set membership, not a tautology.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/epoch_store.h"
#include "core/locator_service.h"
#include "storage/mem_vfs.h"

namespace eppi::core {
namespace {

constexpr double kLowEps = 0.05;
constexpr double kHighEps = 0.95;
constexpr std::size_t kProviders = 12;
constexpr std::size_t kOwners = 30;

// A prefix and a number, appended (not `"o" + std::to_string(j)`, which
// GCC 12 flags with a false -Wrestrict in Release builds).
std::string numbered(const char* prefix, std::size_t k) {
  std::string name = prefix;
  name += std::to_string(k);
  return name;
}
std::string owner_name(std::size_t j) { return numbered("o", j); }
std::string provider_name(std::size_t i) { return numbered("p", i); }

LocatorService::Options serve_options() {
  LocatorService::Options options;
  options.distributed = false;  // rebuild cost stays in the writer loop
  options.policy = BetaPolicy::chernoff(0.9);
  options.seed = 42;
  return options;
}

// Every owner delegates to two fixed providers; owner 0's ε is the toggle.
void populate(LocatorService& service, double toggle_eps) {
  for (std::size_t j = 0; j < kOwners; ++j) {
    const double eps = j == 0 ? toggle_eps : 0.4;
    service.delegate(owner_name(j), eps, provider_name(j % kProviders));
    service.delegate(owner_name(j), eps,
                     provider_name((3 * j + 5) % kProviders));
  }
}

// The two possible epoch contents, precomputed single-threaded on a twin
// service (same seed ⇒ same sticky randomness ⇒ identical epochs).
struct TwoStates {
  std::vector<std::vector<std::string>> low;   // answers, indexed by owner
  std::vector<std::vector<std::string>> high;
};

std::vector<std::string> all_owner_names() {
  std::vector<std::string> names;
  for (std::size_t j = 0; j < kOwners; ++j) names.push_back(owner_name(j));
  return names;
}

TwoStates expected_states() {
  LocatorService twin{serve_options()};
  populate(twin, kLowEps);
  twin.construct_ppi();
  TwoStates s;
  const auto owners = all_owner_names();
  s.low = twin.query_ppi_many(owners).providers;
  twin.delegate(owner_name(0), kHighEps, provider_name(0));
  twin.construct_ppi();
  s.high = twin.query_ppi_many(owners).providers;
  return s;
}

// Reader-thread bodies propagate failures via exception_ptr — EXPECT_* from
// a non-main thread would race on gtest internals.
void run_threads(const std::vector<std::function<void()>>& bodies) {
  std::vector<std::exception_ptr> errors(bodies.size());
  std::vector<std::thread> threads;
  threads.reserve(bodies.size());
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    threads.emplace_back([&, k] {
      try {
        bodies[k]();
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// The writers below start swapping only once each reader has answered
// once, so reads overlap the swaps even when a loaded host would run the
// writer to completion before any reader is scheduled.
void wait_for_readers(const std::atomic<std::size_t>& reading,
                      std::size_t readers) {
  while (reading.load(std::memory_order_acquire) < readers) {
    std::this_thread::yield();
  }
}

// N readers hammer single queries while the writer swaps >= 100 epochs;
// every answer must match one of the two reachable epochs, epochs may never
// run backwards for any single reader, and no reader may ever be
// interrupted (throw) by a swap.
TEST(ServingConcurrencyTest, ReadersUninterruptedAcrossEpochSwaps) {
  const TwoStates expect = expected_states();
  ASSERT_NE(expect.low[0], expect.high[0]) << "toggle must change epoch 0";

  LocatorService service{serve_options()};
  populate(service, kLowEps);
  service.construct_ppi();

  constexpr std::size_t kSwaps = 120;
  constexpr std::size_t kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::size_t> reading{0};

  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {  // writer
    wait_for_readers(reading, kReaders);
    for (std::size_t k = 0; k < kSwaps; ++k) {
      const double eps = (k % 2 == 0) ? kHighEps : kLowEps;
      service.delegate(owner_name(0), eps, provider_name(0));
      service.construct_ppi();
    }
    done.store(true, std::memory_order_release);
  });
  for (std::size_t r = 0; r < kReaders; ++r) {
    bodies.push_back([&, r] {
      std::uint64_t last_epoch = 0;
      std::size_t j = r;
      bool first = true;
      do {
        j = (j + 1) % kOwners;
        const auto result = service.query_ppi_with_status(owner_name(j));
        require(result.providers == expect.low[j] ||
                    result.providers == expect.high[j],
                "answer matches neither reachable epoch");
        require(result.epoch >= last_epoch, "epoch ran backwards");
        require(!result.degraded, "centralized rebuilds never degrade");
        last_epoch = result.epoch;
        answered.fetch_add(1, std::memory_order_relaxed);
        if (first) reading.fetch_add(1, std::memory_order_release);
        first = false;
      } while (!done.load(std::memory_order_acquire));
    });
  }
  run_threads(bodies);

  EXPECT_GE(service.metrics().epoch_swaps, kSwaps + 1);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(service.metrics().unknown_owners, 0u);
  // The final epoch is deterministic: initial build + kSwaps rebuilds.
  EXPECT_EQ(service.query_ppi_with_status(owner_name(0)).epoch, kSwaps + 1);
}

// Same reader contract, but with the incremental path PINNED on: every swap
// after the first must be a delta splice (the writer checks last_rebuild()
// each round), so readers are provably uninterrupted across 100+ spliced
// snapshot publishes — the splice constructor shares no memory with the
// snapshot it copies from, and TSan watches that claim here.
TEST(ServingConcurrencyTest, ReadersUninterruptedAcrossDeltaSplices) {
  const TwoStates expect = expected_states();
  LocatorService service{serve_options()};
  populate(service, kLowEps);
  service.construct_ppi();

  constexpr std::size_t kSplices = 100;
  constexpr std::size_t kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::size_t> reading{0};

  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {  // writer
    wait_for_readers(reading, kReaders);
    for (std::size_t k = 0; k < kSplices; ++k) {
      const double eps = (k % 2 == 0) ? kHighEps : kLowEps;
      service.delegate(owner_name(0), eps, provider_name(0));
      service.construct_ppi();
      require(service.last_rebuild().delta,
              "delta path must engage for a one-owner touch");
    }
    done.store(true, std::memory_order_release);
  });
  for (std::size_t r = 0; r < kReaders; ++r) {
    bodies.push_back([&, r] {
      std::size_t j = r;
      bool first = true;
      do {
        j = (j + 1) % kOwners;
        const auto result = service.query_ppi_with_status(owner_name(j));
        require(result.providers == expect.low[j] ||
                    result.providers == expect.high[j],
                "answer matches neither reachable epoch");
        answered.fetch_add(1, std::memory_order_relaxed);
        if (first) reading.fetch_add(1, std::memory_order_release);
        first = false;
      } while (!done.load(std::memory_order_acquire));
    });
  }
  run_threads(bodies);
  EXPECT_GE(service.metrics().epoch_swaps, kSplices + 1);
  EXPECT_GT(answered.load(), 0u);
}

// Metamorphic snapshot consistency for the batched path: a batch resolved
// mid-swap must be answered entirely from one epoch — its answers equal one
// state's answer map as a whole, never a mix of both.
TEST(ServingConcurrencyTest, BatchNeverMixesEpochs) {
  const TwoStates expect = expected_states();
  LocatorService service{serve_options()};
  populate(service, kLowEps);
  service.construct_ppi();

  const auto owners = all_owner_names();
  constexpr std::size_t kSwaps = 100;
  constexpr std::size_t kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reading{0};

  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {  // writer
    wait_for_readers(reading, kReaders);
    for (std::size_t k = 0; k < kSwaps; ++k) {
      const double eps = (k % 2 == 0) ? kHighEps : kLowEps;
      service.delegate(owner_name(0), eps, provider_name(0));
      service.construct_ppi();
    }
    done.store(true, std::memory_order_release);
  });
  for (std::size_t r = 0; r < kReaders; ++r) {
    bodies.push_back([&] {
      bool first = true;
      do {
        const auto batch = service.query_ppi_many(owners);
        const bool is_low = batch.providers == expect.low;
        const bool is_high = batch.providers == expect.high;
        require(is_low || is_high, "batch mixed answers from two epochs");
        // The writer alternates high/low starting at epoch 2, so the
        // batch's own epoch label pins WHICH state it must equal.
        const bool epoch_says_low = batch.epoch % 2 == 1;
        require(is_low == epoch_says_low,
                "batch label and content disagree");
        // Batched and single answers from one snapshot acquisition agree.
        require(batch.providers.size() == owners.size(),
                "batch answer count mismatch");
        if (first) reading.fetch_add(1, std::memory_order_release);
        first = false;
      } while (!done.load(std::memory_order_acquire));
    });
  }
  run_threads(bodies);
  EXPECT_GE(service.metrics().batches, 1u);
}

// The writer interleaves rebuilds with attach_store recoveries (re-opening
// the durable store and republishing its newest committed epoch) while
// readers keep querying: recovery must look like any other swap.
TEST(ServingConcurrencyTest, AttachStoreRecoveryUnderReaders) {
  const TwoStates expect = expected_states();
  eppi::storage::MemVfs vfs;
  LocatorService service{serve_options()};
  populate(service, kLowEps);
  std::vector<std::unique_ptr<EpochStore>> stores;
  stores.push_back(std::make_unique<EpochStore>(vfs, "store"));
  service.attach_store(*stores.back());
  service.construct_ppi();

  constexpr std::size_t kRounds = 60;
  std::atomic<bool> done{false};

  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {  // writer: rebuild, rebuild, recover, repeat
    for (std::size_t k = 0; k < kRounds; ++k) {
      if (k % 3 == 2) {
        stores.push_back(std::make_unique<EpochStore>(vfs, "store"));
        service.attach_store(*stores.back());
      } else {
        const double eps = (k % 2 == 0) ? kHighEps : kLowEps;
        service.delegate(owner_name(0), eps, provider_name(0));
        service.construct_ppi();
      }
    }
    done.store(true, std::memory_order_release);
  });
  for (std::size_t r = 0; r < 2; ++r) {
    bodies.push_back([&, r] {
      std::uint64_t last_epoch = 0;
      std::size_t j = r;
      while (!done.load(std::memory_order_acquire)) {
        j = (j + 1) % kOwners;
        const auto result = service.query_ppi_with_status(owner_name(j));
        require(result.providers == expect.low[j] ||
                    result.providers == expect.high[j],
                "answer matches neither reachable epoch");
        require(result.epoch >= last_epoch, "epoch ran backwards");
        last_epoch = result.epoch;
        require(service.serving_status().serving,
                "service went dark during recovery");
      }
    });
  }
  run_threads(bodies);
  EXPECT_TRUE(service.serving_status().serving);
}

// The lock-free metrics must not lose counts under contention: with a fixed
// per-thread workload the totals are exact, not approximate.
TEST(ServingConcurrencyTest, MetricsAreExactAcrossThreads) {
  LocatorService service{serve_options()};
  populate(service, kLowEps);
  service.construct_ppi();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSingles = 400;
  constexpr std::size_t kBatches = 150;
  const std::vector<std::string> batch{owner_name(1), owner_name(2),
                                       owner_name(3)};

  std::vector<std::function<void()>> bodies;
  for (std::size_t r = 0; r < kThreads; ++r) {
    bodies.push_back([&, r] {
      for (std::size_t q = 0; q < kSingles; ++q) {
        (void)service.query_ppi(owner_name((r + q) % kOwners));
      }
      for (std::size_t b = 0; b < kBatches; ++b) {
        (void)service.query_ppi_many(batch);
      }
    });
  }
  run_threads(bodies);

  const auto snap = service.metrics();
  EXPECT_EQ(snap.queries, kThreads * kSingles);
  EXPECT_EQ(snap.batches, kThreads * kBatches);
  EXPECT_EQ(snap.owners_resolved,
            kThreads * (kSingles + kBatches * batch.size()));
  EXPECT_EQ(snap.latency.total, kThreads * (kSingles + kBatches));
  EXPECT_EQ(snap.unknown_owners, 0u);
}

}  // namespace
}  // namespace eppi::core
