// Query-serving benchmark: the PPI server's read path.
//
// The paper motivates PPI over searchable encryption partly on query-time
// performance ("making no use of encryption during the query serving
// time"). This bench quantifies our serving tier in two parts:
//
//  1. single-thread representation comparison — QueryPPI latency for the
//     canonical matrix index vs. the posting-list form, across network
//     sizes and privacy levels (higher ε ⇒ denser index ⇒ larger answers);
//  2. concurrent serving — N reader threads against one LocatorService
//     while a writer thread continuously rebuilds and swaps epochs
//     (lock-free snapshot publication, core/epoch_snapshot.h). Readers run
//     until they have overlapped with at least `min_swaps` epoch swaps, so
//     the numbers certify reader/writer contention, not an idle index.
//     Both the single-query and the batched (query_ppi_many) paths are
//     measured;
//  3. delta vs full rebuild — twin services absorb the same small stream of
//     owner updates (<10% of identities dirty per round); one is pinned to
//     full rebuilds, the other routes through the incremental delta path
//     (dirty-column recompute + snapshot splice). The reported speedup is
//     the reason delta epochs exist.
//
// Usage: bench_serving [--smoke] [--json <path>]
//   --smoke   small sizes + fewer swaps (CI gate)
//   --json    machine-readable results (default BENCH_serving.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/constructor.h"
#include "core/locator_service.h"
#include "core/posting_index.h"
#include "dataset/synthetic.h"
#include "obs/registry.h"

namespace {

struct Timing {
  double matrix_us = 0.0;
  double posting_us = 0.0;
  double avg_answer = 0.0;
  std::size_t payload_kib = 0;
  std::size_t resident_kib = 0;
};

Timing measure(std::size_t m, std::size_t n, double eps, std::uint64_t seed) {
  eppi::Rng rng(seed);
  std::vector<std::uint64_t> freqs(n);
  for (auto& f : freqs) f = 1 + rng.next_below(m / 20 + 1);
  const auto net = eppi::dataset::make_network_with_frequencies(m, freqs, rng);
  const std::vector<double> epsilons(n, eps);
  eppi::core::ConstructionOptions options;
  options.policy = eppi::core::BetaPolicy::chernoff(0.9);
  const auto built = eppi::core::construct_centralized(net.membership,
                                                       epsilons, options, rng);
  const eppi::core::PostingIndex postings(built.index);

  constexpr int kQueries = 20000;
  Timing t;
  const auto footprint = postings.memory_footprint();
  t.payload_kib = footprint.payload_bytes / 1024;
  t.resident_kib = footprint.resident_bytes / 1024;

  std::size_t total_answer = 0;
  auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < kQueries; ++q) {
    total_answer +=
        built.index.query(static_cast<eppi::core::IdentityId>(q % n)).size();
  }
  auto stop = std::chrono::steady_clock::now();
  t.matrix_us =
      std::chrono::duration<double, std::micro>(stop - start).count() /
      kQueries;
  t.avg_answer = static_cast<double>(total_answer) / kQueries;

  start = std::chrono::steady_clock::now();
  std::size_t check = 0;
  for (int q = 0; q < kQueries; ++q) {
    check +=
        postings.query(static_cast<eppi::core::IdentityId>(q % n)).size();
  }
  stop = std::chrono::steady_clock::now();
  t.posting_us =
      std::chrono::duration<double, std::micro>(stop - start).count() /
      kQueries;
  if (check != total_answer) t.posting_us = -1.0;  // should never happen
  return t;
}

// --- concurrent serving ----------------------------------------------------

struct ServeConfig {
  std::size_t providers = 2000;
  std::size_t owners = 200;
  std::size_t min_swaps = 100;  // epoch swaps each run must overlap with
};

struct ThreadedResult {
  std::size_t threads = 0;
  std::size_t batch = 1;  // owners per query call (1 = query_ppi)
  double qps = 0.0;       // owners resolved per second, all readers
  double p50_us = 0.0;    // per-call latency (one batch = one call)
  double p99_us = 0.0;
  std::uint64_t swaps = 0;
  std::uint64_t owners_resolved = 0;
};

// A prefix and a number, appended (not `"o" + std::to_string(j)`, which
// GCC 12 flags with a false -Wrestrict in Release builds).
std::string numbered(const char* prefix, std::size_t k) {
  std::string name = prefix;
  name += std::to_string(k);
  return name;
}
std::string owner_name(std::size_t j) { return numbered("o", j); }

void populate_service(eppi::core::LocatorService& service,
                      const ServeConfig& cfg, std::uint64_t seed) {
  eppi::Rng rng(seed);
  std::vector<std::uint64_t> freqs(cfg.owners);
  for (auto& f : freqs) f = 1 + rng.next_below(cfg.providers / 20 + 1);
  const auto net = eppi::dataset::make_network_with_frequencies(
      cfg.providers, freqs, rng);
  for (std::size_t i = 0; i < cfg.providers; ++i) {
    for (std::size_t j = 0; j < cfg.owners; ++j) {
      if (net.membership.get(i, j)) {
        service.delegate(owner_name(j), 0.5, numbered("p", i));
      }
    }
  }
}

ThreadedResult run_threaded(const ServeConfig& cfg, std::size_t threads,
                            std::size_t batch, std::uint64_t seed) {
  eppi::core::LocatorService::Options options;
  options.distributed = false;
  options.policy = eppi::core::BetaPolicy::chernoff(0.9);
  options.seed = seed;
  // Pin the writer to FULL rebuilds: this part measures reader/writer
  // contention across whole-epoch swaps, and a delta rebuild of the one
  // toggled owner is so fast the writer would hit min_swaps before the
  // readers issue a single query. Part 3 measures the delta path itself.
  options.enable_delta = false;
  eppi::core::LocatorService service(options);  // fresh metrics per run
  populate_service(service, cfg, seed);
  service.construct_ppi();

  std::atomic<std::uint64_t> swaps{0};
  std::atomic<std::size_t> readers_running{threads};
  std::vector<std::string> names;
  for (std::size_t j = 0; j < cfg.owners; ++j) names.push_back(owner_name(j));

  // Writer: toggle one owner's ε so every swap publishes real churn, and
  // keep swapping until the last reader is done (readers in turn run until
  // they have overlapped with min_swaps swaps — contention is guaranteed).
  std::thread writer([&] {
    std::size_t k = 0;
    while (readers_running.load(std::memory_order_acquire) > 0) {
      service.delegate(owner_name(0), (k++ % 2 == 0) ? 0.9 : 0.1, "p0");
      service.construct_ppi();
      swaps.fetch_add(1, std::memory_order_release);
    }
  });

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < threads; ++r) {
    readers.emplace_back([&, r] {
      std::size_t j = r;
      std::vector<std::string> owners(batch);
      while (swaps.load(std::memory_order_acquire) < cfg.min_swaps) {
        if (batch == 1) {
          (void)service.query_ppi(names[j % cfg.owners]);
        } else {
          for (std::size_t b = 0; b < batch; ++b) {
            owners[b] = names[(j + b) % cfg.owners];
          }
          (void)service.query_ppi_many(owners);
        }
        j += batch;
      }
      readers_running.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& t : readers) t.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  writer.join();

  const auto metrics = service.metrics();
  ThreadedResult result;
  result.threads = threads;
  result.batch = batch;
  result.owners_resolved = metrics.owners_resolved;
  result.qps = static_cast<double>(metrics.owners_resolved) / seconds;
  result.p50_us = metrics.latency.quantile(0.5);
  result.p99_us = metrics.latency.quantile(0.99);
  result.swaps = metrics.epoch_swaps;
  return result;
}

// --- delta vs full rebuild -------------------------------------------------

struct RebuildResult {
  std::size_t providers = 0;
  std::size_t owners = 0;
  std::size_t dirty = 0;       // owners touched per round
  double full_us = 0.0;        // mean construct_ppi, full path
  double delta_us = 0.0;       // mean construct_ppi, delta path
  double speedup = 0.0;
};

RebuildResult run_rebuild(std::size_t providers, std::size_t owners,
                          std::size_t dirty, std::size_t rounds,
                          std::uint64_t seed) {
  const auto make = [&](bool enable_delta) {
    eppi::core::LocatorService::Options options;
    options.distributed = false;
    options.policy = eppi::core::BetaPolicy::chernoff(0.9);
    options.seed = seed;
    options.enable_delta = enable_delta;
    auto service = std::make_unique<eppi::core::LocatorService>(options);
    ServeConfig cfg;
    cfg.providers = providers;
    cfg.owners = owners;
    populate_service(*service, cfg, seed);
    // Make sure the provider receiving the per-round updates exists from
    // epoch 1 on — registering it later would be membership churn, which
    // forces the delta protocol even on the full-rebuild twin.
    service->delegate(owner_name(0), 0.5, "p0");
    service->construct_ppi();  // epoch 1: both twins pay the full build
    return service;
  };
  auto full = make(false);
  auto delta = make(true);

  RebuildResult r;
  r.providers = providers;
  r.owners = owners;
  r.dirty = dirty;
  double full_total = 0.0;
  double delta_total = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Same sliding window of owner updates fed to both twins.
    const double eps = (round % 2 == 0) ? 0.9 : 0.1;
    for (std::size_t k = 0; k < dirty; ++k) {
      const std::string owner = owner_name((round * dirty + k) % owners);
      full->delegate(owner, eps, "p0");
      delta->delegate(owner, eps, "p0");
    }
    const auto t0 = std::chrono::steady_clock::now();
    full->construct_ppi();
    const auto t1 = std::chrono::steady_clock::now();
    delta->construct_ppi();
    const auto t2 = std::chrono::steady_clock::now();
    full_total += std::chrono::duration<double, std::micro>(t1 - t0).count();
    delta_total += std::chrono::duration<double, std::micro>(t2 - t1).count();
    if (!delta->last_rebuild().delta || full->last_rebuild().delta) {
      std::cerr << "rebuild bench: unexpected rebuild routing (delta twin="
                << delta->last_rebuild().delta
                << " full twin=" << full->last_rebuild().delta
                << " dirty=" << delta->last_rebuild().dirty << ")\n";
      std::exit(1);
    }
  }
  r.full_us = full_total / static_cast<double>(rounds);
  r.delta_us = delta_total / static_cast<double>(rounds);
  r.speedup = r.delta_us > 0.0 ? r.full_us / r.delta_us : 0.0;
  return r;
}

// --- million-owner scale: compressed vs dense --------------------------------

// The tentpole claim of the compressed index: at locator-service scale
// (10^6 owner identities, most claimed by a handful of providers) the
// per-row codec storage beats the dense bit matrix by a wide margin while
// queries stay flat. The workload is the paper's: almost every identity is
// sparse (1-8 providers), with ~2% "celebrity" identities dense enough to
// flip the per-row chooser to the bitvector codec.
struct ScaleResult {
  std::size_t providers = 0;
  std::size_t identities = 0;
  double build_ms = 0.0;       // posting lists -> compressed sharded index
  double dense_us = 0.0;       // per query: dense matrix column scan
  double compressed_us = 0.0;  // per query: PostingIndex::query_into
  std::size_t dense_matrix_kib = 0;
  std::size_t payload_kib = 0;
  std::size_t resident_kib = 0;
  double memory_reduction_x = 0.0;  // dense matrix bytes / resident bytes
};

ScaleResult run_scale(std::size_t m, std::size_t n, std::size_t queries,
                      std::uint64_t seed) {
  eppi::Rng rng(seed);
  std::vector<std::vector<eppi::core::ProviderId>> lists(n);
  for (std::size_t j = 0; j < n; ++j) {
    auto& list = lists[j];
    if (rng.bernoulli(0.02)) {  // celebrity: ~half the providers claim it
      for (std::size_t i = 0; i < m; ++i) {
        if (rng.bernoulli(0.5)) {
          list.push_back(static_cast<eppi::core::ProviderId>(i));
        }
      }
    } else {  // long tail: 1-8 distinct providers
      const std::size_t k = 1 + rng.next_below(8);
      for (std::size_t c = 0; c < k; ++c) {
        list.push_back(static_cast<eppi::core::ProviderId>(rng.next_below(m)));
      }
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }

  ScaleResult r;
  r.providers = m;
  r.identities = n;

  const auto b0 = std::chrono::steady_clock::now();
  const eppi::core::PostingIndex compressed(m, lists);
  const auto b1 = std::chrono::steady_clock::now();
  r.build_ms = std::chrono::duration<double, std::milli>(b1 - b0).count();

  // The dense strawman the compressed index replaces. Built here only for
  // the side-by-side — nothing on the serving or replay path does this.
  eppi::BitMatrix dense(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (const auto i : lists[j]) dense.set(i, j, true);
  }

  std::vector<eppi::core::IdentityId> probe(queries);
  for (auto& id : probe) {
    id = static_cast<eppi::core::IdentityId>(rng.next_below(n));
  }

  std::vector<eppi::core::ProviderId> out;
  out.reserve(m);
  std::size_t dense_total = 0;
  auto start = std::chrono::steady_clock::now();
  for (const auto id : probe) {
    out.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (dense.get(i, id)) {
        out.push_back(static_cast<eppi::core::ProviderId>(i));
      }
    }
    dense_total += out.size();
  }
  auto stop = std::chrono::steady_clock::now();
  r.dense_us =
      std::chrono::duration<double, std::micro>(stop - start).count() /
      static_cast<double>(queries);

  std::size_t compressed_total = 0;
  start = std::chrono::steady_clock::now();
  for (const auto id : probe) {
    compressed.query_into(id, out);
    compressed_total += out.size();
  }
  stop = std::chrono::steady_clock::now();
  r.compressed_us =
      std::chrono::duration<double, std::micro>(stop - start).count() /
      static_cast<double>(queries);
  if (compressed_total != dense_total) {
    std::cerr << "scale bench: representations disagree ("
              << compressed_total << " vs " << dense_total << ")\n";
    std::exit(1);
  }

  const std::size_t dense_bytes = ((m * n) + 7) / 8;
  const auto fp = compressed.memory_footprint();
  r.dense_matrix_kib = dense_bytes / 1024;
  r.payload_kib = fp.payload_bytes / 1024;
  r.resident_kib = fp.resident_bytes / 1024;
  r.memory_reduction_x = fp.resident_bytes > 0
                             ? static_cast<double>(dense_bytes) /
                                   static_cast<double>(fp.resident_bytes)
                             : 0.0;
  return r;
}

void write_json(const std::string& path, const ServeConfig& cfg,
                const std::vector<Timing>& single,
                const std::vector<std::size_t>& single_m,
                const std::vector<double>& single_eps,
                const std::vector<ThreadedResult>& threaded,
                const std::vector<RebuildResult>& rebuilds,
                const std::vector<ScaleResult>& scales) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"serving\",\n";
  out << "  \"build\": " << eppi::bench::build_info_json() << ",\n";
  out << "  \"config\": {\"providers\": " << cfg.providers
      << ", \"owners\": " << cfg.owners
      << ", \"min_swaps\": " << cfg.min_swaps << "},\n";
  out << "  \"single_thread\": [\n";
  for (std::size_t k = 0; k < single.size(); ++k) {
    const auto& t = single[k];
    out << "    {\"providers\": " << single_m[k]
        << ", \"epsilon\": " << single_eps[k]
        << ", \"matrix_us\": " << t.matrix_us
        << ", \"posting_us\": " << t.posting_us
        << ", \"avg_answer\": " << t.avg_answer
        << ", \"payload_kib\": " << t.payload_kib
        << ", \"resident_kib\": " << t.resident_kib << "}"
        << (k + 1 < single.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"threaded\": [\n";
  for (std::size_t k = 0; k < threaded.size(); ++k) {
    const auto& t = threaded[k];
    out << "    {\"threads\": " << t.threads << ", \"batch\": " << t.batch
        << ", \"qps\": " << t.qps << ", \"p50_us\": " << t.p50_us
        << ", \"p99_us\": " << t.p99_us << ", \"epoch_swaps\": " << t.swaps
        << ", \"owners_resolved\": " << t.owners_resolved << "}"
        << (k + 1 < threaded.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"rebuild\": [\n";
  for (std::size_t k = 0; k < rebuilds.size(); ++k) {
    const auto& r = rebuilds[k];
    out << "    {\"providers\": " << r.providers << ", \"owners\": "
        << r.owners << ", \"dirty\": " << r.dirty
        << ", \"full_us\": " << r.full_us << ", \"delta_us\": " << r.delta_us
        << ", \"speedup\": " << r.speedup << "}"
        << (k + 1 < rebuilds.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"million_scale\": [\n";
  for (std::size_t k = 0; k < scales.size(); ++k) {
    const auto& s = scales[k];
    out << "    {\"providers\": " << s.providers
        << ", \"identities\": " << s.identities
        << ", \"build_ms\": " << s.build_ms
        << ", \"dense_us\": " << s.dense_us
        << ", \"compressed_us\": " << s.compressed_us
        << ", \"dense_matrix_kib\": " << s.dense_matrix_kib
        << ", \"payload_kib\": " << s.payload_kib
        << ", \"resident_kib\": " << s.resident_kib
        << ", \"memory_reduction_x\": " << s.memory_reduction_x << "}"
        << (k + 1 < scales.size() ? "," : "") << '\n';
  }
  // Full metrics-registry snapshot: every LocatorService this process
  // created (one per run_threaded call, distinct `instance` labels),
  // so regressions in counters are diffable alongside the latency numbers.
  out << "  ],\n  \"metrics\": "
      << eppi::obs::Registry::global().render_json() << "\n}\n";
  std::cerr << "wrote " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_serving.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else {
      std::cerr << "usage: bench_serving [--smoke] [--json <path>]\n";
      return 2;
    }
  }

  // Part 1: representation comparison (single thread).
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{500}
            : std::vector<std::size_t>{1000, 5000, 20000};
  const std::vector<double> eps_levels{0.3, 0.8};
  eppi::bench::ResultTable table({"providers", "epsilon", "avg-answer",
                                  "matrix-us/q", "posting-us/q",
                                  "payload-KiB", "resident-KiB"});
  std::vector<Timing> single;
  std::vector<std::size_t> single_m;
  std::vector<double> single_eps;
  for (const std::size_t m : sizes) {
    for (const double eps : eps_levels) {
      const Timing t = measure(m, 100, eps, m + 17);
      single.push_back(t);
      single_m.push_back(m);
      single_eps.push_back(eps);
      table.add_row({std::to_string(m), eppi::bench::fmt(eps, 1),
                     eppi::bench::fmt(t.avg_answer, 1),
                     eppi::bench::fmt(t.matrix_us, 2),
                     eppi::bench::fmt(t.posting_us, 3),
                     std::to_string(t.payload_kib),
                     std::to_string(t.resident_kib)});
    }
  }
  table.print("Query serving: matrix scan vs posting lists");

  // Part 2: concurrent serving under continuous epoch swaps.
  ServeConfig cfg;
  if (smoke) {
    cfg.providers = 300;
    cfg.owners = 60;
    cfg.min_swaps = 12;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<std::size_t> ladder{1, 2, 4};
  if (hw > 4) ladder.push_back(hw);
  if (smoke) ladder = {1, 2};

  eppi::bench::ResultTable serving({"threads", "batch", "owners/s", "p50-us",
                                    "p99-us", "epoch-swaps"});
  std::vector<ThreadedResult> threaded;
  for (const std::size_t threads : ladder) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      const ThreadedResult r = run_threaded(cfg, threads, batch, 99);
      threaded.push_back(r);
      serving.add_row({std::to_string(r.threads), std::to_string(r.batch),
                       eppi::bench::fmt(r.qps, 0),
                       eppi::bench::fmt(r.p50_us, 1),
                       eppi::bench::fmt(r.p99_us, 1),
                       std::to_string(r.swaps)});
    }
  }
  serving.print("Concurrent serving: readers vs continuous rebuild/swap");

  // Part 3: incremental (delta) vs full epoch rebuild under small churn.
  std::vector<RebuildResult> rebuilds;
  eppi::bench::ResultTable rebuild_table({"providers", "owners", "dirty",
                                          "full-us", "delta-us", "speedup"});
  const std::vector<std::pair<std::size_t, std::size_t>> shapes =
      smoke ? std::vector<std::pair<std::size_t, std::size_t>>{{300, 60}}
            : std::vector<std::pair<std::size_t, std::size_t>>{{500, 100},
                                                               {2000, 200}};
  const std::size_t rebuild_rounds = smoke ? 4 : 6;
  for (const auto& [m, n] : shapes) {
    // Keep the dirty fraction under the service's 10% delta gate.
    const RebuildResult r =
        run_rebuild(m, n, n / 25 + 1, rebuild_rounds, 4242);
    rebuilds.push_back(r);
    rebuild_table.add_row({std::to_string(r.providers),
                           std::to_string(r.owners), std::to_string(r.dirty),
                           eppi::bench::fmt(r.full_us, 0),
                           eppi::bench::fmt(r.delta_us, 0),
                           eppi::bench::fmt(r.speedup, 1)});
  }
  rebuild_table.print("Epoch rebuild: full vs delta (dirty < 10%)");

  // Part 4: million-owner scale — compressed sharded index vs dense matrix.
  const std::size_t scale_m = smoke ? 500 : 1000;
  const std::size_t scale_n = smoke ? 100'000 : 1'000'000;
  const std::size_t scale_q = smoke ? 2000 : 20000;
  std::vector<ScaleResult> scales{run_scale(scale_m, scale_n, scale_q, 77)};
  eppi::bench::ResultTable scale_table(
      {"providers", "identities", "build-ms", "dense-us/q", "compressed-us/q",
       "dense-KiB", "resident-KiB", "reduction"});
  for (const auto& s : scales) {
    scale_table.add_row(
        {std::to_string(s.providers), std::to_string(s.identities),
         eppi::bench::fmt(s.build_ms, 0), eppi::bench::fmt(s.dense_us, 2),
         eppi::bench::fmt(s.compressed_us, 3),
         std::to_string(s.dense_matrix_kib), std::to_string(s.resident_kib),
         "x" + eppi::bench::fmt(s.memory_reduction_x, 1)});
  }
  scale_table.print("Million-owner scale: compressed index vs dense matrix");
  // The acceptance floor for the compressed representation on the sparse
  // locator workload. Deterministic (seeded), so a failure is a real
  // storage regression, not noise.
  if (scales.front().memory_reduction_x < 4.0) {
    std::cerr << "scale bench: memory reduction x"
              << scales.front().memory_reduction_x << " below the 4x floor\n";
    return 1;
  }

  const double base = threaded.front().qps;
  const double best = [&] {
    double b = 0.0;
    for (const auto& r : threaded) {
      if (r.batch == 1 && r.qps > b) b = r.qps;
    }
    return b;
  }();
  std::cout << "\nReaders are wait-free across epoch swaps (lock-free "
               "snapshot publication);\nbest single-query scaling over 1 "
               "thread: x" << eppi::bench::fmt(base > 0 ? best / base : 0, 2)
            << " on " << hw << " hardware threads. Batched calls amortize "
               "the snapshot\nacquisition and name resolution.\n";

  write_json(json_path, cfg, single, single_m, single_eps, threaded,
             rebuilds, scales);
  return 0;
}
