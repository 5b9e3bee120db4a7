// bench_e2e — the end-to-end and per-layer benchmark of the ε-PPI locator.
//
// Drives the real system from outside, checks every answer it gets, and
// prints one JSON object as the last line of stdout:
//
//   bench_e2e --workload W --seed S --seconds T --trace 0|1
//             --cli <eppi_cli> --work <scratch dir>
//
// Workloads (bench/e2e/README.md gives the reason for each):
//   lookup_batch  POST /query, 256 uniform owners per request, rate ladder
//   churn         batched reads at a fixed rate beside a writer that
//                 delegates 20 new facts and rebuilds, in a loop
//   construct_m4  the distributed construction by 4 party processes over
//                 loopback, each repetition on a fresh mesh
//
// Lookup and churn run against `eppi_cli serve --listen 0`; construct_m4
// re-executes this binary as `bench_e2e --party I ...`. Every input comes
// from the seed and reaches the programs as generated files only. With
// --trace 0 the JSON carries the end-to-end metrics, with --trace 1 the
// per-layer ones (daemon /trace spans, party phase spans, and in-process
// replicas of each layer on the same generated inputs). A wrong answer
// makes "correct" false and the exit code 1.
#include <fcntl.h>
#include <limits.h>
#include <signal.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench_util.h"
#include "common/bit_matrix.h"
#include "common/rng.h"
#include "core/beta_policy.h"
#include "core/construction_party.h"
#include "core/distributed_constructor.h"
#include "core/lexicon.h"
#include "core/locator_service.h"
#include "core/posting_index.h"
#include "dataset/collection_table.h"
#include "http_load.h"
#include "mpc/eppi_circuits.h"
#include "net/mini_http.h"
#include "net/socket_transport.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_json.h"
#include "process.h"
#include "runner.h"
#include "secret/sec_sum_share.h"

namespace {

using Clock = std::chrono::steady_clock;
using eppi::bench::Child;
using eppi::bench::http_call;
using eppi::bench::http_get;
using eppi::bench::http_post;
using eppi::bench::LoadResult;
using eppi::bench::LoadSpec;
using eppi::bench::Stats;
using eppi::bench::summarize;
using LayerValues = std::map<std::string, double>;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// --------------------------------------------------------------- shapes

// Daemon collection: 2% "celebrity" owners claimed by about half the
// providers, the rest by 1-8. At n = 50k the served index plus lexicon
// (about 2.3 MB) outgrows a 2 MiB per-core L2, while one daemon set-up
// stays near 3 s, so three set-ups fit in a run.
constexpr std::size_t kDaemonProviders = 1000;
constexpr std::size_t kDaemonOwners = 50000;
constexpr double kCelebrityShare = 0.02;
constexpr double kDaemonEps = 0.6;
// construct_m4: 4 providers, each owner held by 1-3, ε uniform in
// [0.3, 0.7], c = 2 coordinators, fault tolerance with reliable delivery.
constexpr std::size_t kParties = 4;
constexpr std::size_t kCoordinators = 2;
constexpr std::size_t kConstructOwners = 50000;

constexpr std::size_t kBatchOwners = 256;
constexpr std::size_t kCheckEvery = 16;  // batch answers verified
constexpr std::size_t kChurnFacts = 20;
constexpr double kChurnReadRate = 200.0;
constexpr std::size_t kSetupRepeats = 3;
// Connections in flight at most: one generator thread each, within the
// reference host's nproc.
constexpr std::size_t kLoadThreads = 4;

struct Ladder {
  std::vector<double> rates;  // ascending; the warm-up runs at the top one
  double reference;
  double slo_ms;  // on p99
};
const Ladder kBatchLadder{{200.0, 400.0, 800.0}, 400.0, 20.0};
// Load runs in short segments, each with fresh generator threads: the ladder
// interleaves its rates segment by segment, and churn's reads run segment
// after segment. On a shared host, latency at this scale moves by tens of
// percent between scheduler states that last a fraction of a second, so a
// run samples many states at every rate instead of a few long ones.
constexpr double kSegmentSeconds = 0.25;
// End-to-end latency is summarised over groups of this many consecutive
// requests (runner.h `grouped`). The tail is the p90, with 20 samples
// beyond it in a group of 200: in the same runs the p95 spread across runs
// was 1.7 times the p90's, and reached 0.24 in a noisy pass.
constexpr std::size_t kLatencyGroup = 200;
constexpr double kTailQuantile = 0.90;
// The HTTP-layer probe (bench-owned server, constant body).
constexpr double kProbeSeconds = 3.0;
constexpr double kProbeRate = 1000.0;  // construct_m4 has no rate of its own

// ------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json (run.py checks the names).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"}, {"rss_mib", "MiB"}};

constexpr MetricDef kPerLayer[] = {
    {"net.http.rtt_us_p50", "us"},
    {"net.http.rtt_us_p99", "us"},
    {"net.http.rss_kib_per_kreq", "KiB"},
    {"gen.late_us_p99", "us"},
    {"net.mesh_ms", "ms"},
    {"net.wire_kib_per_party", "KiB"},
    {"net.messages_per_party", "count"},
    {"net.rounds", "count"},
    {"net.retransmits", "count"},
    {"core.locator.query_many_us_p50", "us"},
    {"core.locator.query_many_us_p99", "us"},
    {"core.lexicon.find_ns", "ns"},
    {"core.posting.query_into_ns", "ns"},
    {"core.lookup.answer_providers_mean", "count"},
    {"core.lookup.response_kib_mean", "KiB"},
    {"core.index.resident_mib", "MiB"},
    {"core.lexicon.mib", "MiB"},
    {"dataset.load_csv_s", "s"},
    {"core.delegate_all_s", "s"},
    {"core.construct_full_s", "s"},
    {"core.rebuild.total_ms", "ms"},
    {"core.rebuild.build_ms", "ms"},
    {"core.rebuild.delta_ms", "ms"},
    {"core.rebuild.publish_ms", "ms"},
    {"core.rebuild.unattributed_ms", "ms"},
    {"core.rebuild.dirty", "count"},
    {"core.rebuild.churn_cells", "count"},
    {"core.rebuild.delta_share", "ratio"},
    {"secret.secsum_ms", "ms"},
    {"secret.secsum_attempts", "count"},
    {"mpc.circuit_build_ms", "ms"},
    {"mpc.count_below_ms", "ms"},
    {"mpc.mix_reveal_ms", "ms"},
    {"mpc.and_gates", "count"},
    {"mpc.and_depth", "count"},
    {"core.broadcast_ms", "ms"},
    {"core.publish_ms", "ms"},
    {"construct.unattributed_ms", "ms"},
    {"trace.e2e_p50_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.dropped", "count"},
    {"e2e.unattributed_pct", "%"},
};

// What a run accumulates besides its metrics: operations attempted and
// failed, and every wrong answer seen.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void count(const LoadResult& r, const char* what) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.wrong != 0) {
      errors.push_back(std::string(what) + ": " + std::to_string(r.wrong) +
                       " wrong answer(s)");
    }
  }
  void error(std::string what) { errors.push_back(std::move(what)); }
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string result_json(const Outcome& outcome, const LayerValues& values,
                        std::span<const MetricDef> defs) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.errors.empty() ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(outcome.attempted, 1)
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not measured: ") +
                             defs[i].name);
    }
    out << (i == 0 ? "" : ", ") << '"' << defs[i].name
        << "\": {\"value\": " << format_number(it->second)
        << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------- generated inputs

std::string provider_name(std::size_t p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "prov%04zu", p);
  return buf;
}

std::string owner_name(std::size_t j) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "owner%06zu", j);
  return buf;
}

struct Collection {
  std::size_t m = 0;
  std::size_t n = 0;
  std::vector<std::vector<std::uint32_t>> holders;  // per owner, sorted
  std::vector<double> eps;  // per owner
  std::vector<std::uint32_t> regular;  // non-celebrity owners

  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t j = 0; j < n; ++j) {
      const std::string owner = owner_name(j);
      for (const auto p : holders[j]) {
        out << provider_name(p) << ',' << owner << '\n';
      }
    }
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  std::size_t facts() const {
    std::size_t f = 0;
    for (const auto& h : holders) f += h.size();
    return f;
  }
};

// Each owner draws a holder count, then that many distinct providers by a
// partial Fisher-Yates shuffle of one persistent permutation.
Collection make_collection(std::uint64_t seed, std::size_t m, std::size_t n,
                           double celebrity_share, std::size_t min_k,
                           std::size_t max_k, double eps_lo, double eps_hi) {
  eppi::Rng rng(seed * 0x9E3779B97F4A7C15ULL + m);
  Collection c;
  c.m = m;
  c.n = n;
  c.holders.resize(n);
  c.eps.resize(n);
  std::vector<std::uint32_t> perm(m);
  for (std::size_t p = 0; p < m; ++p) perm[p] = static_cast<std::uint32_t>(p);
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t k = min_k + rng.next_below(max_k - min_k + 1);
    const bool celebrity =
        celebrity_share > 0.0 && rng.bernoulli(celebrity_share);
    if (celebrity) k = m / 2 - m / 10 + rng.next_below(m / 5 + 1);
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(perm[i], perm[i + rng.next_below(m - i)]);
    }
    c.holders[j].assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(c.holders[j].begin(), c.holders[j].end());
    c.eps[j] = eps_lo == eps_hi ? eps_lo
                                : eps_lo + (eps_hi - eps_lo) * rng.next_double();
    if (!celebrity) c.regular.push_back(static_cast<std::uint32_t>(j));
  }
  return c;
}

Collection daemon_collection(std::uint64_t seed) {
  return make_collection(seed, kDaemonProviders, kDaemonOwners,
                         kCelebrityShare, 1, 8, kDaemonEps, kDaemonEps);
}

Collection construct_collection(std::uint64_t seed) {
  return make_collection(seed, kParties, kConstructOwners, 0.0, 1, 3, 0.3,
                         0.7);
}

// `count` new (owner, provider) facts on regular owners, none already held
// or already in `added`.
std::vector<std::pair<std::uint32_t, std::uint32_t>> new_facts(
    const Collection& c, std::size_t count, eppi::Rng& rng,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& added) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> facts;
  while (facts.size() < count) {
    const auto j = c.regular[rng.next_below(c.regular.size())];
    const auto p = static_cast<std::uint32_t>(rng.next_below(c.m));
    const std::pair<std::uint32_t, std::uint32_t> fact{j, p};
    if (std::binary_search(c.holders[j].begin(), c.holders[j].end(), p) ||
        std::find(added.begin(), added.end(), fact) != added.end() ||
        std::find_if(facts.begin(), facts.end(), [&](const auto& f) {
          return f.first == j;
        }) != facts.end()) {
      continue;
    }
    facts.push_back(fact);
    added.push_back(fact);
  }
  return facts;
}

// (owner, provider) ids of a /query answer ("ownerJ,provP" lines), sorted.
std::vector<std::pair<std::uint32_t, std::uint32_t>> parse_answer(
    const std::string& body) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const auto nl = body.find('\n', pos);
    const auto end = nl == std::string::npos ? body.size() : nl;
    const auto comma = body.find(',', pos);
    if (comma != std::string::npos && comma < end &&
        body.compare(pos, 5, "owner") == 0 &&
        body.compare(comma + 1, 4, "prov") == 0) {
      pairs.emplace_back(
          static_cast<std::uint32_t>(std::strtoul(body.c_str() + pos + 5, nullptr, 10)),
          static_cast<std::uint32_t>(std::strtoul(body.c_str() + comma + 5, nullptr, 10)));
    }
    pos = end + 1;
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// 100% recall: every true provider of every asked owner is in the answer.
bool covers_truth(const Collection& c, std::span<const std::uint32_t> owners,
                  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  for (const auto j : owners) {
    for (const auto p : c.holders[j]) {
      if (!std::binary_search(pairs.begin(), pairs.end(),
                              std::pair<std::uint32_t, std::uint32_t>{j, p})) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------- span helpers

std::uint64_t attr_u64(const eppi::obs::SpanEvent& ev, std::string_view key) {
  for (std::uint32_t a = 0; a < ev.n_attrs; ++a) {
    if (key == std::string_view(ev.attrs[a].key) &&
        ev.attrs[a].value.type == eppi::obs::AttrValue::Type::kU64) {
      return ev.attrs[a].value.u64;
    }
  }
  return ~std::uint64_t{0};
}

double span_ms(const eppi::obs::SpanEvent& ev) {
  return static_cast<double>(ev.end_ns - ev.start_ns) / 1e6;
}

// Construction phases in the order the protocol runs them.
constexpr const char* kPhases[] = {"phase:secsum", "phase:count_below",
                                   "phase:mix_reveal", "phase:broadcast",
                                   "phase:publish"};
constexpr const char* kPhaseMetrics[] = {
    "secret.secsum_ms", "mpc.count_below_ms", "mpc.mix_reveal_ms",
    "core.broadcast_ms", "core.publish_ms"};

// One party's time per phase (ms) from its drained spans.
std::vector<double> phase_ms(std::span<const eppi::obs::SpanEvent> events,
                             std::uint64_t party) {
  std::vector<double> ms(std::size(kPhases), 0.0);
  for (const auto& ev : events) {
    if (attr_u64(ev, "party") != party) continue;
    for (std::size_t i = 0; i < std::size(kPhases); ++i) {
      if (ev.name_view() == kPhases[i]) ms[i] += span_ms(ev);
    }
  }
  return ms;
}

std::vector<double> durations_ms(std::span<const eppi::obs::TraceEvent> events,
                                 std::string_view name) {
  std::vector<double> ms;
  for (const auto& ev : events) {
    if (ev.name == name) ms.push_back(ev.duration_ms());
  }
  return ms;
}

double prom_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + ' ', 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0.0;
}

// --------------------------------------------------------------- daemon

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool traced = false;
  std::string cli;
  std::string work;
  std::string self_exe;
};

struct Daemon {
  std::unique_ptr<Child> proc;
  std::uint16_t port = 0;
  double setup_s = 0.0;
};

// Spawn → first 200 on /healthz. The daemon prints its port on stderr.
Daemon start_daemon(const RunContext& ctx, const std::string& csv,
                    const std::string& log) {
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) throw std::runtime_error("cannot open " + log);
  // One malloc arena: with glibc's default, every connection thread can
  // land on its own arena, and where a rebuild's transient memory lands
  // decides the peak RSS — churn's peak is then 180 or 215 MiB from run to
  // run, against a steady 120 MiB with one arena.
  std::vector<std::string> env{"MALLOC_ARENA_MAX=1"};
  if (ctx.traced) env.push_back("EPPI_TRACE_RING=65536");
  const auto start = Clock::now();
  Daemon d;
  const eppi::bench::ServerCpus server_cpus;
  d.proc = std::make_unique<Child>(
      std::vector<std::string>{ctx.cli, "serve", csv, "--listen", "0", "--eps",
                               format_number(kDaemonEps), "--seed",
                               std::to_string(ctx.seed)},
      env, -1, -1, fd);
  ::close(fd);
  const auto deadline = start + std::chrono::seconds(60);
  const std::string marker = "HTTP on port ";
  while (d.port == 0) {
    // std::cerr writes each insertion separately: parse the port only once
    // its whole line has landed.
    const std::string text = eppi::bench::read_text_file(log);
    const auto pos = text.find(marker);
    if (pos != std::string::npos && text.find('\n', pos) != std::string::npos) {
      d.port = static_cast<std::uint16_t>(
          std::stoul(text.substr(pos + marker.size())));
      break;
    }
    if (!d.proc->alive() || Clock::now() > deadline) {
      throw std::runtime_error("daemon did not start:\n" + text);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (http_call(d.port, http_get("/healthz"), 1000).status != 200) {
    if (!d.proc->alive() || Clock::now() > deadline) {
      throw std::runtime_error("daemon never became healthy");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  d.setup_s = seconds_since(start);
  return d;
}

// Set-up repeated kSetupRepeats times (once when traced); the last daemon
// stays up for the workload.
Daemon start_measured_daemon(const RunContext& ctx, const std::string& csv,
                             std::vector<double>& setup_s) {
  const std::size_t spawns = ctx.traced ? 1 : kSetupRepeats;
  for (std::size_t i = 0;; ++i) {
    Daemon d = start_daemon(ctx, csv, ctx.work + "/daemon.log");
    setup_s.push_back(d.setup_s);
    if (i + 1 == spawns) return d;
    d.proc->stop(std::chrono::seconds(10));
  }
}

// Drains the daemon's trace ring once a second so it never wraps, and
// accounts for every span: ids carry a per-process counter in their low 40
// bits, so counter gaps are spans the ring lost.
class TraceScraper {
 public:
  explicit TraceScraper(std::uint16_t port) : port_(port) {
    thread_ = std::thread([this] {
      std::unique_lock lock(mu_);
      while (!stop_) {
        cv_.wait_for(lock, std::chrono::seconds(1));
        if (stop_) break;
        lock.unlock();
        drain();
        lock.lock();
      }
    });
  }
  ~TraceScraper() { stop(); }
  TraceScraper(const TraceScraper&) = delete;
  TraceScraper& operator=(const TraceScraper&) = delete;

  void stop() {
    {
      const std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Pulls everything recorded so far; returns the event count afterwards.
  std::size_t drain() {
    const auto reply = http_call(port_, http_get("/trace"), 5000);
    std::vector<eppi::obs::TraceEvent> batch;
    std::istringstream in(reply.body);
    std::string line;
    while (std::getline(in, line)) {
      eppi::obs::TraceEvent ev;
      if (!line.empty() && eppi::obs::parse_trace_line(line, &ev)) {
        batch.push_back(std::move(ev));
      }
    }
    const std::scoped_lock lock(mu_);
    for (auto& ev : batch) events_.push_back(std::move(ev));
    return events_.size();
  }

  std::vector<eppi::obs::TraceEvent> events() {
    const std::scoped_lock lock(mu_);
    return events_;
  }

 private:
  std::uint16_t port_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<eppi::obs::TraceEvent> events_;
  std::thread thread_;
};

void account_spans(std::span<const eppi::obs::TraceEvent> events,
                   LayerValues& layer) {
  constexpr std::uint64_t kCounterMask = (std::uint64_t{1} << 40) - 1;
  std::vector<std::uint64_t> counters;
  for (const auto& ev : events) counters.push_back(ev.span & kCounterMask);
  std::sort(counters.begin(), counters.end());
  counters.erase(std::unique(counters.begin(), counters.end()), counters.end());
  const std::uint64_t recorded = counters.empty() ? 0 : counters.back();
  layer["trace.spans"] = static_cast<double>(counters.size());
  layer["trace.dropped"] = static_cast<double>(recorded - counters.size());
}

// -------------------------------------------------- in-process replicas

struct RttProbe {
  Stats rtt_us;
  double late_us_p99 = 0.0;
  double rss_kib_per_kreq = 0.0;
};

// net.http: a bench-owned MiniHttpServer whose handler returns a constant
// 2-byte body, driven open loop like the daemon — the HTTP layer's cost
// with the locator taken out.
RttProbe http_rtt_probe(double rate, double seconds) {
  eppi::net::MiniHttpServer server(0, [](const eppi::net::HttpRequest&) {
    eppi::net::HttpResponse resp;
    resp.body = "ok";
    return resp;
  });
  {
    const eppi::bench::ServerCpus server_cpus;  // accept and connection threads
    server.start();
  }
  const std::string request = http_get("/");
  LoadSpec spec;
  spec.port = server.port();
  spec.rate = rate;
  spec.seconds = seconds;
  spec.threads = kLoadThreads;
  spec.request = [&](std::size_t) -> const std::string& { return request; };
  const auto rss0 = eppi::bench::proc_status_kib(::getpid(), "VmRSS");
  const LoadResult r = eppi::bench::run_open_loop(spec);
  const auto rss1 = eppi::bench::proc_status_kib(::getpid(), "VmRSS");
  server.stop();
  if (r.failed != 0) {
    std::fprintf(stderr, "  http probe: %llu of %llu requests failed\n",
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted));
  }
  RttProbe probe;
  std::vector<double> us;
  for (const double ms : r.latency_ms) us.push_back(ms * 1000.0);
  probe.rtt_us = summarize(std::move(us));
  probe.late_us_p99 = summarize(r.late_us).p99;
  probe.rss_kib_per_kreq = static_cast<double>(rss1 - std::min(rss0, rss1)) /
                           (static_cast<double>(r.attempted) / 1000.0);
  return probe;
}

std::uint16_t find_port_base(std::size_t count) {
  static std::uint16_t cursor =
      static_cast<std::uint16_t>(23000 + (::getpid() * 37) % 8000);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::uint16_t base = cursor;
    cursor = static_cast<std::uint16_t>(cursor + count + 1);
    if (cursor > 60000) cursor = 23000;
    bool all_free = true;
    for (std::size_t k = 0; k < count && all_free; ++k) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) return base;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(base + k));
      all_free = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
      ::close(fd);
    }
    if (all_free) return base;
  }
  throw std::runtime_error("no free port range for the party mesh");
}

eppi::core::DistributedOptions construction_options(std::uint64_t seed) {
  eppi::core::DistributedOptions options;
  options.policy = eppi::core::BetaPolicy::chernoff(0.9);
  options.c = kCoordinators;
  options.seed = seed;
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.reliable_delivery = true;
  return options;
}

// What `eppi_cli party --ft` configures for its socket runtime.
eppi::net::SocketRuntimeOptions runtime_options(std::uint64_t seed) {
  const auto options = construction_options(seed);
  eppi::net::SocketRuntimeOptions ro;
  ro.rng_seed = seed;
  ro.reliable = true;
  ro.reliable_options = options.fault_tolerance.reliable;
  ro.recv_timeout = options.fault_tolerance.mpc_timeout + std::chrono::seconds(5);
  return ro;
}

std::vector<eppi::net::Endpoint> loopback_mesh(std::uint16_t base) {
  std::vector<eppi::net::Endpoint> endpoints(kParties);
  for (std::size_t i = 0; i < kParties; ++i) {
    endpoints[i].port = static_cast<std::uint16_t>(base + i);
  }
  return endpoints;
}

// net.mesh for workloads without parties: four SocketRuntimes in threads.
double mesh_probe_ms(std::uint64_t seed) {
  std::vector<double> ms;
  for (int probe = 0; probe < 3; ++probe) {
    const auto endpoints = loopback_mesh(find_port_base(kParties));
    std::latch formed(kParties);
    std::vector<double> party_ms(kParties);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kParties; ++i) {
      threads.emplace_back([&, i] {
        // Every runtime stays up until all four have formed the mesh.
        std::optional<eppi::net::SocketRuntime> runtime;
        try {
          const auto start = Clock::now();
          runtime.emplace(static_cast<eppi::net::PartyId>(i), endpoints,
                          runtime_options(seed));
          party_ms[i] = seconds_since(start) * 1000.0;
        } catch (const std::exception&) {
          party_ms[i] = -1.0;
        }
        formed.arrive_and_wait();
      });
    }
    for (auto& t : threads) t.join();
    if (*std::min_element(party_ms.begin(), party_ms.end()) < 0.0) {
      throw std::runtime_error("the in-process mesh did not form");
    }
    ms.insert(ms.end(), party_ms.begin(), party_ms.end());
  }
  return summarize(ms).median;
}

std::vector<std::uint64_t> epsilon_ranks(std::span<const double> eps) {
  std::vector<double> unique(eps.begin(), eps.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  std::vector<std::uint64_t> ranks;
  for (const double e : eps) {
    ranks.push_back(static_cast<std::uint64_t>(
                        std::lower_bound(unique.begin(), unique.end(), e) -
                        unique.begin()) +
                    1);
  }
  return ranks;
}

// The coordinators build both circuits before evaluating them, outside any
// phase span; this times the same two builder calls.
double circuit_build_ms(std::span<const double> eps, double lambda) {
  const eppi::secret::SecSumShareParams params{kCoordinators, 0, eps.size()};
  eppi::mpc::CountBelowSpec cb;
  cb.c = kCoordinators;
  cb.q = eppi::secret::resolve_ring(params, kParties).q();
  const auto thresholds = eppi::core::common_thresholds(
      eppi::core::BetaPolicy::chernoff(0.9), eps, kParties);
  cb.thresholds.assign(thresholds.begin(), thresholds.end());
  cb.xi_ranks = epsilon_ranks(eps);
  eppi::mpc::MixRevealSpec mr;
  mr.c = kCoordinators;
  mr.q = cb.q;
  mr.thresholds = cb.thresholds;
  mr.lambda = lambda;
  const auto seconds = eppi::bench::repeat(0, 3, [&] {
    const auto a = eppi::mpc::build_count_below_circuit(cb);
    const auto b = eppi::mpc::build_mix_reveal_circuit(mr);
    if (a.stats().and_gates + b.stats().and_gates == 0) {
      throw std::logic_error("empty circuits");
    }
  });
  return summarize(seconds).median * 1000.0;
}

// The locator layers on the workload's own collection, as the daemon builds
// them: CSV parse, the delegate loop, the full construction, lexicon and
// posting lookups, batched queries, and delta rebuilds of 20 new facts.
// Callers overwrite what their workload measured on the real path.
void locator_replicas(const RunContext& ctx, const Collection& c,
                      const std::string& csv, LayerValues& layer) {
  eppi::dataset::CollectionTable table;
  const auto load_s = eppi::bench::repeat(0, 3, [&] {
    std::ifstream in(csv);
    table = eppi::dataset::load_collection_table(in);
  });
  layer["dataset.load_csv_s"] = summarize(load_s).median;

  eppi::core::LocatorService::Options options;
  options.distributed = false;
  options.policy = eppi::core::BetaPolicy::chernoff(0.9);
  options.seed = ctx.seed;
  eppi::core::LocatorService service(options);
  const auto& net = table.network;
  std::vector<double> owner_eps(net.identities());
  for (std::size_t j = 0; j < net.identities(); ++j) {
    owner_eps[j] = c.eps[std::stoul(table.identity_names[j].substr(5))];
  }
  const auto delegate_s = eppi::bench::repeat(0, 1, [&] {
    for (std::size_t i = 0; i < net.providers(); ++i) {  // as `serve` does
      for (std::size_t j = 0; j < net.identities(); ++j) {
        if (net.membership.get(i, j)) {
          service.delegate(table.identity_names[j], owner_eps[j],
                           table.provider_names[i]);
        }
      }
    }
  });
  layer["core.delegate_all_s"] = delegate_s.front();
  const auto construct_s =
      eppi::bench::repeat(0, 1, [&] { service.construct_ppi(); });
  layer["core.construct_full_s"] = construct_s.front();
  const std::string gauges = eppi::obs::Registry::global().render_prometheus();
  layer["core.index.resident_mib"] =
      prom_value(gauges, "eppi_index_resident_bytes") / (1024.0 * 1024.0);
  layer["core.lexicon.mib"] =
      prom_value(gauges, "eppi_lexicon_bytes") / (1024.0 * 1024.0);

  // Lexicon::find and PostingIndex::query_into over the served structures.
  std::vector<std::pair<std::string, eppi::core::IdentityId>> names;
  for (std::size_t j = 0; j < net.identities(); ++j) {
    names.emplace_back(table.identity_names[j],
                       static_cast<eppi::core::IdentityId>(j));
  }
  const eppi::core::Lexicon lexicon(names);
  const eppi::core::PostingIndex postings(service.index());
  eppi::Rng rng(ctx.seed + 17);
  constexpr std::size_t kProbes = 100000;
  std::vector<std::size_t> probe_ids(kProbes);
  for (auto& id : probe_ids) id = rng.next_below(net.identities());
  std::size_t sink = 0;
  const auto find_s = eppi::bench::repeat(1, 5, [&] {
    for (const auto id : probe_ids) sink += lexicon.find(names[id].first).value_or(0);
  });
  std::vector<eppi::core::ProviderId> out;
  const auto query_s = eppi::bench::repeat(1, 5, [&] {
    for (const auto id : probe_ids) {
      postings.query_into(static_cast<eppi::core::IdentityId>(id), out);
      sink += out.size();
    }
  });
  if (sink == 0) throw std::logic_error("lookups found nothing");
  layer["core.lexicon.find_ns"] = summarize(find_s).median * 1e9 / kProbes;
  layer["core.posting.query_into_ns"] =
      summarize(query_s).median * 1e9 / kProbes;

  // query_ppi_many over 256 uniform owners, as lookup_batch asks it; the
  // answer size counts the bytes of the daemon's "owner,provider" lines.
  std::vector<std::string> batch(kBatchOwners);
  double providers = 0.0;
  double bytes = 0.0;
  std::size_t calls = 0;
  const auto many_s = eppi::bench::repeat(
      10, 200,
      [&] {
        for (auto& o : batch) o = table.identity_names[rng.next_below(net.identities())];
      },
      [&] {
        const auto r = service.query_ppi_many(batch);
        for (std::size_t k = 0; k < batch.size(); ++k) {
          providers += static_cast<double>(r.providers[k].size());
          for (const auto& p : r.providers[k]) {
            bytes += static_cast<double>(batch[k].size() + p.size() + 2);
          }
        }
        ++calls;
      });
  std::vector<double> many_us;
  for (const double s : many_s) many_us.push_back(s * 1e6);
  const Stats many = summarize(std::move(many_us));
  layer["core.locator.query_many_us_p50"] = many.median;
  layer["core.locator.query_many_us_p99"] = many.p99;
  layer["core.lookup.answer_providers_mean"] =
      providers / static_cast<double>(calls * kBatchOwners);
  layer["core.lookup.response_kib_mean"] =
      bytes / 1024.0 / static_cast<double>(calls);

  // Delta epochs: 20 new facts, then construct_ppi(), three times.
  (void)eppi::obs::default_sink().drain();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> added;
  std::vector<double> total_ms, build_ms, delta_ms, publish_ms;
  double dirty = 0.0, churn = 0.0, deltas = 0.0;
  constexpr int kRebuilds = 3;
  for (int r = 0; r < kRebuilds; ++r) {
    for (const auto& [j, p] : new_facts(c, kChurnFacts, rng, added)) {
      service.delegate(owner_name(j), c.eps[j], provider_name(p));
    }
    const auto start = Clock::now();
    service.construct_ppi();
    total_ms.push_back(seconds_since(start) * 1000.0);
    const auto& info = service.last_rebuild();
    dirty += static_cast<double>(info.dirty);
    churn += static_cast<double>(info.churn);
    deltas += info.delta ? 1.0 : 0.0;
    double build = 0.0, delta = 0.0, publish = 0.0;
    for (const auto& ev : eppi::obs::default_sink().drain()) {
      if (ev.name_view() == "serve.build") build += span_ms(ev);
      if (ev.name_view() == "serve.rebuild_delta") delta += span_ms(ev);
      if (ev.name_view() == "serve.publish") publish += span_ms(ev);
    }
    build_ms.push_back(build);
    delta_ms.push_back(delta);
    publish_ms.push_back(publish);
  }
  layer["core.rebuild.total_ms"] = summarize(total_ms).median;
  layer["core.rebuild.build_ms"] = summarize(build_ms).median;
  layer["core.rebuild.delta_ms"] = summarize(delta_ms).median;
  layer["core.rebuild.publish_ms"] = summarize(publish_ms).median;
  layer["core.rebuild.unattributed_ms"] =
      layer["core.rebuild.total_ms"] - layer["core.rebuild.delta_ms"] -
      layer["core.rebuild.publish_ms"];
  layer["core.rebuild.dirty"] = dirty / kRebuilds;
  layer["core.rebuild.churn_cells"] = churn / kRebuilds;
  layer["core.rebuild.delta_share"] = deltas / kRebuilds;
}

// The construction layers for the daemon workloads, whose own path never
// runs the protocol: the in-process cluster construction over the
// workload's owners with its providers folded into four parties.
void construction_replica(const RunContext& ctx, const Collection& c,
                          LayerValues& layer, Outcome& outcome) {
  eppi::BitMatrix truth(kParties, c.n);
  for (std::size_t j = 0; j < c.n; ++j) {
    for (const auto p : c.holders[j]) truth.set(p % kParties, j, true);
  }
  (void)eppi::obs::default_sink().drain();
  const auto start = Clock::now();
  const auto result = eppi::core::construct_distributed(
      truth, c.eps, construction_options(ctx.seed));
  const double wall_ms = seconds_since(start) * 1000.0;
  const auto events = eppi::obs::default_sink().drain();
  const auto phases = phase_ms(events, 0);
  double attributed = 0.0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    layer[kPhaseMetrics[i]] = phases[i];
    attributed += phases[i];
  }
  layer["construct.unattributed_ms"] = wall_ms - attributed;
  // Each phase span carries its party's CostMeter delta, so summed over the
  // phases they give what a party process reads from local_meter().
  double bytes = 0.0, messages = 0.0, rounds = 0.0;
  for (const auto& ev : events) {
    if (!ev.name_view().starts_with("phase:")) continue;
    bytes += static_cast<double>(attr_u64(ev, "bytes"));
    messages += static_cast<double>(attr_u64(ev, "messages"));
    if (attr_u64(ev, "party") == 0) rounds += static_cast<double>(attr_u64(ev, "rounds"));
  }
  const auto& rep = result.report;
  layer["mpc.and_gates"] = static_cast<double>(rep.count_below_stats.and_gates +
                                               rep.mix_reveal_stats.and_gates);
  layer["mpc.and_depth"] = static_cast<double>(rep.count_below_stats.and_depth +
                                               rep.mix_reveal_stats.and_depth);
  layer["secret.secsum_attempts"] = static_cast<double>(rep.secsum_attempts);
  layer["net.wire_kib_per_party"] = bytes / 1024.0 / kParties;
  layer["net.messages_per_party"] = messages / kParties;
  layer["net.rounds"] = rounds;
  layer["net.retransmits"] = 0.0;  // in-process links lose nothing
  layer["mpc.circuit_build_ms"] = circuit_build_ms(c.eps, rep.lambda);
  for (std::size_t i = 0; i < kParties; ++i) {
    for (std::size_t j = 0; j < c.n; ++j) {
      if (truth.get(i, j) && !result.index.matrix().get(i, j)) {
        outcome.error("construction replica lost a true fact");
        return;
      }
    }
  }
}

// ------------------------------------------------------ daemon workloads

struct Plan {
  std::vector<std::string> requests;
  std::vector<std::vector<std::uint32_t>> owners;  // asked, per request
};

// Batches of 256 owners drawn uniformly over the whole collection.
Plan batch_plan(const Collection& c, std::size_t total, eppi::Rng& rng) {
  Plan plan;
  for (std::size_t k = 0; k < total; ++k) {
    std::vector<std::uint32_t> owners(kBatchOwners);
    std::string body;
    for (auto& j : owners) {
      j = static_cast<std::uint32_t>(rng.next_below(c.n));
      body += owner_name(j);
      body += '\n';
    }
    plan.owners.push_back(std::move(owners));
    plan.requests.push_back(http_post("/query", body));
  }
  return plan;
}

struct AnswerTally {
  std::atomic<std::uint64_t> owners{0};
  std::atomic<std::uint64_t> pairs{0};
};

LoadResult run_plan(std::uint16_t port, const Collection& c, const Plan& plan,
                    double rate, double seconds, std::size_t threads,
                    AnswerTally& tally) {
  LoadSpec spec;
  spec.port = port;
  spec.rate = rate;
  spec.seconds = seconds;
  spec.threads = threads;
  spec.check_every = kCheckEvery;
  spec.request = [&](std::size_t k) -> const std::string& {
    return plan.requests[k];
  };
  spec.check = [&](std::size_t k, const std::string& body) {
    const auto pairs = parse_answer(body);
    tally.owners += plan.owners[k].size();
    tally.pairs += pairs.size();
    return covers_truth(c, plan.owners[k], pairs);
  };
  return eppi::bench::run_open_loop(spec);
}

void merge_into(LoadResult& into, const LoadResult& part) {
  into.latency_ms.insert(into.latency_ms.end(), part.latency_ms.begin(),
                         part.latency_ms.end());
  into.late_us.insert(into.late_us.end(), part.late_us.begin(),
                      part.late_us.end());
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.wrong += part.wrong;
  into.response_bytes += part.response_bytes;
  into.tail_late_ms = std::max(into.tail_late_ms, part.tail_late_ms);
}

double ms_to_us(double ms) { return ms * 1000.0; }

// What a daemon leaves when its workload ends: peak memory, the /metrics
// gauges, and (traced) every span it recorded after the warm-up.
struct DaemonEnd {
  double hwm_mib = 0.0;
  std::string metrics;
  std::vector<eppi::obs::TraceEvent> spans;
};

DaemonEnd stop_daemon(Daemon& d, std::optional<TraceScraper>& scraper,
                      std::size_t window, LayerValues& layer) {
  DaemonEnd end;
  end.hwm_mib = static_cast<double>(
                    eppi::bench::proc_status_kib(d.proc->pid(), "VmHWM")) /
                1024.0;
  end.metrics = http_call(d.port, http_get("/metrics"), 5000).body;
  if (scraper) {
    scraper->stop();
    scraper->drain();
    const auto all = scraper->events();
    account_spans(all, layer);
    end.spans.assign(all.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(window, all.size())),
                     all.end());
  }
  if (!d.proc->alive()) std::fprintf(stderr, "  the daemon died mid-run\n");
  d.proc->stop(std::chrono::seconds(10));
  return end;
}

// Per-layer values of a daemon workload. The in-process replicas go first
// and fill every locator and construction layer; what the daemon showed —
// its query spans and gauges, the client-side answer sizes — replaces them,
// and the HTTP probe at the workload's rate gives the attribution of the
// client median: http rtt + query_many + unattributed.
void daemon_layers(const RunContext& ctx, const Collection& c,
                   const std::string& csv, const DaemonEnd& end,
                   const LoadResult& reads, const AnswerTally& tally,
                   double rate, LayerValues& layer, Outcome& outcome) {
  locator_replicas(ctx, c, csv, layer);
  construction_replica(ctx, c, layer, outcome);
  layer["net.mesh_ms"] = mesh_probe_ms(ctx.seed);
  const RttProbe probe = http_rtt_probe(rate, kProbeSeconds);
  layer["net.http.rtt_us_p50"] = probe.rtt_us.median;
  layer["net.http.rtt_us_p99"] = probe.rtt_us.p99;
  layer["net.http.rss_kib_per_kreq"] = probe.rss_kib_per_kreq;

  std::vector<double> many_us;
  for (const double ms : durations_ms(end.spans, "query.ppi_many")) {
    many_us.push_back(ms_to_us(ms));
  }
  const Stats many = summarize(std::move(many_us));
  const auto client =
      eppi::bench::grouped(reads.latency_ms, kLatencyGroup, kTailQuantile);
  layer["core.locator.query_many_us_p50"] = many.median;
  layer["core.locator.query_many_us_p99"] = many.p99;
  layer["core.index.resident_mib"] =
      prom_value(end.metrics, "eppi_index_resident_bytes") / (1024.0 * 1024.0);
  layer["core.lexicon.mib"] =
      prom_value(end.metrics, "eppi_lexicon_bytes") / (1024.0 * 1024.0);
  layer["core.lookup.answer_providers_mean"] =
      static_cast<double>(tally.pairs) /
      static_cast<double>(std::max<std::uint64_t>(tally.owners, 1));
  layer["core.lookup.response_kib_mean"] =
      static_cast<double>(reads.response_bytes) / 1024.0 /
      static_cast<double>(std::max<std::size_t>(reads.latency_ms.size(), 1));
  layer["gen.late_us_p99"] = summarize(reads.late_us).p99;
  layer["trace.e2e_p50_ms"] = client.median;
  const double unattributed_us =
      ms_to_us(client.median) - probe.rtt_us.median - many.median;
  layer["e2e.unattributed_pct"] =
      100.0 * unattributed_us / ms_to_us(client.median);
  std::fprintf(stderr,
               "  breakdown at %.0f/s: client p50 %.1f us = http rtt %.1f + "
               "query_many %.1f + unattributed %.1f (%.1f%%)\n",
               rate, ms_to_us(client.median), probe.rtt_us.median,
               many.median, unattributed_us, layer["e2e.unattributed_pct"]);
}

void print_rung(double rate, const LoadResult& r, bool pass) {
  const Stats lat = summarize(r.latency_ms);
  const Stats late = summarize(r.late_us);
  std::fprintf(stderr,
               "  rung %6.0f/s  p50 %8.3f ms  p99 %8.3f ms  n=%zu  failed "
               "%llu  late p50 %5.1f p99 %7.1f us  tail-late %.3f ms  %s\n",
               rate, lat.median, lat.p99, lat.count,
               static_cast<unsigned long long>(r.failed), late.median,
               late.p99, r.tail_late_ms, pass ? "meets SLO" : "misses SLO");
}

void run_lookup(const RunContext& ctx, LayerValues& e2e, LayerValues& layer,
                Outcome& outcome) {
  const Ladder& ladder = kBatchLadder;
  const Collection c = daemon_collection(ctx.seed);
  const std::string csv = ctx.work + "/collection.csv";
  c.write_csv(csv);
  eppi::Rng rng(ctx.seed * 31 + 2);
  const auto make_plan = [&](double rate, double seconds) {
    return batch_plan(c, static_cast<std::size_t>(rate * seconds + 0.5), rng);
  };
  const std::size_t rates = ladder.rates.size();
  const auto cycles = static_cast<std::size_t>(std::max(
      1.0, std::round(ctx.seconds / (kSegmentSeconds * static_cast<double>(rates)))));
  std::fprintf(stderr, "%s: %zu providers x %zu owners (%zu facts), %zu "
               "rates x %zu interleaved %.1f s segments\n",
               ctx.workload.c_str(), c.m, c.n, c.facts(), rates, cycles,
               kSegmentSeconds);
  // The daemon sets up lazily per level of concurrency (threads, malloc
  // arenas), so the warm-up runs at the top rate: the first second at a
  // new high rate is otherwise several times slower than the rest.
  const double warm_rate = ladder.rates.back();
  const Plan warm = make_plan(warm_rate, 1.0);
  std::vector<Plan> segments;
  for (std::size_t s = 0; s < cycles * rates; ++s) {
    segments.push_back(make_plan(ladder.rates[s % rates], kSegmentSeconds));
  }

  std::vector<double> setup_s;
  Daemon d = start_measured_daemon(ctx, csv, setup_s);
  std::optional<TraceScraper> scraper;
  if (ctx.traced) scraper.emplace(d.port);
  AnswerTally tally;
  outcome.count(run_plan(d.port, c, warm, warm_rate, 1.0,
                         kLoadThreads, tally),
                "warm-up");
  const std::size_t window = scraper ? scraper->drain() : 0;
  std::vector<LoadResult> per_rate(rates);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const double rate = ladder.rates[s % rates];
    const LoadResult r = run_plan(d.port, c, segments[s], rate,
                                  kSegmentSeconds, kLoadThreads, tally);
    outcome.count(r, "lookup");
    merge_into(per_rate[s % rates], r);
  }
  const DaemonEnd end = stop_daemon(d, scraper, window, layer);

  double max_rps = 0.0;
  bool ladder_ok = true;
  const LoadResult* reference = &per_rate.front();
  for (std::size_t i = 0; i < rates; ++i) {
    const LoadResult& r = per_rate[i];
    const bool pass = r.failed == 0 &&
                      summarize(r.latency_ms).p99 <= ladder.slo_ms &&
                      r.tail_late_ms <= ladder.slo_ms;
    ladder_ok = ladder_ok && pass;
    if (ladder_ok) max_rps = ladder.rates[i];
    if (ladder.rates[i] == ladder.reference) reference = &r;
    print_rung(ladder.rates[i], r, pass);
  }
  std::fprintf(stderr, "  max_rps %.0f (SLO p99 <= %.1f ms, no failures, "
               "no growing backlog)\n", max_rps, ladder.slo_ms);

  const auto client = eppi::bench::grouped(reference->latency_ms,
                                           kLatencyGroup, kTailQuantile);
  e2e["setup_s"] = summarize(setup_s).median;
  e2e["p50_ms"] = client.median;
  e2e["p90_ms"] = client.tail;
  e2e["rss_mib"] = end.hwm_mib;
  if (ctx.traced) {
    daemon_layers(ctx, c, csv, end, *reference, tally, ladder.reference,
                  layer, outcome);
  }
}

// ------------------------------------------------------------------ churn

struct RebuildReply {
  std::uint64_t epoch = 0;
  bool delta = false;
  std::uint64_t dirty = 0;
  std::uint64_t churn = 0;
};

std::optional<RebuildReply> parse_rebuild(const std::string& body) {
  RebuildReply r;
  int delta = 0, degraded = 0;
  unsigned long long epoch = 0, dirty = 0, joined = 0, left = 0, churn = 0;
  if (std::sscanf(body.c_str(),
                  "epoch=%llu delta=%d degraded=%d dirty=%llu joined=%llu "
                  "left=%llu churn=%llu",
                  &epoch, &delta, &degraded, &dirty, &joined, &left,
                  &churn) != 7 ||
      degraded != 0) {
    return std::nullopt;
  }
  r.epoch = epoch;
  r.delta = delta != 0;
  r.dirty = dirty;
  r.churn = churn;
  return r;
}

void run_churn(const RunContext& ctx, LayerValues& e2e, LayerValues& layer,
               Outcome& outcome) {
  const Collection c = daemon_collection(ctx.seed);
  const std::string csv = ctx.work + "/collection.csv";
  c.write_csv(csv);
  eppi::Rng rng(ctx.seed * 31 + 3);
  std::fprintf(stderr, "churn: %zu providers x %zu owners (%zu facts), "
               "reads %.0f/s for %.1f s beside a writer\n", c.m, c.n,
               c.facts(), kChurnReadRate, ctx.seconds);
  const Plan warm = batch_plan(c, static_cast<std::size_t>(kChurnReadRate), rng);
  std::vector<Plan> segments(static_cast<std::size_t>(
      std::max(1.0, std::round(ctx.seconds / kSegmentSeconds))));
  for (auto& plan : segments) {
    plan = batch_plan(
        c, static_cast<std::size_t>(kChurnReadRate * kSegmentSeconds + 0.5), rng);
  }
  std::vector<double> setup_s;
  Daemon d = start_measured_daemon(ctx, csv, setup_s);
  std::optional<TraceScraper> scraper;
  if (ctx.traced) scraper.emplace(d.port);
  AnswerTally tally;
  outcome.count(run_plan(d.port, c, warm, kChurnReadRate, 1.0,
                         kLoadThreads - 1, tally),
                "warm-up");
  const std::size_t window = scraper ? scraper->drain() : 0;

  LoadResult reads;
  std::atomic<bool> reading{true};
  std::thread reader([&] {
    for (const Plan& plan : segments) {
      merge_into(reads, run_plan(d.port, c, plan, kChurnReadRate,
                                 kSegmentSeconds, kLoadThreads - 1, tally));
    }
    reading = false;
  });

  // One writer, closed loop: delegate 20 new facts, rebuild, confirm.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> added;
  std::vector<double> delegate_ms, rebuild_ms;
  double dirty = 0.0, churn = 0.0, deltas = 0.0;
  std::uint64_t epoch = 0;
  while (reading) {
    const auto facts = new_facts(c, kChurnFacts, rng, added);
    std::string body, owners;
    for (const auto& [j, p] : facts) {
      body += owner_name(j) + ',' + format_number(kDaemonEps) + ',' +
              provider_name(p) + '\n';
      owners += owner_name(j) + '\n';
    }
    outcome.attempted += 3;
    auto start = Clock::now();
    const auto delegated = http_call(d.port, http_post("/delegate", body), 30000);
    delegate_ms.push_back(seconds_since(start) * 1000.0);
    start = Clock::now();
    const auto rebuilt = http_call(d.port, http_post("/rebuild", ""), 60000);
    const double rebuild = seconds_since(start) * 1000.0;
    const auto confirm = http_call(d.port, http_post("/query", owners), 30000);
    if (delegated.status != 200 || rebuilt.status != 200 ||
        confirm.status != 200) {
      outcome.failed += (delegated.status != 200) + (rebuilt.status != 200) +
                        (confirm.status != 200);
      if (!d.proc->alive()) break;
      continue;
    }
    rebuild_ms.push_back(rebuild);
    const auto info = parse_rebuild(rebuilt.body);
    if (delegated.body != "delegated " + std::to_string(kChurnFacts) + "\n" ||
        !info || !info->delta || info->epoch <= epoch) {
      outcome.error("rebuild did not publish a newer delta epoch: " +
                    rebuilt.body);
    } else {
      epoch = info->epoch;
      dirty += static_cast<double>(info->dirty);
      churn += static_cast<double>(info->churn);
      deltas += 1.0;
    }
    const auto pairs = parse_answer(confirm.body);
    for (const auto& fact : facts) {
      if (!std::binary_search(pairs.begin(), pairs.end(), fact)) {
        outcome.error("a delegated fact is missing after its rebuild");
        break;
      }
    }
  }
  reader.join();
  outcome.count(reads, "churn reads");
  const DaemonEnd end = stop_daemon(d, scraper, window, layer);

  const auto client =
      eppi::bench::grouped(reads.latency_ms, kLatencyGroup, kTailQuantile);
  const Stats rebuild = summarize(rebuild_ms);
  std::fprintf(stderr,
               "  reads p50 %.3f ms p90 %.3f ms p99 %.3f ms (n=%zu); %zu "
               "rebuilds p50 %.1f ms; delegate p50 %.2f ms\n",
               client.median, client.tail, summarize(reads.latency_ms).p99,
               reads.latency_ms.size(), rebuild.count, rebuild.median,
               summarize(delegate_ms).median);
  e2e["setup_s"] = summarize(setup_s).median;
  e2e["p50_ms"] = client.median;
  e2e["p90_ms"] = client.tail;
  e2e["rss_mib"] = end.hwm_mib;
  if (!ctx.traced) return;

  daemon_layers(ctx, c, csv, end, reads, tally, kChurnReadRate, layer,
                outcome);
  // The daemon's own rebuilds replace the replica's.
  const Stats build = summarize(durations_ms(end.spans, "serve.build"));
  const Stats delta = summarize(durations_ms(end.spans, "serve.rebuild_delta"));
  const Stats publish = summarize(durations_ms(end.spans, "serve.publish"));
  layer["core.rebuild.total_ms"] = rebuild.median;
  layer["core.rebuild.build_ms"] = build.median;
  layer["core.rebuild.delta_ms"] = delta.median;
  layer["core.rebuild.publish_ms"] = publish.median;
  layer["core.rebuild.unattributed_ms"] =
      rebuild.median - delta.median - publish.median;
  const double rebuilds = std::max(1.0, static_cast<double>(rebuild_ms.size()));
  layer["core.rebuild.dirty"] = dirty / rebuilds;
  layer["core.rebuild.churn_cells"] = churn / rebuilds;
  layer["core.rebuild.delta_share"] = deltas / rebuilds;
  std::fprintf(stderr,
               "  rebuild p50 %.1f ms = serve.rebuild_delta %.1f + "
               "serve.publish %.1f + unattributed %.1f\n",
               rebuild.median, delta.median, publish.median,
               layer["core.rebuild.unattributed_ms"]);
}

// ------------------------------------------------------------ construct_m4

std::map<std::string, double> parse_fields(const std::string& line) {
  std::map<std::string, double> fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      fields[token.substr(0, eq)] = std::stod(token.substr(eq + 1));
    }
  }
  return fields;
}

struct PartyProc {
  std::unique_ptr<Child> proc;
  int to_party = -1;
  std::unique_ptr<eppi::bench::LineReader> from_party;
  int from_fd = -1;

  ~PartyProc() {
    if (to_party >= 0) ::close(to_party);
    if (from_fd >= 0) ::close(from_fd);
  }
};

std::unique_ptr<PartyProc> spawn_party(const RunContext& ctx, std::size_t id,
                                       std::uint16_t port_base) {
  int in_pipe[2], out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("pipe");
  }
  const std::string log = ctx.work + "/party" + std::to_string(id) + ".log";
  const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  std::vector<std::string> env;
  if (ctx.traced) env.push_back("EPPI_TRACE_RING=65536");
  auto party = std::make_unique<PartyProc>();
  party->to_party = in_pipe[1];
  party->from_fd = out_pipe[0];
  party->from_party = std::make_unique<eppi::bench::LineReader>(out_pipe[0]);
  try {
    party->proc = std::make_unique<Child>(
        std::vector<std::string>{ctx.self_exe, "--party", std::to_string(id),
                                 "--work", ctx.work, "--port-base",
                                 std::to_string(port_base), "--seed",
                                 std::to_string(ctx.seed), "--trace",
                                 ctx.traced ? "1" : "0"},
        env, in_pipe[0], out_pipe[1], err);
  } catch (...) {
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    if (err >= 0) ::close(err);
    throw;
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  if (err >= 0) ::close(err);
  return party;
}

// Writes the parties' private rows and the public ε vector.
void write_party_inputs(const RunContext& ctx, const Collection& c) {
  for (std::size_t i = 0; i < kParties; ++i) {
    std::string row(c.n, '0');
    for (std::size_t j = 0; j < c.n; ++j) {
      if (std::binary_search(c.holders[j].begin(), c.holders[j].end(), i)) {
        row[j] = '1';
      }
    }
    std::ofstream(ctx.work + "/row" + std::to_string(i) + ".txt") << row << '\n';
  }
  std::ofstream eps(ctx.work + "/eps.txt");
  for (const double e : c.eps) eps << format_number(e) << '\n';
}

struct Rep {
  double setup_s = 0.0;
  double construct_ms = 0.0;
  std::vector<std::map<std::string, double>> done;  // per party
  double hwm_kib = 0.0;
};

// One repetition on a fresh mesh: spawn → all meshes formed (set-up) → go →
// last party returns (construction).
std::optional<Rep> construct_rep(const RunContext& ctx, Outcome& outcome) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  const std::uint16_t base = find_port_base(kParties);
  const auto start = Clock::now();
  std::vector<std::unique_ptr<PartyProc>> parties;
  for (std::size_t i = 0; i < kParties; ++i) {
    parties.push_back(spawn_party(ctx, i, base));
  }
  Rep rep;
  rep.done.resize(kParties);
  std::string line;
  for (auto& p : parties) {
    if (!p->from_party->read_line(line, deadline) || line.rfind("ready", 0) != 0) {
      outcome.error("a party did not form its mesh (see party logs)");
      return std::nullopt;
    }
  }
  rep.setup_s = seconds_since(start);
  const auto go = Clock::now();
  for (auto& p : parties) eppi::bench::write_all(p->to_party, "go\n");
  for (std::size_t i = 0; i < kParties; ++i) {
    if (!parties[i]->from_party->read_line(line, deadline) ||
        line.rfind("done", 0) != 0) {
      outcome.error("a party did not finish the construction");
      return std::nullopt;
    }
    rep.done[i] = parse_fields(line);
  }
  rep.construct_ms = seconds_since(go) * 1000.0;
  for (auto& p : parties) {
    rep.hwm_kib = std::max(rep.hwm_kib, static_cast<double>(eppi::bench::proc_status_kib(
                                            p->proc->pid(), "VmHWM")));
    eppi::bench::write_all(p->to_party, "exit\n");
  }
  for (auto& p : parties) {
    if (p->proc->wait_exit(std::chrono::seconds(10)) != 0) {
      outcome.error("a party exited uncleanly");
    }
  }
  return rep;
}

void run_construct(const RunContext& ctx, LayerValues& e2e,
                   LayerValues& layer, Outcome& outcome) {
  const Collection c = construct_collection(ctx.seed);
  write_party_inputs(ctx, c);
  // Ground truth for the opened count: identities whose true frequency
  // reaches their public common threshold.
  const auto thresholds = eppi::core::common_thresholds(
      eppi::core::BetaPolicy::chernoff(0.9), c.eps, kParties);
  std::uint64_t expected_common = 0;
  for (std::size_t j = 0; j < c.n; ++j) {
    expected_common += c.holders[j].size() >= thresholds[j] ? 1 : 0;
  }
  std::fprintf(stderr, "construct_m4: %zu parties x %zu owners (%zu facts), "
               "c=%zu, fault tolerance on\n", kParties, c.n, c.facts(),
               kCoordinators);

  std::vector<Rep> reps;
  const auto start = Clock::now();
  while (reps.size() < 3 || seconds_since(start) < ctx.seconds) {
    ++outcome.attempted;
    auto rep = construct_rep(ctx, outcome);
    if (!rep) {
      ++outcome.failed;
      break;
    }
    for (std::size_t i = 0; i < kParties; ++i) {
      if (rep->done[i]["covers"] != 1.0) {
        outcome.error("party " + std::to_string(i) +
                      " published a row that misses a true fact");
      }
    }
    if (rep->done[0]["common"] != rep->done[1]["common"] ||
        rep->done[0]["common"] != static_cast<double>(expected_common)) {
      outcome.error("coordinators opened common counts " +
                    format_number(rep->done[0]["common"]) + " / " +
                    format_number(rep->done[1]["common"]) + ", expected " +
                    std::to_string(expected_common));
    }
    reps.push_back(std::move(*rep));
  }
  if (reps.empty()) throw std::runtime_error("no construction completed");

  std::vector<double> setup_s, construct_ms, mesh_ms, wire_kib, messages;
  double hwm = 0.0, retransmits = 0.0, attempts = 0.0;
  for (const Rep& r : reps) {
    setup_s.push_back(r.setup_s);
    construct_ms.push_back(r.construct_ms);
    hwm = std::max(hwm, r.hwm_kib);
    double bytes = 0.0, msgs = 0.0;
    for (const auto& f : r.done) {
      mesh_ms.push_back(f.at("mesh_us") / 1000.0);
      bytes += f.at("bytes");
      msgs += f.at("messages");
      retransmits += f.at("retransmits");
      attempts = std::max(attempts, f.at("attempts"));
    }
    wire_kib.push_back(bytes / 1024.0 / kParties);
    messages.push_back(msgs / kParties);
  }
  // Fewer constructions than one latency group: a plain median and p90.
  const auto construct =
      eppi::bench::grouped(construct_ms, kLatencyGroup, kTailQuantile);
  std::fprintf(stderr,
               "  %zu constructions: p50 %.1f ms p90 %.1f ms; set-up p50 "
               "%.3f s; %.1f KiB per party\n",
               construct_ms.size(), construct.median, construct.tail,
               summarize(setup_s).median, summarize(wire_kib).median);
  e2e["setup_s"] = summarize(setup_s).median;
  e2e["p50_ms"] = construct.median;
  e2e["p90_ms"] = construct.tail;
  e2e["rss_mib"] = hwm / 1024.0;
  if (!ctx.traced) return;

  // The locator layers (off this workload's path) from the replicas on the
  // same owners, the HTTP layer from the probe; the rest from the parties.
  const std::string csv = ctx.work + "/collection.csv";
  c.write_csv(csv);
  locator_replicas(ctx, c, csv, layer);
  const RttProbe probe = http_rtt_probe(kProbeRate, kProbeSeconds);
  layer["net.http.rtt_us_p50"] = probe.rtt_us.median;
  layer["net.http.rtt_us_p99"] = probe.rtt_us.p99;
  layer["net.http.rss_kib_per_kreq"] = probe.rss_kib_per_kreq;
  layer["gen.late_us_p99"] = probe.late_us_p99;
  layer["trace.e2e_p50_ms"] = construct.median;
  layer["net.mesh_ms"] = summarize(mesh_ms).median;
  layer["net.wire_kib_per_party"] = summarize(wire_kib).median;
  layer["net.messages_per_party"] = summarize(messages).median;
  layer["net.rounds"] = reps.front().done[0].at("rounds");
  layer["net.retransmits"] = retransmits;
  layer["secret.secsum_attempts"] = attempts;
  layer["mpc.and_gates"] = reps.front().done[0].at("and_gates");
  layer["mpc.and_depth"] = reps.front().done[0].at("and_depth");
  double spans = 0.0, dropped = 0.0, attributed = 0.0;
  for (const Rep& r : reps) {
    for (const auto& f : r.done) {
      spans += f.at("spans");
      dropped += f.at("dropped");
    }
  }
  layer["trace.spans"] = spans;
  layer["trace.dropped"] = dropped;
  // Per-phase numbers come from party 0 (a coordinator, so it runs every
  // phase); the circuit building before each MPC phase sits outside them.
  const char* keys[] = {"secsum_us", "count_below_us", "mix_reveal_us",
                        "broadcast_us", "publish_us"};
  std::fprintf(stderr, "  breakdown: construction p50 %.1f ms =",
               construct.median);
  for (std::size_t i = 0; i < std::size(keys); ++i) {
    std::vector<double> ms;
    for (const Rep& r : reps) ms.push_back(r.done[0].at(keys[i]) / 1000.0);
    layer[kPhaseMetrics[i]] = summarize(ms).median;
    attributed += layer[kPhaseMetrics[i]];
    std::fprintf(stderr, " %s %.1f +", kPhases[i], layer[kPhaseMetrics[i]]);
  }
  layer["construct.unattributed_ms"] = construct.median - attributed;
  layer["e2e.unattributed_pct"] =
      100.0 * layer["construct.unattributed_ms"] / construct.median;
  std::fprintf(stderr, " unattributed %.1f (%.1f%%)\n",
               layer["construct.unattributed_ms"],
               layer["e2e.unattributed_pct"]);
  layer["mpc.circuit_build_ms"] =
      circuit_build_ms(c.eps, reps.front().done[0].at("lambda"));
}

// ------------------------------------------------------------ party mode

// One construction party: load the private row and public ε, form the
// mesh, report "ready", construct on "go", report "done", leave on "exit".
int party_main(std::size_t id, const std::string& work, std::uint16_t base,
               std::uint64_t seed, bool traced) {
  std::string row_text;
  std::ifstream(work + "/row" + std::to_string(id) + ".txt") >> row_text;
  std::vector<std::uint8_t> row;
  for (const char ch : row_text) row.push_back(ch == '1' ? 1 : 0);
  std::vector<double> eps;
  std::ifstream eps_in(work + "/eps.txt");
  for (double e; eps_in >> e;) eps.push_back(e);
  if (row.empty() || row.size() != eps.size()) {
    std::cerr << "party " << id << ": bad inputs\n";
    return 1;
  }
  const auto options = construction_options(seed);
  const auto mesh_start = Clock::now();
  eppi::net::SocketRuntime runtime(static_cast<eppi::net::PartyId>(id),
                                   loopback_mesh(base), runtime_options(seed));
  const double mesh_us = seconds_since(mesh_start) * 1e6;
  std::cout << "ready mesh_us=" << format_number(mesh_us) << std::endl;
  std::string command;
  if (!std::getline(std::cin, command) || command != "go") return 1;

  const auto start = Clock::now();
  const auto result =
      eppi::core::run_construction_party(runtime.context(), row, eps, options);
  const double construct_us = seconds_since(start) * 1e6;
  bool covers = result.published_row.size() == row.size();
  for (std::size_t j = 0; covers && j < row.size(); ++j) {
    covers = row[j] == 0 || result.published_row[j] != 0;
  }
  const auto cost = runtime.context().local_meter().snapshot();
  std::ostringstream done;
  done << "done covers=" << (covers ? 1 : 0)
       << " construct_us=" << format_number(construct_us)
       << " mesh_us=" << format_number(mesh_us) << " bytes=" << cost.bytes
       << " messages=" << cost.messages << " rounds=" << cost.rounds
       << " retransmits="
       << (runtime.reliable() ? runtime.reliable()->stats().retransmits : 0)
       << " attempts=" << result.secsum_attempts;
  if (result.coordinator) {
    const auto& view = *result.coordinator;
    done << " common=" << view.common_count
         << " lambda=" << format_number(view.lambda) << " and_gates="
         << view.count_below_stats.and_gates + view.mix_reveal_stats.and_gates
         << " and_depth="
         << view.count_below_stats.and_depth + view.mix_reveal_stats.and_depth;
  }
  if (traced) {
    auto& sink = eppi::obs::default_sink();
    const auto events = sink.drain();
    const auto ms = phase_ms(events, id);
    const char* keys[] = {"secsum_us", "count_below_us", "mix_reveal_us",
                          "broadcast_us", "publish_us"};
    for (std::size_t i = 0; i < ms.size(); ++i) {
      done << ' ' << keys[i] << '=' << format_number(ms[i] * 1000.0);
    }
    done << " spans=" << events.size() << " dropped=" << sink.dropped();
  }
  std::cout << done.str() << std::endl;
  if (!std::getline(std::cin, command) || command != "exit") return 1;
  runtime.shutdown();
  return 0;
}

// ------------------------------------------------------------------ main

int usage() {
  std::cerr << "usage: bench_e2e --workload lookup_batch|churn|"
               "construct_m4 --seed S --seconds T --trace 0|1 --cli PATH "
               "--work DIR\n";
  return 2;
}

std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  std::map<std::string, std::string> args;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string key = argv[a];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[a + 1];
  }
  if (argc % 2 == 0) return usage();
  const auto arg = [&](const char* key) -> const std::string& {
    const auto it = args.find(key);
    if (it == args.end()) throw std::invalid_argument(std::string("missing --") + key);
    return it->second;
  };
  try {
    if (args.count("party") != 0) {
      return party_main(std::stoul(arg("party")), arg("work"),
                        static_cast<std::uint16_t>(std::stoul(arg("port-base"))),
                        std::stoull(arg("seed")), arg("trace") == "1");
    }
    RunContext ctx;
    ctx.workload = arg("workload");
    ctx.seed = std::stoull(arg("seed"));
    ctx.seconds = std::stod(arg("seconds"));
    ctx.traced = arg("trace") == "1";
    ctx.cli = arg("cli");
    ctx.work = arg("work");
    ctx.self_exe = self_exe();
    if (ctx.seconds <= 0.0) return usage();
    std::filesystem::create_directories(ctx.work);
    std::fprintf(stderr, "bench_e2e %s seed %llu: build %s, %u cpus\n",
                 ctx.workload.c_str(),
                 static_cast<unsigned long long>(ctx.seed),
                 eppi::bench::build_info_json().c_str(),
                 std::thread::hardware_concurrency());

    LayerValues e2e, layer;
    Outcome outcome;
    if (ctx.workload == "lookup_batch") {
      run_lookup(ctx, e2e, layer, outcome);
    } else if (ctx.workload == "churn") {
      run_churn(ctx, e2e, layer, outcome);
    } else if (ctx.workload == "construct_m4") {
      run_construct(ctx, e2e, layer, outcome);
    } else {
      return usage();
    }
    for (const auto& e : outcome.errors) std::cerr << "CHECK FAILED: " << e << '\n';
    std::cout << (ctx.traced ? result_json(outcome, layer, kPerLayer)
                             : result_json(outcome, e2e, kEndToEnd))
              << std::endl;
    return outcome.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << '\n';
    return 1;
  }
}
