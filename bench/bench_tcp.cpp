// Transport ablation: in-process cluster vs. real loopback TCP.
//
// Every protocol runs on both harnesses through the same PartyContext; this
// bench quantifies what the socket path adds (syscalls, framing, TCP stack)
// for the two construction stages, so deployments can extrapolate from the
// in-process benches. On a real LAN the cost model's RTT/bandwidth terms
// dominate instead — see net/cost_model.h. The measured loopback RTT is
// reported so a deployment can calibrate CostModel::rtt against its own
// network (docs/deployment.md shows the arithmetic).
//
// Each ablation row is the median of several runs, each timed from the
// moment every party is up to the moment every party is done.
//
// Usage: bench_tcp [--smoke] [--json <path>]
//   --smoke   smallest sizes only (CI gate)
//   --json    machine-readable results (default BENCH_tcp.json)
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <functional>
#include <iostream>
#include <latch>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/construction_party.h"
#include "dataset/synthetic.h"
#include "net/cluster.h"
#include "net/socket_transport.h"
#include "secret/sec_sum_share.h"

namespace {

using eppi::net::Endpoint;
using eppi::net::PartyContext;
using eppi::net::PartyId;

std::uint16_t find_port_base(std::size_t count) {
  static std::uint16_t cursor = static_cast<std::uint16_t>(
      23000 + (::getpid() * 37) % 8000);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::uint16_t base = cursor;
    cursor = static_cast<std::uint16_t>(cursor + count + 1);
    bool all_free = true;
    for (std::size_t k = 0; k < count && all_free; ++k) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return base;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(base + k));
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        all_free = false;
      }
      ::close(fd);
    }
    if (all_free) return base;
  }
  return 23000;
}

using Body = std::function<void(PartyContext&, std::size_t)>;

// Times the protocol alone on either harness: the clock starts once every
// party is up (threads spawned, sockets meshed) and stops once every
// party's body has returned, before any teardown.
class ProtocolClock {
 public:
  explicit ProtocolClock(std::size_t m)
      : ready_(static_cast<std::ptrdiff_t>(m)),
        finished_(static_cast<std::ptrdiff_t>(m)) {}

  void run(PartyContext& ctx, std::size_t i, const Body& body) {
    ready_.arrive_and_wait();
    if (i == 0) start_ = std::chrono::steady_clock::now();
    body(ctx, i);
    finished_.arrive_and_wait();
    if (i == 0) stop_ = std::chrono::steady_clock::now();
  }

  double ms() const {
    return std::chrono::duration<double, std::milli>(stop_ - start_).count();
  }

 private:
  std::latch ready_;
  std::latch finished_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point stop_;
};

double run_inproc(std::size_t m, const Body& body) {
  eppi::net::Cluster cluster(m, 3);
  ProtocolClock clock(m);
  cluster.run([&](PartyContext& ctx) { clock.run(ctx, ctx.id(), body); });
  return clock.ms();
}

double run_tcp(std::size_t m, const Body& body) {
  const std::uint16_t base = find_port_base(m);
  std::vector<Endpoint> endpoints(m);
  for (std::size_t i = 0; i < m; ++i) {
    endpoints[i].port = static_cast<std::uint16_t>(base + i);
  }
  ProtocolClock clock(m);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < m; ++i) {
    threads.emplace_back([&, i] {
      eppi::net::SocketRuntime runtime(static_cast<PartyId>(i), endpoints, 3);
      clock.run(runtime.context(), i, body);
    });
  }
  for (auto& t : threads) t.join();
  return clock.ms();
}

// Median of `reps` timings: one shot of a few-millisecond protocol is
// mostly scheduler noise.
double median_ms(int reps, const std::function<double()>& once) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) ms.push_back(once());
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

// Application-level round trip over an established loopback link: send one
// tiny frame, wait for the echo. Includes the full runtime path (post to the
// loop, framing, epoll wakeups, mailbox delivery) on both ends — the number
// a deployment compares against its own ping to calibrate the cost model.
struct RttResult {
  int iters = 0;
  double p50_us = 0.0;
  double avg_us = 0.0;
};

RttResult measure_loopback_rtt(int iters) {
  const std::uint16_t base = find_port_base(2);
  std::vector<Endpoint> endpoints(2);
  endpoints[0].port = base;
  endpoints[1].port = static_cast<std::uint16_t>(base + 1);
  RttResult result;
  result.iters = iters;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  std::thread echo([&] {
    eppi::net::SocketRuntime runtime(1, endpoints, 11);
    for (int k = 0; k < iters; ++k) {
      auto ping = runtime.context().recv(0, eppi::net::MessageTag::kUserBase,
                                         static_cast<std::uint64_t>(k));
      runtime.context().send(0, eppi::net::MessageTag::kUserBase + 1,
                             static_cast<std::uint64_t>(k), std::move(ping));
    }
  });
  {
    eppi::net::SocketRuntime runtime(0, endpoints, 12);
    for (int k = 0; k < iters; ++k) {
      const auto start = std::chrono::steady_clock::now();
      runtime.context().send(1, eppi::net::MessageTag::kUserBase,
                             static_cast<std::uint64_t>(k), {0x55});
      (void)runtime.context().recv(1, eppi::net::MessageTag::kUserBase + 1,
                                   static_cast<std::uint64_t>(k));
      samples.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
    echo.join();
  }
  double sum = 0.0;
  for (const double s : samples) sum += s;
  result.avg_us = samples.empty() ? 0.0 : sum / samples.size();
  std::sort(samples.begin(), samples.end());
  if (!samples.empty()) result.p50_us = samples[samples.size() / 2];
  return result;
}

struct AblationRow {
  std::string protocol;
  std::size_t parties = 0;
  double inproc_ms = 0.0;
  double tcp_ms = 0.0;
};

void write_json(const std::string& path, bool smoke, int reps,
                const RttResult& rtt,
                const std::vector<AblationRow>& ablation) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"tcp\",\n";
  out << "  \"build\": " << eppi::bench::build_info_json() << ",\n";
  out << "  \"config\": {\"smoke\": " << (smoke ? "true" : "false")
      << ", \"reps\": " << reps << "},\n";
  out << "  \"loopback_rtt\": {\"iters\": " << rtt.iters
      << ", \"p50_us\": " << rtt.p50_us << ", \"avg_us\": " << rtt.avg_us
      << "},\n";
  out << "  \"ablation\": [\n";
  for (std::size_t k = 0; k < ablation.size(); ++k) {
    const auto& r = ablation[k];
    out << "    {\"protocol\": \"" << r.protocol
        << "\", \"parties\": " << r.parties
        << ", \"inproc_ms\": " << r.inproc_ms << ", \"tcp_ms\": " << r.tcp_ms
        << "}" << (k + 1 < ablation.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  std::cerr << "wrote " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_tcp.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else {
      std::cerr << "usage: bench_tcp [--smoke] [--json <path>]\n";
      return 2;
    }
  }

  const std::size_t kN = smoke ? 32 : 64;  // identities
  const int kReps = smoke ? 5 : 9;
  eppi::bench::ResultTable table(
      {"protocol", "parties", "inproc-ms", "tcp-ms"});
  std::vector<AblationRow> ablation;

  const std::vector<unsigned> secsum_sizes =
      smoke ? std::vector<unsigned>{4u} : std::vector<unsigned>{4u, 8u};
  for (const std::size_t m : secsum_sizes) {
    // Inputs shared by both harnesses.
    eppi::Rng rng(m);
    std::vector<std::vector<std::uint8_t>> inputs(
        m, std::vector<std::uint8_t>(kN));
    for (auto& row : inputs) {
      for (auto& bit : row) bit = rng.bernoulli(0.3) ? 1 : 0;
    }
    const eppi::secret::SecSumShareParams params{3, 0, kN};
    const auto body = [&](PartyContext& ctx, std::size_t i) {
      (void)eppi::secret::run_sec_sum_share_party(ctx, params, inputs[i]);
    };
    AblationRow arow{"secsumshare", m,
                     median_ms(kReps, [&] { return run_inproc(m, body); }),
                     median_ms(kReps, [&] { return run_tcp(m, body); })};
    table.add_row({arow.protocol, std::to_string(m),
                   eppi::bench::fmt(arow.inproc_ms, 2),
                   eppi::bench::fmt(arow.tcp_ms, 2)});
    ablation.push_back(std::move(arow));
  }

  const std::vector<unsigned> construction_sizes =
      smoke ? std::vector<unsigned>{4u} : std::vector<unsigned>{4u, 6u};
  for (const std::size_t m : construction_sizes) {
    eppi::Rng rng(m + 50);
    std::vector<std::vector<std::uint8_t>> rows(
        m, std::vector<std::uint8_t>(8));
    for (auto& row : rows) {
      for (auto& bit : row) bit = rng.bernoulli(0.4) ? 1 : 0;
    }
    const auto epsilons = eppi::dataset::random_epsilons(8, rng, 0.3, 0.7);
    eppi::core::DistributedOptions options;
    options.c = 3;
    options.coin_bits = 8;
    const auto body = [&](PartyContext& ctx, std::size_t i) {
      (void)eppi::core::run_construction_party(ctx, rows[i], epsilons,
                                               options);
    };
    AblationRow arow{"construction", m,
                     median_ms(kReps, [&] { return run_inproc(m, body); }),
                     median_ms(kReps, [&] { return run_tcp(m, body); })};
    table.add_row({arow.protocol, std::to_string(m),
                   eppi::bench::fmt(arow.inproc_ms, 2),
                   eppi::bench::fmt(arow.tcp_ms, 2)});
    ablation.push_back(std::move(arow));
  }
  table.print("Transport ablation: in-process vs loopback TCP");

  const RttResult rtt = measure_loopback_rtt(smoke ? 100 : 500);
  eppi::bench::ResultTable rtt_table({"iters", "p50-us", "avg-us"});
  rtt_table.add_row({std::to_string(rtt.iters), eppi::bench::fmt(rtt.p50_us, 1),
                     eppi::bench::fmt(rtt.avg_us, 1)});
  rtt_table.print("Loopback application-level round trip (1-byte echo)");

  std::cout << "\nLoopback TCP adds connection setup + syscall/framing "
               "overhead; on a real\nnetwork the cost model's RTT and "
               "bandwidth terms dominate instead. Calibrate\n"
               "CostModel::rtt with (your ping) + (p50 above) as the "
               "per-round floor.\n";

  write_json(json_path, smoke, kReps, rtt, ablation);
  return 0;
}
