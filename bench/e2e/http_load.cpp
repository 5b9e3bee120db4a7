#include "http_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "runner.h"

namespace eppi::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRequestTimeoutMs = 5000;

struct CpuSplit {
  cpu_set_t generator;  // the first CPU this process may use
  cpu_set_t server;     // the others
  bool split = false;
};

// Read once, from a thread whose mask nothing has narrowed yet: the main
// thread (or one it started) at the first ServerCpus or run_open_loop.
const CpuSplit& cpu_split() {
  static const CpuSplit split = [] {
    CpuSplit s;
    CPU_ZERO(&s.generator);
    CPU_ZERO(&s.server);
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2) {
      return s;
    }
    bool first = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &all)) continue;
      CPU_SET(cpu, first ? &s.generator : &s.server);
      first = false;
    }
    s.split = true;
    return s;
  }();
  return split;
}

void set_timeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Status code and body of a complete Connection: close response, or
// status 0 when the bytes are not one.
HttpReply parse_response(const std::string& raw) {
  HttpReply reply;
  const auto header_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || header_end == std::string::npos) {
    return reply;
  }
  const int status = std::atoi(raw.c_str() + 9);
  std::string lower = raw.substr(0, header_end);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  const auto cl = lower.find("content-length:");
  if (cl == std::string::npos) return reply;
  const auto length = std::strtoull(lower.c_str() + cl + 15, nullptr, 10);
  if (raw.size() - (header_end + 4) != length) return reply;  // truncated
  reply.status = status;
  reply.body = raw.substr(header_end + 4);
  return reply;
}

}  // namespace

HttpReply http_call(std::uint16_t port, const std::string& request,
                    int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  set_timeouts(fd, timeout_ms);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string raw;
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  for (std::size_t off = 0; ok && off < request.size();) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) ok = false;
    else off += static_cast<std::size_t>(n);
  }
  char chunk[16384];
  while (ok) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) ok = false;
    if (n <= 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ok ? parse_response(raw) : HttpReply{};
}

std::string http_get(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

std::string http_post(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

LoadResult run_open_loop(const LoadSpec& spec) {
  const auto total =
      static_cast<std::size_t>(spec.rate * spec.seconds + 0.5);
  const double period_ns = 1e9 / spec.rate;
  std::atomic<std::size_t> next{0};
  std::vector<LoadResult> parts(spec.threads);
  std::vector<double> late_by_k(total, 0.0);
  std::vector<double> latency_by_k(total, -1.0);  // -1: failed
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const CpuSplit& cpus = cpu_split();

  const auto worker = [&](LoadResult& out) {
    if (cpus.split) {
      (void)::sched_setaffinity(0, sizeof(cpus.generator), &cpus.generator);
    }
    // Default timer slack (50 us) would make every wake-up late by that
    // much; the generator's lateness must stay far below the SLOs.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= total) break;
      const auto due = start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                   period_ns * static_cast<double>(k)));
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      late_by_k[k] =
          std::chrono::duration<double, std::micro>(sent - due).count();
      ++out.attempted;
      const HttpReply reply =
          http_call(spec.port, spec.request(k), kRequestTimeoutMs);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      if (reply.status != 200) {
        ++out.failed;
        continue;
      }
      latency_by_k[k] = ms;
      out.response_bytes += reply.body.size();
      if (spec.check && k % spec.check_every == 0 &&
          !spec.check(k, reply.body)) {
        ++out.wrong;
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < spec.threads; ++t) {
    threads.emplace_back(worker, std::ref(parts[t]));
  }
  for (auto& t : threads) t.join();

  LoadResult result;
  for (const double ms : latency_by_k) {
    if (ms >= 0.0) result.latency_ms.push_back(ms);
  }
  for (auto& p : parts) {
    result.attempted += p.attempted;
    result.failed += p.failed;
    result.wrong += p.wrong;
    result.response_bytes += p.response_bytes;
  }
  result.late_us = late_by_k;
  const std::size_t tail_from = total - total / 10;
  std::vector<double> tail(late_by_k.begin() + static_cast<std::ptrdiff_t>(tail_from),
                           late_by_k.end());
  result.tail_late_ms = summarize(std::move(tail)).median / 1000.0;
  return result;
}

ServerCpus::ServerCpus() {
  const CpuSplit& cpus = cpu_split();
  (void)::sched_getaffinity(0, sizeof(saved_), &saved_);
  if (cpus.split) (void)::sched_setaffinity(0, sizeof(cpus.server), &cpus.server);
}

ServerCpus::~ServerCpus() {
  (void)::sched_setaffinity(0, sizeof(saved_), &saved_);
}

}  // namespace eppi::bench
