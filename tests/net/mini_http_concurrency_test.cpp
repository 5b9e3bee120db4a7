// MiniHttpServer under concurrent scrapes: parallel clients hitting
// /metrics, /healthz and /trace must each get a complete, well-formed
// response — no torn bodies, no cross-connection mixups. The CI TSan job
// runs this binary (`ctest -L concurrency`), certifying the handler path
// and the per-connection threads race-free.
#include "net/mini_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace eppi::net {
namespace {

// Blocking HTTP/1.1 GET against loopback; returns the raw response text.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(MiniHttpConcurrencyTest, ParallelScrapesGetCompleteResponses) {
  // Bodies chosen so truncation or interleaving is detectable: each path
  // returns a distinct repeated marker with a known terminator.
  const std::string metrics_body = [] {
    std::string s;
    for (int i = 0; i < 2000; ++i) s += "eppi_test_metric 1\n";
    return s + "# EOF\n";
  }();
  std::atomic<int> requests{0};
  MiniHttpServer server(0, [&](const HttpRequest& req) {
    requests.fetch_add(1, std::memory_order_relaxed);
    HttpResponse resp;
    if (req.path == "/healthz") {
      resp.body = "ok\n";
    } else if (req.path == "/metrics") {
      resp.body = metrics_body;
    } else if (req.path == "/trace") {
      resp.content_type = "application/x-ndjson";
      std::string body;
      for (int i = 0; i < 500; ++i) {
        body += "{\"span\":" + std::to_string(i) + ",\"name\":\"t\"}\n";
      }
      resp.body = body;
    } else {
      resp.status = 404;
      resp.body = "not found\n";
    }
    return resp;
  });
  server.start();
  const std::uint16_t port = server.port();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int which = (t + i) % 3;
        const std::string path =
            which == 0 ? "/metrics" : which == 1 ? "/healthz" : "/trace";
        const std::string resp = http_get(port, path);
        if (resp.find("HTTP/1.1 200") != 0) {
          failures.fetch_add(1);
          continue;
        }
        const auto header_end = resp.find("\r\n\r\n");
        if (header_end == std::string::npos) {
          failures.fetch_add(1);
          continue;
        }
        const std::string body = resp.substr(header_end + 4);
        bool ok = true;
        if (which == 0) {
          ok = body == metrics_body;
        } else if (which == 1) {
          ok = body == "ok\n";
        } else {
          // Full JSONL: first line, last line, and line count all intact.
          ok = body.find("{\"span\":0,") == 0 &&
               body.find("{\"span\":499,") != std::string::npos &&
               std::count(body.begin(), body.end(), '\n') == 500;
        }
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(requests.load(), kThreads * kPerThread);
}

TEST(MiniHttpConcurrencyTest, StopWithInFlightRequestsIsClean) {
  MiniHttpServer server(0, [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "slowish\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return resp;
  });
  server.start();
  const std::uint16_t port = server.port();
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([port] { (void)http_get(port, "/x"); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.stop();  // must join per-connection threads, not abandon them
  for (auto& c : clients) c.join();
  SUCCEED();
}

std::size_t mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(MiniHttpConcurrencyTest, FinishedConnectionThreadsAreReaped) {
  // Every connection runs on its own thread, and a thread that is never
  // joined keeps its stack mapped (about two regions each). Sequential
  // requests must not pile those up until stop(): the mapping count stays
  // flat instead of growing by thousands of lines.
  MiniHttpServer server(0, [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  });
  server.start();
  const std::uint16_t port = server.port();
  (void)http_get(port, "/warmup");
  const std::size_t before = mapped_regions();
  constexpr int kRequests = 2000;
  int ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (http_get(port, "/x").find("HTTP/1.1 200") == 0) ++ok;
  }
  const std::size_t after = mapped_regions();
  server.stop();
  EXPECT_EQ(ok, kRequests);
  EXPECT_LT(after, before + 100) << "mapped regions " << before << " -> "
                                 << after;
}

}  // namespace
}  // namespace eppi::net
