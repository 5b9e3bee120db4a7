// MiniHttpServer under concurrent and misbehaving clients: parallel
// clients hitting /metrics, /healthz and /trace must each get a complete,
// well-formed response — no torn bodies, no cross-connection mixups; a
// kept connection serves many requests and closes when the client stops
// asking; slow, truncated and oversized requests are cut off without
// reaching the handler; and a long run of requests leaves the thread and
// mapping counts where they were. The CI TSan job runs this binary
// (`ctest -L concurrency`), certifying the loop/pool hand-off race-free.
#include "net/mini_http.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace eppi::net {
namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval tv{10, 0};  // a hung server fails the test, not the suite
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

struct Reply {
  int status = 0;  // 0: no complete response
  std::string head;
  std::string body;
};

// Reads one response (head + Content-Length body) off `fd`; bytes read
// past it stay in `buffer` for the next call. Status 0 if the connection
// ended first.
Reply read_reply(int fd, std::string& buffer) {
  Reply reply;
  char chunk[8192];
  for (;;) {
    const auto head_end = buffer.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      reply.head = buffer.substr(0, head_end);
      const auto cl = reply.head.find("Content-Length: ");
      if (cl == std::string::npos) return reply;
      const std::size_t length =
          std::strtoull(reply.head.c_str() + cl + 16, nullptr, 10);
      if (buffer.size() >= head_end + 4 + length) {
        reply.body = buffer.substr(head_end + 4, length);
        buffer.erase(0, head_end + 4 + length);
        reply.status = std::atoi(reply.head.c_str() + 9);
        return reply;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return reply;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

// True when the server closes `fd` (recv sees EOF) with no further bytes.
bool closed_by_server(int fd) {
  char byte;
  return ::recv(fd, &byte, 1, 0) == 0;
}

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
  server.stop();  // must wait for handlers in flight, not abandon them
  for (auto& c : clients) c.join();
  SUCCEED();
}

std::size_t mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

std::size_t thread_count() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::size_t threads = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  ::closedir(dir);
  return threads;
}

TEST(MiniHttpConcurrencyTest, SequentialRequestsLeaveThreadsAndMappingsFlat) {
  // The server's threads are its loop and a fixed pool started by start():
  // connections cost no thread, so a long run of requests must leave the
  // thread count exactly where warm-up left it, and the mappings (thread
  // stacks, arenas) flat.
  MiniHttpServer server(0, [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  });
  server.start();
  const std::uint16_t port = server.port();
  ASSERT_NE(http_get(port, "/warmup").find("HTTP/1.1 200"), std::string::npos);
  const std::size_t threads_before = thread_count();
  const std::size_t maps_before = mapped_regions();
  constexpr int kRequests = 2000;
  int ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (http_get(port, "/x").find("HTTP/1.1 200") == 0) ++ok;
  }
  const std::size_t threads_after = thread_count();
  const std::size_t maps_after = mapped_regions();
  server.stop();
  EXPECT_EQ(ok, kRequests);
  EXPECT_EQ(threads_after, threads_before);
  EXPECT_LT(maps_after, maps_before + 100)
      << "mapped regions " << maps_before << " -> " << maps_after;
}

TEST(MiniHttpConcurrencyTest, KeepAliveIsOptInAndClosesWhenNotAsked) {
  std::atomic<int> requests{0};
  MiniHttpServer server(0, [&](const HttpRequest& req) {
    requests.fetch_add(1);
    HttpResponse resp;
    resp.body = req.path + "|" + req.body;
    return resp;
  });
  server.start();
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::string buffer;
  constexpr int kKept = 25;
  for (int i = 0; i < kKept; ++i) {
    const std::string body = "b" + std::to_string(i);
    ASSERT_TRUE(send_all(fd, "POST /k" + std::to_string(i) +
                                 " HTTP/1.1\r\nConnection: keep-alive\r\n"
                                 "Content-Length: " +
                                 std::to_string(body.size()) + "\r\n\r\n" +
                                 body));
    const Reply reply = read_reply(fd, buffer);
    ASSERT_EQ(reply.status, 200) << "request " << i;
    EXPECT_NE(reply.head.find("Connection: keep-alive"), std::string::npos);
    EXPECT_EQ(reply.body, "/k" + std::to_string(i) + "|" + body);
  }
  // No header: answered, marked close, and the server hangs up.
  ASSERT_TRUE(send_all(fd, "GET /last HTTP/1.1\r\nHost: x\r\n\r\n"));
  const Reply last = read_reply(fd, buffer);
  EXPECT_EQ(last.status, 200);
  EXPECT_NE(last.head.find("Connection: close"), std::string::npos);
  EXPECT_EQ(last.body, "/last|");
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(closed_by_server(fd));
  ::close(fd);
  server.stop();
  EXPECT_EQ(requests.load(), kKept + 1);
}

TEST(MiniHttpConcurrencyTest, SlowClientIsCutOffAtDeadlineWhileOthersServed) {
  std::atomic<int> slow_seen{0};
  MiniHttpServer server(0, [&](const HttpRequest& req) {
    if (req.path == "/slow") slow_seen.fetch_add(1);
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  });
  server.start();
  const std::uint16_t port = server.port();
  const int slow = connect_loopback(port);
  ASSERT_GE(slow, 0);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(send_all(slow, "GET /slow HTTP/1.1\r\nHost: loc"));
  // Others are served, promptly, while the half header sits there.
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    if (http_get(port, "/fast").find("HTTP/1.1 200") == 0) ++ok;
  }
  const auto others_done = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(ok, 50);
  EXPECT_LT(others_done, std::chrono::milliseconds(1500));
  std::string buffer;
  const Reply cut = read_reply(slow, buffer);
  const auto cut_after = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(cut.status, 400);
  EXPECT_TRUE(closed_by_server(slow));
  EXPECT_GE(cut_after, std::chrono::milliseconds(1900));
  EXPECT_LT(cut_after, std::chrono::milliseconds(5000));
  ::close(slow);
  server.stop();
  EXPECT_EQ(slow_seen.load(), 0);
}

TEST(MiniHttpConcurrencyTest, StalledReaderIsCutOffWhileOthersServed) {
  const std::string big(16 << 20, 'z');
  MiniHttpServer server(0, [&](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = req.path == "/big" ? big : "ok\n";
    return resp;
  });
  server.start();
  const std::uint16_t port = server.port();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int small = 4096;  // the server's writes stall almost at once
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(send_all(fd, "GET /big HTTP/1.1\r\n\r\n"));
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    if (http_get(port, "/small").find("HTTP/1.1 200") == 0) ++ok;
  }
  EXPECT_EQ(ok, 20);
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  // Abandoned: what the kernel already held drains, then the stream ends
  // short of the body.
  std::size_t received = 0;
  char chunk[65536];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    received += static_cast<std::size_t>(n);
  }
  const bool ended = n == 0 || errno == ECONNRESET;  // not the 10 s timeout
  ::close(fd);
  server.stop();
  EXPECT_TRUE(ended);
  EXPECT_LT(received, big.size());
}

TEST(MiniHttpConcurrencyTest, TruncatedBodyNeverReachesHandler) {
  std::atomic<int> handled{0};
  MiniHttpServer server(0, [&](const HttpRequest&) {
    handled.fetch_add(1);
    return HttpResponse{};
  });
  server.start();
  const std::string head =
      "POST /delegate HTTP/1.1\r\nContent-Length: 40\r\n\r\n";
  const std::string partial = "owner,0.6,prov12\nowner,0.6,pro";
  {
    // The client hangs up its sending side mid-body.
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, head + partial));
    ::shutdown(fd, SHUT_WR);
    std::string buffer;
    EXPECT_EQ(read_reply(fd, buffer).status, 400);
    EXPECT_TRUE(closed_by_server(fd));
    ::close(fd);
  }
  {
    // The client stalls mid-body past the deadline.
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, head + partial));
    std::string buffer;
    EXPECT_EQ(read_reply(fd, buffer).status, 400);
    ::close(fd);
  }
  server.stop();
  EXPECT_EQ(handled.load(), 0);
}

TEST(MiniHttpConcurrencyTest, OversizeRequestIsRejectedWith413) {
  std::atomic<int> handled{0};
  MiniHttpServer server(0, [&](const HttpRequest&) {
    handled.fetch_add(1);
    return HttpResponse{};
  });
  server.start();
  const std::uint16_t port = server.port();
  {
    // Declared too large: answered from the head alone, the body unread.
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd,
                         "POST /query HTTP/1.1\r\nContent-Length: 2097152"
                         "\r\n\r\n" +
                             std::string(65536, 'x')));
    std::string buffer;
    const Reply reply = read_reply(fd, buffer);
    EXPECT_EQ(reply.status, 413);
    EXPECT_NE(reply.head.find("Payload Too Large"), std::string::npos);
    ::close(fd);
  }
  {
    // A header section that never ends within the bound. The sender runs
    // on its own thread: the server drains what follows the 413.
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::thread sender([fd] {
      (void)send_all(fd, "GET /x HTTP/1.1\r\nX-Pad: " +
                             std::string((1 << 20) + 4096, 'y'));
      ::shutdown(fd, SHUT_WR);
    });
    std::string buffer;
    EXPECT_EQ(read_reply(fd, buffer).status, 413);
    sender.join();
    EXPECT_TRUE(closed_by_server(fd));
    ::close(fd);
  }
  server.stop();
  EXPECT_EQ(handled.load(), 0);
}

}  // namespace
}  // namespace eppi::net
