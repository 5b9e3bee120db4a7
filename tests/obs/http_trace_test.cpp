// Lookup-path spans over a real server: a /query through MiniHttpServer and
// LocatorHttp leaves one `http.request` span whose children are
// `http.parse` (loop thread), `query.ppi_many` and `http.encode` (pool
// thread) and `http.write` (loop thread). A full rebuild leaves
// `serve.rebuild` with children `serve.rebuild.beta` and `.emit` (which
// encodes too). No /trace export carries a span without its parent: the /trace
// request's own spans leave with the next export. And the privacy rule for
// exported telemetry: no owner name a client asked about or delegated
// appears in /trace or /slowlog — span attributes and slow-log entries
// carry sizes, counts, timings and status only.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/locator_http.h"
#include "core/locator_service.h"
#include "net/mini_http.h"
#include "obs/trace.h"
#include "obs/trace_json.h"

namespace eppi::core {
namespace {

// One Connection: close exchange; returns the body of a 200, else "".
std::string exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  const timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    char chunk[8192];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
      raw.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 200", 0) != 0) return {};
  return raw.substr(raw.find("\r\n\r\n") + 4);
}

std::string post(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string get(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
}

TEST(HttpTraceTest, QuerySpansFormOneTreeAndCarryNoOwnerNames) {
  LocatorService::Options options;
  options.distributed = false;
  options.seed = 3;
  options.enable_delta = false;  // the second epoch is a full rebuild
  LocatorService service(options);
  const std::vector<std::string> owners = {"zq-owner-alpha", "zq-owner-beta",
                                           "zq-owner-gamma"};
  for (std::size_t j = 0; j < owners.size(); ++j) {
    for (std::size_t i = 0; i <= j; ++i) {
      service.delegate(owners[j], 0.6, "prov" + std::to_string(i));
    }
  }
  service.construct_ppi();
  LocatorHttp routes(service);
  net::MiniHttpServer server(
      0, [&](const net::HttpRequest& req) { return routes(req); });
  server.start();
  (void)obs::default_sink().drain();  // only this test's spans from here on

  const std::string answer = exchange(
      server.port(), post("/query", owners[0] + "\n" + owners[2] + "\n"));
  ASSERT_NE(answer.find("zq-owner-gamma,prov2\n"), std::string::npos);
  ASSERT_FALSE(exchange(server.port(), get("/query?owner=zq-owner-beta"))
                   .empty());
  // A new ε for one owner; with deltas off the next epoch is a full rebuild.
  service.delegate(owners[1], 0.7, "prov0");
  service.construct_ppi();
  ASSERT_FALSE(service.last_rebuild().delta);
  const std::string trace = exchange(server.port(), get("/trace"));
  const std::string slowlog = exchange(server.port(), get("/slowlog"));
  const std::string next_trace = exchange(server.port(), get("/trace"));
  server.stop();

  ASSERT_FALSE(trace.empty());
  ASSERT_FALSE(slowlog.empty());
  for (const auto& owner : owners) {
    EXPECT_EQ(trace.find(owner), std::string::npos) << owner;
    EXPECT_EQ(slowlog.find(owner), std::string::npos) << owner;
  }
  // Not even a fragment: the common prefix of every owner name.
  EXPECT_EQ(trace.find("zq-owner"), std::string::npos);

  const auto parse = [](const std::string& jsonl) {
    std::vector<obs::TraceEvent> parsed;
    std::istringstream lines(jsonl);
    for (std::string line; std::getline(lines, line);) {
      obs::TraceEvent ev;
      if (obs::parse_trace_line(line, &ev)) parsed.push_back(ev);
    }
    return parsed;
  };
  const std::vector<obs::TraceEvent> events = parse(trace);
  const std::vector<obs::TraceEvent> next_events = parse(next_trace);
  // Every exported span's parent is in the same export (or it is a root):
  // the /trace request's own spans wait for its http.request, which ends
  // after the answer is written, and leave with it at the next drain.
  for (const auto* exported : {&events, &next_events}) {
    std::set<std::uint64_t> ids;
    for (const auto& ev : *exported) ids.insert(ev.span);
    for (const auto& ev : *exported) {
      EXPECT_TRUE(ev.parent == 0 || ids.count(ev.parent) == 1)
          << ev.name << " exported without its parent";
    }
  }
  // The first /trace request's spans (its answer's size identifies it) all
  // leave with the second export.
  const obs::TraceEvent* first_drain = nullptr;
  for (const auto& ev : next_events) {
    if (ev.name == "http.request" && ev.attr_u64("response_bytes") ==
                                         trace.size()) {
      first_drain = &ev;
    }
  }
  ASSERT_NE(first_drain, nullptr);
  std::vector<std::string> drain_children;
  for (const auto& ev : next_events) {
    if (ev.parent == first_drain->span) drain_children.push_back(ev.name);
  }
  std::sort(drain_children.begin(), drain_children.end());
  EXPECT_EQ(drain_children,
            (std::vector<std::string>{"http.parse", "http.write"}));
  for (const auto& ev : events) {
    EXPECT_NE(ev.trace, first_drain->span) << ev.name;
  }

  // The two /query requests recorded before /trace drained the ring.
  std::map<std::uint64_t, std::vector<std::string>> children;
  std::vector<const obs::TraceEvent*> queries;
  for (const auto& ev : events) {
    if (ev.name == "http.request" && ev.attr_u64("response_bytes") > 0) {
      queries.push_back(&ev);
    }
  }
  for (const auto& ev : events) {
    if (ev.parent != 0) children[ev.parent].push_back(ev.name);
  }
  // The full rebuild: two child spans whose attributes are counts only.
  const obs::TraceEvent* rebuild = nullptr;
  for (const auto& ev : events) {
    if (ev.name == "serve.rebuild") rebuild = &ev;
  }
  ASSERT_NE(rebuild, nullptr);
  std::vector<std::string> phases = children[rebuild->span];
  std::sort(phases.begin(), phases.end());
  EXPECT_EQ(phases, (std::vector<std::string>{"serve.rebuild.beta",
                                              "serve.rebuild.emit"}));
  // Every published cell of the epoch, as the queries below see it (the
  // trace was drained already, so their spans do not reach `events`).
  std::size_t published = 0;
  for (const auto& owner : owners) published += service.query_ppi(owner).size();
  for (const auto& ev : events) {
    if (ev.name.rfind("serve.rebuild.", 0) != 0) continue;
    EXPECT_EQ(ev.parent, rebuild->span) << ev.name;
    for (const auto& attr : ev.attrs) {
      EXPECT_EQ(attr.kind, obs::TraceEvent::Attr::Kind::kU64)
          << ev.name << "." << attr.key;
    }
    if (ev.name == "serve.rebuild.emit") {
      EXPECT_EQ(ev.attr_u64("identities"), owners.size());
      EXPECT_TRUE(ev.has_attr("cells_hashed"));
      EXPECT_TRUE(ev.has_attr("full_columns"));
      EXPECT_EQ(ev.attr_u64("entries"), published);
    }
  }

  ASSERT_EQ(queries.size(), 2u);
  for (const obs::TraceEvent* request : queries) {
    EXPECT_EQ(request->parent, 0u);
    EXPECT_EQ(request->attr_u64("status"), 200u);
    EXPECT_GT(request->attr_u64("request_bytes"), 0u);
    auto names = children[request->span];
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"http.encode", "http.parse",
                                               "http.write",
                                               "query.ppi_many"}));
  }
}

}  // namespace
}  // namespace eppi::core
