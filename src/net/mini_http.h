// Minimal embedded HTTP server for operational endpoints.
//
// Serves the deployment surface's pull-based interfaces — GET /metrics
// (Prometheus text), GET /healthz, POST/GET /query — with the smallest
// implementation that speaks enough HTTP/1.1 for curl and Prometheus: one
// accept thread, one short-lived thread per connection, Connection: close
// on every response. Request bodies are bounded; a client trickling bytes
// is cut off by a socket receive timeout so a stuck scraper can never wedge
// the daemon. This is an operational side-channel, deliberately not a
// high-throughput API (the serving tier's LocatorService is the data
// plane).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace eppi::net {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/metrics" (query string included verbatim)
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class MiniHttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Handler runs on a per-connection thread; it must be thread-safe.
  MiniHttpServer(std::uint16_t port, Handler handler);
  ~MiniHttpServer();

  MiniHttpServer(const MiniHttpServer&) = delete;
  MiniHttpServer& operator=(const MiniHttpServer&) = delete;

  // Binds (throws ProtocolError on failure) and serves until stop().
  void start() EPPI_EXCLUDES(mutex_);
  void stop() EPPI_EXCLUDES(mutex_);

  // The bound port (useful when constructed with port 0).
  std::uint16_t port() const noexcept { return port_; }

 private:
  // Thread-per-connection by design: these may block in accept/recv/send,
  // so they must never run on (or be reached from) an event-loop thread —
  // deliberately NOT EPPI_LOOP_AFFINE. Both take mutex_ internally.
  void accept_loop() EPPI_EXCLUDES(mutex_);
  void handle_connection(int fd) EPPI_EXCLUDES(mutex_);

  std::uint16_t port_;
  Handler handler_;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  mutable Mutex mutex_;
  // Connection threads still serving, keyed by their own id so a finishing
  // thread can find its handle. A finishing thread parks its handle in
  // last_finished_ and joins the one parked before it, so finished threads
  // are reaped one behind another instead of held until stop(), and
  // neither the accept loop nor a client ever waits on a join.
  std::unordered_map<std::thread::id, std::thread> conn_threads_
      EPPI_GUARDED_BY(mutex_);
  std::thread last_finished_ EPPI_GUARDED_BY(mutex_);
  std::set<int> live_fds_ EPPI_GUARDED_BY(mutex_);
  bool stopping_ EPPI_GUARDED_BY(mutex_) = false;
  bool started_ = false;
};

}  // namespace eppi::net
