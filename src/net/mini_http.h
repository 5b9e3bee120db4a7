// Minimal embedded HTTP/1.1 server for the daemons' endpoints.
//
// Serves the deployment surface's pull-based interfaces — GET /metrics
// (Prometheus text), GET /healthz, /trace, POST/GET /query — speaking
// enough HTTP/1.1 for curl, Prometheus and the benchmark's load client.
//
// I/O model: one EventLoop thread (net/event_loop.h) owns every socket.
// Accept, read and write are nonblocking on that thread; the loop frames a
// request (headers, then Content-Length bytes of body) and hands it to a
// fixed pool of handler threads. The handler's response comes back to the
// loop, which writes head and body with one sendmsg and finishes whatever
// the kernel did not take on EPOLLOUT. While a handler runs, its
// connection is out of the epoll set, so the loop never touches it.
//
// Pool: twice hardware_concurrency threads, at least 4 and at most 16,
// started by start(). Handlers may block (a daemon /rebuild holds its
// thread for about a second, /delegate waits on the admin mutex), and the
// spare threads keep reads from queueing behind them. Handlers run
// concurrently and must be thread-safe.
//
// Keep-alive is opt-in: a connection stays open for the next request only
// when the request says `Connection: keep-alive`, and the response then
// says the same. Every other response says `Connection: close` and the
// server closes after writing it. A client reading to EOF never waits on
// an idle connection.
//
// Bounds: the request line, headers and body together are at most 1 MiB.
// A request must arrive whole within 2 s of the connection opening (or of
// the previous response on a kept connection), and a response the client
// stops reading for 2 s is abandoned; both cut-offs are one loop timer per
// connection. An idle kept connection is closed at the deadline.
//
// Status codes the server itself answers, never calling the handler:
//   400  malformed request line or headers, a body cut short by the
//        client's hang-up, or a request still incomplete at the deadline;
//   413  Content-Length (or the header section) past the 1 MiB bound.
// After either, the server stops writing, discards further input until
// EOF or the deadline, and closes. A handler that throws answers 500 with
// the exception's message. Everything else is the handler's status.
//
// Tracing: every request is an `http.request` span (attributes: status,
// request and response bytes) with children `http.parse` (loop thread,
// framing and parsing), whatever the handler opens on its pool thread
// (SpanContextScope parents it), and `http.write` (from the response's
// arrival on the loop to its last byte; attributes: bytes, sendmsg calls).
// Attributes are sizes and status only, never paths or bodies.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "obs/trace.h"

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

  // Handler runs on the pool threads; it must be thread-safe.
  MiniHttpServer(std::uint16_t port, Handler handler);
  ~MiniHttpServer();

  MiniHttpServer(const MiniHttpServer&) = delete;
  MiniHttpServer& operator=(const MiniHttpServer&) = delete;

  // Binds (throws ProtocolError on failure), starts the loop and the pool,
  // and serves until stop().
  void start() EPPI_EXCLUDES(mutex_);
  // Stops the loop, waits for handlers in flight, drops queued requests and
  // closes every connection. Idempotent.
  void stop() EPPI_EXCLUDES(mutex_);

  // The bound port (useful when constructed with port 0).
  std::uint16_t port() const noexcept { return port_; }

 private:
  // Loop-thread state of one connection.
  struct Conn {
    std::string in;            // bytes read and not yet consumed
    std::size_t scanned = 0;   // prefix of `in` known to hold no "\r\n\r\n"
    std::size_t need = 0;      // framed request size; 0 = head incomplete
    std::uint32_t events = 0;  // current epoll interest; 0 = not registered
    EventLoop::TimerId deadline = 0;
    bool keep_alive = false;   // keep the connection after this response
    bool rejected = false;     // answered 400/413: drain input, then close
    std::string head;          // response being written: head, then body
    std::string body;
    std::size_t sent = 0;
    std::uint64_t sendmsg_calls = 0;
    obs::DetachedSpan request_span;
    obs::DetachedSpan write_span;
  };

  struct Job {
    int fd = -1;
    HttpRequest request;
    obs::SpanContext span;
  };

  void on_accept() EPPI_LOOP_AFFINE;
  void on_conn_event(int fd, std::uint32_t events) EPPI_LOOP_AFFINE;
  void on_deadline(int fd) EPPI_LOOP_AFFINE;
  void read_input(int fd, Conn& c) EPPI_LOOP_AFFINE;
  // Frames and parses a complete request in c.in and queues it for the
  // pool; answers 400/413 itself; waits when more bytes are needed.
  void dispatch(int fd, Conn& c, bool eof) EPPI_LOOP_AFFINE;
  void reject(int fd, Conn& c, int status, const char* body) EPPI_LOOP_AFFINE;
  void respond(int fd, HttpResponse resp) EPPI_LOOP_AFFINE;
  void begin_write(int fd, Conn& c, HttpResponse resp) EPPI_LOOP_AFFINE;
  void flush(int fd, Conn& c) EPPI_LOOP_AFFINE;
  void finish_response(int fd, Conn& c) EPPI_LOOP_AFFINE;
  void watch(int fd, Conn& c, std::uint32_t events) EPPI_LOOP_AFFINE;
  void arm_deadline(int fd, Conn& c) EPPI_LOOP_AFFINE;
  void close_conn(int fd) EPPI_LOOP_AFFINE;

  // Pool thread body: runs queued requests through the handler.
  void work() EPPI_EXCLUDES(mutex_);

  std::uint16_t port_;
  Handler handler_;
  int listen_fd_ = -1;
  bool started_ = false;

  EventLoop loop_;
  std::thread loop_thread_;
  std::vector<std::thread> pool_;
  // Loop thread only (stop() touches it after joining the loop and pool).
  std::map<int, Conn> conns_;

  mutable Mutex mutex_;
  CondVar work_cv_;
  std::deque<Job> jobs_ EPPI_GUARDED_BY(mutex_);
  bool stopping_ EPPI_GUARDED_BY(mutex_) = false;
};

}  // namespace eppi::net
