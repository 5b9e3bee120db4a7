#include "net/mini_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "common/logging.h"

namespace eppi::net {

namespace {

constexpr std::size_t kMaxRequestBytes = 1 << 20;  // headers + body bound
constexpr std::chrono::milliseconds kRequestDeadline{2000};
constexpr std::string_view kHeaderEnd = "\r\n\r\n";

std::size_t pool_size() {
  const std::size_t cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(2 * cores, 4, 16);
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// What the header section says about framing and the connection.
struct Head {
  std::string_view method;
  std::string_view path;
  std::size_t content_length = 0;
  bool keep_alive = false;
  int error = 0;  // 400 or 413 when the head is unusable
};

Head parse_head(std::string_view head) {
  Head h;
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == 0 || sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    h.error = 400;
    return h;
  }
  h.method = line.substr(0, sp1);
  h.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view field = rest.substr(0, eol);
    rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 2);
    const std::size_t colon = field.find(':');
    if (colon == std::string_view::npos) {
      h.error = 400;
      return h;
    }
    const std::string_view name = field.substr(0, colon);
    const std::string_view value = trim(field.substr(colon + 1));
    if (iequals(name, "content-length")) {
      std::uint64_t n = 0;
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), n);
      if (ec == std::errc::result_out_of_range) {
        h.error = 413;
        return h;
      }
      if (ec != std::errc{} || end != value.data() + value.size()) {
        h.error = 400;
        return h;
      }
      if (n > kMaxRequestBytes) {
        h.error = 413;
        return h;
      }
      h.content_length = static_cast<std::size_t>(n);
    } else if (iequals(name, "connection")) {
      h.keep_alive = iequals(value, "keep-alive");
    }
  }
  return h;
}

std::string response_head(const HttpResponse& resp, bool keep_alive) {
  std::string head;
  head.reserve(128 + resp.content_type.size());
  head += "HTTP/1.1 ";
  head += std::to_string(resp.status);
  head += ' ';
  head += status_text(resp.status);
  head += "\r\nContent-Type: ";
  head += resp.content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(resp.body.size());
  head += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                     : "\r\nConnection: close\r\n\r\n";
  return head;
}

}  // namespace

MiniHttpServer::MiniHttpServer(std::uint16_t port, Handler handler)
    : port_(port), handler_(std::move(handler)) {}

MiniHttpServer::~MiniHttpServer() { stop(); }

void MiniHttpServer::start() {
  require(!started_, "MiniHttpServer: already started");
  started_ = true;
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  require(listen_fd_ >= 0, "MiniHttpServer: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw eppi::ProtocolError("MiniHttpServer: cannot listen on port " +
                              std::to_string(port_));
  }
  if (port_ == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  loop_thread_ = std::thread([this] { loop_.run(); });
  loop_.post([this] {
    loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
  });
  const std::size_t threads = pool_size();
  pool_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    pool_.emplace_back([this] { work(); });
  }
}

void MiniHttpServer::stop() {
  {
    const MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  for (auto& t : pool_) t.join();
  pool_.clear();
  // Neither the loop nor a handler runs any more: close what they owned.
  // Requests still queued are dropped with their connections.
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MiniHttpServer::work() {
  for (;;) {
    Job job;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && jobs_.empty()) work_cv_.wait(mutex_);
      if (stopping_) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    HttpResponse resp;
    {
      const obs::SpanContextScope parent(job.span);
      try {
        resp = handler_(job.request);
      } catch (const std::exception& e) {
        resp = HttpResponse{};
        resp.status = 500;
        resp.body = std::string("error: ") + e.what() + "\n";
      }
    }
    loop_.post([this, fd = job.fd, resp = std::move(resp)]() mutable {
      respond(fd, std::move(resp));
    });
  }
}

void MiniHttpServer::on_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    // EAGAIN: accepted everything pending. Anything else (a client that
    // reset before accept, fd exhaustion) is retried on the next readiness.
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn& c = conns_[fd];
    watch(fd, c, EPOLLIN);
    arm_deadline(fd, c);
  }
}

void MiniHttpServer::watch(int fd, Conn& c, std::uint32_t events) {
  if (c.events == events) return;
  if (events == 0) {
    loop_.remove_fd(fd);
  } else if (c.events == 0) {
    loop_.add_fd(fd, events,
                 [this, fd](std::uint32_t ready) { on_conn_event(fd, ready); });
  } else {
    loop_.modify_fd(fd, events);
  }
  c.events = events;
}

void MiniHttpServer::arm_deadline(int fd, Conn& c) {
  if (c.deadline != 0) loop_.cancel_timer(c.deadline);
  // close_conn cancels the timer, so when it fires `fd` is still this
  // connection, never a later one that reused the number.
  c.deadline = loop_.add_timer(kRequestDeadline, std::chrono::milliseconds(0),
                               [this, fd] { on_deadline(fd); });
}

void MiniHttpServer::on_deadline(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  c.deadline = 0;
  if (c.rejected || c.in.empty() || !c.head.empty()) {
    // Drained long enough, an idle kept connection, or a client that
    // stopped reading its response.
    close_conn(fd);
  } else {
    reject(fd, c, 400, "request incomplete at deadline\n");
  }
}

void MiniHttpServer::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second.deadline != 0) loop_.cancel_timer(it->second.deadline);
  if (it->second.events != 0) loop_.remove_fd(fd);
  ::close(fd);
  conns_.erase(it);
}

void MiniHttpServer::on_conn_event(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (c.events == EPOLLOUT) {
    flush(fd, c);
  } else if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    read_input(fd, c);
  }
}

void MiniHttpServer::read_input(int fd, Conn& c) {
  char chunk[16384];
  bool eof = false;
  // Stop at the bound: dispatch() answers 413 rather than buffer more.
  while (c.rejected || c.in.size() <= kMaxRequestBytes) {
    // MSG_DONTWAIT: the socket is nonblocking already; the flag makes that
    // visible at the call site (and to eppi_analyze's reactor check).
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      if (!c.rejected) {
        if (c.in.empty() && !c.request_span.active()) {
          c.request_span = obs::DetachedSpan("http.request");
        }
        c.in.append(chunk, static_cast<std::size_t>(n));
      }
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(fd);  // reset by the peer
    return;
  }
  if (c.rejected) {
    if (eof) close_conn(fd);
    return;
  }
  dispatch(fd, c, eof);
}

void MiniHttpServer::dispatch(int fd, Conn& c, bool eof) {
  if (c.need == 0) {
    // Frame: find the end of the head, then how much body follows it.
    const std::size_t from = c.scanned >= 3 ? c.scanned - 3 : 0;
    const std::size_t header_end = c.in.find(kHeaderEnd, from);
    if (header_end == std::string::npos) {
      c.scanned = c.in.size();
      if (c.in.size() > kMaxRequestBytes) {
        reject(fd, c, 413, "request headers too large\n");
      } else if (eof && c.in.empty()) {
        close_conn(fd);  // the client closed a kept connection
      } else if (eof) {
        reject(fd, c, 400, "malformed request\n");
      }
      return;
    }
    const Head head =
        parse_head(std::string_view(c.in).substr(0, header_end));
    const std::size_t body_start = header_end + kHeaderEnd.size();
    if (head.error == 413 ||
        (head.error == 0 &&
         body_start + head.content_length > kMaxRequestBytes)) {
      reject(fd, c, 413, "request too large\n");
      return;
    }
    if (head.error != 0) {
      reject(fd, c, 400, "malformed request line or headers\n");
      return;
    }
    c.need = body_start + head.content_length;
  }
  if (c.in.size() < c.need) {
    if (eof) reject(fd, c, 400, "truncated request body\n");
    return;  // otherwise wait for the rest of the body
  }
  Job job;
  {
    const obs::SpanContextScope parent(c.request_span.context());
    obs::Span span("http.parse");
    const std::size_t header_end = c.in.find(kHeaderEnd);
    const Head head =
        parse_head(std::string_view(c.in).substr(0, header_end));
    const std::size_t body_start = header_end + kHeaderEnd.size();
    job.fd = fd;
    job.request.method = std::string(head.method);
    job.request.path = std::string(head.path);
    job.request.body = c.in.substr(body_start, c.need - body_start);
    job.span = c.request_span.context();
    c.keep_alive = head.keep_alive && !eof;
    span.attr("bytes", static_cast<std::uint64_t>(c.need));
  }
  c.request_span.attr("request_bytes", static_cast<std::uint64_t>(c.need));
  c.in.erase(0, c.need);
  c.need = 0;
  c.scanned = 0;
  if (c.deadline != 0) {
    loop_.cancel_timer(c.deadline);
    c.deadline = 0;
  }
  // Out of the epoll set until the response is back: the loop never reads
  // or closes a connection a handler is answering.
  watch(fd, c, 0);
  {
    const MutexLock lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void MiniHttpServer::reject(int fd, Conn& c, int status, const char* body) {
  c.rejected = true;
  c.keep_alive = false;
  c.in.clear();
  c.need = 0;
  HttpResponse resp;
  resp.status = status;
  resp.body = body;
  begin_write(fd, c, std::move(resp));
}

void MiniHttpServer::respond(int fd, HttpResponse resp) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  begin_write(fd, it->second, std::move(resp));
}

void MiniHttpServer::begin_write(int fd, Conn& c, HttpResponse resp) {
  if (!c.request_span.active()) {
    c.request_span = obs::DetachedSpan("http.request");
  }
  c.request_span.attr("status", static_cast<std::uint64_t>(resp.status));
  c.request_span.attr("response_bytes",
                      static_cast<std::uint64_t>(resp.body.size()));
  c.write_span = obs::DetachedSpan("http.write", c.request_span.context());
  c.head = response_head(resp, c.keep_alive);
  c.body = std::move(resp.body);
  c.sent = 0;
  c.sendmsg_calls = 0;
  // A client that stops reading is cut off too (flush re-arms on
  // progress); for a rejected request the deadline also bounds the drain
  // that follows the write.
  arm_deadline(fd, c);
  flush(fd, c);
}

void MiniHttpServer::flush(int fd, Conn& c) {
  const std::size_t total = c.head.size() + c.body.size();
  const std::size_t sent_before = c.sent;
  while (c.sent < total) {
    iovec iov[2];
    std::size_t n_iov = 0;
    if (c.sent < c.head.size()) {
      iov[n_iov++] = {c.head.data() + c.sent, c.head.size() - c.sent};
    }
    const std::size_t body_off =
        c.sent > c.head.size() ? c.sent - c.head.size() : 0;
    if (body_off < c.body.size()) {
      iov[n_iov++] = {c.body.data() + body_off, c.body.size() - body_off};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    ++c.sendmsg_calls;
    if (n >= 0) {
      c.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // The rest goes out when the kernel has room; the deadline counts
      // from the last progress.
      if (c.sent > sent_before) arm_deadline(fd, c);
      watch(fd, c, EPOLLOUT);
      return;
    }
    // Scrapers hang up early all the time; worth a note, never a failure.
    EPPI_DEBUG("MiniHttpServer: client on fd " << fd
                                               << " closed mid-response");
    close_conn(fd);
    return;
  }
  finish_response(fd, c);
}

void MiniHttpServer::finish_response(int fd, Conn& c) {
  c.write_span.attr("bytes", static_cast<std::uint64_t>(c.sent));
  c.write_span.attr("sendmsg_calls", c.sendmsg_calls);
  c.write_span.end();
  c.request_span.end();
  c.head = std::string();
  c.body = std::string();  // release the answer's memory now
  if (c.rejected) {
    // Stop writing and discard what the client still sends, so closing
    // with unread input does not reset the connection before the client
    // has read the error.
    (void)::shutdown(fd, SHUT_WR);
    watch(fd, c, EPOLLIN);
  } else if (c.keep_alive) {
    watch(fd, c, EPOLLIN);
    arm_deadline(fd, c);  // for the next request
    if (!c.in.empty()) {
      // A pipelined request arrived with the previous one.
      c.request_span = obs::DetachedSpan("http.request");
      dispatch(fd, c, false);
    }
  } else {
    close_conn(fd);
  }
}

}  // namespace eppi::net
