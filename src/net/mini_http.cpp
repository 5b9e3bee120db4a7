#include "net/mini_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/logging.h"

namespace eppi::net {

namespace {

constexpr std::size_t kMaxRequestBytes = 1 << 20;  // headers + body bound

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

[[nodiscard]] bool send_response(int fd, const HttpResponse& resp) {
  std::ostringstream out;
  out << "HTTP/1.1 " << resp.status << ' ' << status_text(resp.status)
      << "\r\nContent-Type: " << resp.content_type
      << "\r\nContent-Length: " << resp.body.size()
      << "\r\nConnection: close\r\n\r\n"
      << resp.body;
  const std::string data = out.str();
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n;
    do {
      n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

MiniHttpServer::MiniHttpServer(std::uint16_t port, Handler handler)
    : port_(port), handler_(std::move(handler)) {}

MiniHttpServer::~MiniHttpServer() { stop(); }

void MiniHttpServer::start() {
  require(!started_, "MiniHttpServer: already started");
  started_ = true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  require(listen_fd_ >= 0, "MiniHttpServer: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
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
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void MiniHttpServer::stop() {
  {
    const MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (;;) {
    std::vector<std::thread> batch;
    {
      const MutexLock lock(mutex_);
      for (auto& [id, t] : conn_threads_) batch.push_back(std::move(t));
      conn_threads_.clear();
      if (last_finished_.joinable()) {
        batch.push_back(std::move(last_finished_));
      }
    }
    if (batch.empty()) break;
    for (auto& t : batch) t.join();
  }
}

void MiniHttpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    const MutexLock lock(mutex_);
    if (stopping_) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) continue;
    live_fds_.insert(fd);
    // Registered under mutex_, which the new thread needs before it can look
    // itself up, so it always finds its own entry.
    std::thread t([this, fd] { handle_connection(fd); });
    const std::thread::id id = t.get_id();
    conn_threads_.emplace(id, std::move(t));
  }
}

void MiniHttpServer::handle_connection(int fd) {
  // A stuck client times out instead of pinning this thread forever.
  const timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string data;
  std::size_t header_end = std::string::npos;
  char chunk[8192];
  while (data.size() < kMaxRequestBytes) {
    ssize_t n;
    do {
      n = ::recv(fd, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) break;
    data.append(chunk, static_cast<std::size_t>(n));
    header_end = data.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      // Headers complete; read any declared body.
      std::size_t content_length = 0;
      const std::string headers = data.substr(0, header_end);
      // Case-insensitive scan for Content-Length.
      std::string lower = headers;
      for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
      const auto pos = lower.find("content-length:");
      if (pos != std::string::npos) {
        content_length = static_cast<std::size_t>(
            std::strtoull(headers.c_str() + pos + 15, nullptr, 10));
        if (content_length > kMaxRequestBytes) break;
      }
      const std::size_t want = header_end + 4 + content_length;
      while (data.size() < want) {
        ssize_t more;
        do {
          more = ::recv(fd, chunk, sizeof(chunk), 0);
        } while (more < 0 && errno == EINTR);
        if (more <= 0) break;
        data.append(chunk, static_cast<std::size_t>(more));
      }
      break;
    }
  }

  HttpResponse resp;
  if (header_end == std::string::npos) {
    resp.status = 400;
    resp.body = "malformed request\n";
  } else {
    HttpRequest req;
    const auto line_end = data.find("\r\n");
    const std::string line = data.substr(0, line_end);
    const auto sp1 = line.find(' ');
    const auto sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      resp.status = 400;
      resp.body = "malformed request line\n";
    } else {
      req.method = line.substr(0, sp1);
      req.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      req.body = data.substr(header_end + 4);
      try {
        resp = handler_(req);
      } catch (const std::exception& e) {
        resp.status = 500;
        resp.content_type = "text/plain; charset=utf-8";
        resp.body = std::string("error: ") + e.what() + "\n";
      }
    }
  }
  if (!send_response(fd, resp)) {
    // Scrapers hang up early all the time; worth a note, never a failure.
    EPPI_DEBUG("MiniHttpServer: client on fd " << fd
                                               << " closed mid-response");
  }
  std::thread previous;
  {
    const MutexLock lock(mutex_);
    live_fds_.erase(fd);
    // stop() may already have taken this thread's handle to join it.
    const auto self = conn_threads_.find(std::this_thread::get_id());
    if (self != conn_threads_.end()) {
      previous = std::exchange(last_finished_, std::move(self->second));
      conn_threads_.erase(self);
    }
  }
  ::close(fd);
  // The client already has its whole response, so waiting here for the
  // previous finisher to exit delays no one.
  if (previous.joinable()) previous.join();
}

}  // namespace eppi::net
