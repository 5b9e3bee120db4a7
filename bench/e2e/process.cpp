#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace eppi::bench {

Child::Child(const std::vector<std::string>& argv,
             const std::vector<std::string>& extra_env, int stdin_fd,
             int stdout_fd, int stderr_fd) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<char*> env;
  for (char** e = environ; *e != nullptr; ++e) env.push_back(*e);
  for (const auto& e : extra_env) env.push_back(const_cast<char*>(e.c_str()));
  env.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const int fds[3] = {stdin_fd, stdout_fd, stderr_fd};
  for (int target = 0; target < 3; ++target) {
    if (fds[target] >= 0) {
      posix_spawn_file_actions_adddup2(&actions, fds[target], target);
    } else {
      posix_spawn_file_actions_addopen(&actions, target, "/dev/null",
                                       target == 0 ? O_RDONLY : O_WRONLY, 0);
    }
  }
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                             env.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
}

Child::~Child() { stop(std::chrono::milliseconds(5000)); }

bool Child::reap(int* status) {
  if (reaped_) {
    *status = status_;
    return true;
  }
  int st = 0;
  const pid_t r = ::waitpid(pid_, &st, WNOHANG);
  if (r == pid_ || (r < 0 && errno == ECHILD)) {
    reaped_ = true;
    status_ = st;
    *status = st;
    return true;
  }
  return false;
}

bool Child::alive() {
  int st = 0;
  return !reap(&st);
}

int Child::wait_exit(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int st = 0;
  while (!reap(&st)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (!reap(&st)) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

int Child::stop(std::chrono::milliseconds grace) {
  int st = 0;
  if (reap(&st)) return st;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + grace;
  while (!reap(&st)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (!reap(&st)) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return st;
}

bool LineReader::read_line(std::string& line,
                           std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::uint64_t proc_status_kib(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const std::string key = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stoull(line.substr(key.size()));
    }
  }
  return 0;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace eppi::bench
