// Child processes and /proc readers for the end-to-end bench.
//
// The bench drives the real system from outside: the `eppi_cli serve`
// daemon and the construction parties run as separate processes. A Child
// owns one of them from spawn to reap, so no run leaves a process behind,
// whichever way it ends.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace eppi::bench {

class Child {
 public:
  // Starts argv[0] (a path) with the current environment plus `extra_env`
  // ("KEY=value"). The three fds become the child's stdin/stdout/stderr;
  // -1 means /dev/null.
  Child(const std::vector<std::string>& argv,
        const std::vector<std::string>& extra_env, int stdin_fd,
        int stdout_fd, int stderr_fd);
  // Stops the child (SIGTERM, then SIGKILL) and reaps it.
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const noexcept { return pid_; }
  // False once the child has exited (reaps it).
  bool alive();
  // SIGTERM, up to `grace` for a clean exit, then SIGKILL. Returns the
  // wait status, or -1 if the child had to be killed.
  int stop(std::chrono::milliseconds grace);
  // Waits up to `timeout` for a voluntary exit; SIGKILLs on expiry.
  // Returns the exit code, or -1 when killed or signalled.
  int wait_exit(std::chrono::milliseconds timeout);

 private:
  bool reap(int* status);

  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = 0;
};

// Reads lines from a pipe with a deadline (the parties' control channel).
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  // False on EOF, error or deadline.
  bool read_line(std::string& line,
                 std::chrono::steady_clock::time_point deadline);

 private:
  int fd_;
  std::string buf_;
};

// A `VmHWM`/`VmRSS`-style field of /proc/<pid>/status in KiB (0 if absent).
std::uint64_t proc_status_kib(pid_t pid, const char* field);

std::string read_text_file(const std::string& path);

// Writes all of `data`; false on error.
bool write_all(int fd, const std::string& data);

}  // namespace eppi::bench
