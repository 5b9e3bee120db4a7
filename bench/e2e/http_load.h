// HTTP/1.1 client and open-loop load generator for the end-to-end bench.
//
// The generator is open loop: request k is due at start + k / rate whether
// or not earlier requests have finished, and its latency is measured from
// that due time, so a stall is charged to every request it delays. At most
// `threads` requests are in flight (one blocking connection per thread);
// when all are busy, due requests wait and the wait shows up both in their
// latency and in the generator's lateness.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace eppi::bench {

struct HttpReply {
  int status = 0;  // 0 = transport failure (refused, reset, timeout, short)
  std::string body;
};

// One request on a fresh connection (the daemon answers Connection: close).
HttpReply http_call(std::uint16_t port, const std::string& request,
                    int timeout_ms);

std::string http_get(const std::string& path);
std::string http_post(const std::string& path, const std::string& body);

struct LoadSpec {
  std::uint16_t port = 0;
  double rate = 0.0;     // requests per second
  double seconds = 0.0;  // schedule length
  std::size_t threads = 1;
  // Request k's bytes; called on worker threads, must be thread-safe.
  std::function<const std::string&(std::size_t)> request;
  // Optional answer check for every `check_every`-th request (after a 200);
  // false = wrong answer. Runs on the worker thread, outside the timed
  // region.
  std::function<bool(std::size_t, const std::string&)> check;
  std::size_t check_every = 1;
};

struct LoadResult {
  std::vector<double> latency_ms;  // successful requests in due order,
                                   // each from its due time
  std::vector<double> late_us;     // send time minus due time, all requests
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // transport failure, non-200 or timeout
  std::uint64_t wrong = 0;   // answers that failed verification
  std::uint64_t response_bytes = 0;
  // Median lateness over the last tenth of the schedule: a generator or
  // server that cannot keep up shows a backlog that grows to the end.
  double tail_late_ms = 0.0;
};

LoadResult run_open_loop(const LoadSpec& spec);

// The CPU split between load and the system under test. run_open_loop's
// threads run on the first CPU this process may use; while a ServerCpus
// lives, the calling thread — and every process or thread it starts, which
// inherit its mask — runs on the others. The two then never compete for a
// core, and client/server placement is the same in every segment: without
// the split, the median of point lookups moved between 0.10 and 0.14 ms
// across runs of one seed. With a single CPU there is no split.
class ServerCpus {
 public:
  ServerCpus();
  ~ServerCpus();
  ServerCpus(const ServerCpus&) = delete;
  ServerCpus& operator=(const ServerCpus&) = delete;

 private:
  cpu_set_t saved_;
};

}  // namespace eppi::bench
