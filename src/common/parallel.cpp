#include "common/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace eppi {

std::size_t affinity_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t parallel_workers(std::size_t count) noexcept {
  return std::max<std::size_t>(1, std::min(count, affinity_cpus()));
}

void parallel_for(
    std::size_t count,
    const std::function<void(std::size_t worker, std::size_t index)>& task) {
  const std::size_t workers = parallel_workers(count);
  if (workers == 1) {
    for (std::size_t i = 0; i < count; ++i) task(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the task that set `failed`
  const auto work = [&](std::size_t worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        task(worker, i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(work, w);
    } catch (const std::system_error&) {
      break;  // no more threads: the running workers take the rest
    }
  }
  work(0);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace eppi
