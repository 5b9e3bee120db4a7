// Fork-join over independent tasks, on the CPUs the process may use.
//
// parallel_for(count, task) runs task(worker, i) once for every i in
// [0, count). The workers are the calling thread (worker 0) and up to
// parallel_workers(count) - 1 threads started for this call and joined
// before it returns; each takes the next unclaimed index until none is
// left. `worker` is below parallel_workers(count), so a caller can give
// every worker its own scratch. Tasks must share only read-only inputs and
// write only their own output slot.
//
// If a task throws, no further index is started, every worker is joined,
// and the first exception is rethrown to the caller. If the system refuses
// a thread, the workers already running (the caller among them) do the
// rest.
#pragma once

#include <cstddef>
#include <functional>

namespace eppi {

// CPUs in the calling thread's affinity mask (at least 1).
std::size_t affinity_cpus() noexcept;

// The workers parallel_for(count, ...) uses: min(count, affinity_cpus()),
// and at least 1.
std::size_t parallel_workers(std::size_t count) noexcept;

void parallel_for(
    std::size_t count,
    const std::function<void(std::size_t worker, std::size_t index)>& task);

}  // namespace eppi
