// Process-wide monotonic time anchor and small thread indices.
//
// Observability output (log prefixes, trace spans) wants timestamps that are
// monotonic, comparable across threads, and small enough to read — so both
// the logger and the trace layer measure against one shared anchor taken the
// first time anyone asks. Header-only on purpose: eppi_obs links no other
// library and eppi_common does not link eppi_obs, so a clock both use
// cannot live behind either library's link line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace eppi {

// The anchor is the steady_clock reading at first use anywhere in the
// process (inline function-local static: one instance across all TUs).
inline std::chrono::steady_clock::time_point process_start() noexcept {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

// Monotonic nanoseconds since process_start().
inline std::uint64_t monotonic_ns() noexcept {
  const auto dt = std::chrono::steady_clock::now() - process_start();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

// Monotonic milliseconds since process_start(), with fractional part.
inline double monotonic_ms() noexcept {
  return static_cast<double>(monotonic_ns()) / 1e6;
}

// Small, stable per-thread index (1, 2, 3, ... in first-use order) —
// readable in log lines and trace events, unlike std::thread::id.
inline std::uint64_t thread_index() noexcept {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

}  // namespace eppi
