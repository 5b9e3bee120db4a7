// Process-wide metrics registry: named counters, gauges, and log2
// histograms with small fixed label sets.
//
// The record path is relaxed atomics only — no lock, no allocation — so the
// wait-free serving tier (core/locator_service.h) and any other thread may
// bump a counter concurrently with snapshot rendering. Relaxed ordering is
// enough: the values are statistics, nothing is published through them. The
// mutex exists only around registration (name+labels → instrument lookup),
// which callers do once and cache the returned reference; instruments live
// in std::deques so those references stay valid for the registry's lifetime.
//
// Exposition is pull-based: render_prometheus() emits the text format
// (counters as `_total`-suffixed samples, histograms as cumulative
// `_bucket{le=...}` series), render_json() the same data as one JSON
// object for embedding in BENCH_*.json. Renders are point-in-time reads of
// relaxed counters: values are monotone but a render racing recorders can
// see one instrument fresher than another (same tearing tolerance the
// CostMeter snapshot documents).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/labels.h"

namespace eppi::obs {

// Monotone event count. add() is one relaxed fetch_add.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time signed level (e.g. current epoch, live snapshot bytes).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Log2 histogram over non-negative integer samples: bucket k counts samples
// in [2^k, 2^(k+1)) with bucket 0 also taking 0 and 1, clamped into the last
// bucket past 2^32. One relaxed
// fetch_add per record plus a relaxed sum accumulation.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static std::size_t bucket_for(std::uint64_t v) noexcept;

  void record(std::uint64_t v) noexcept {
    counts_[bucket_for(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  // Doubles from timers: NaN and negatives record as 0 rather than hitting
  // the undefined float→unsigned cast.
  void record(double v) noexcept {
    record(v > 0.0 ? static_cast<std::uint64_t>(v) : std::uint64_t{0});
  }

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t sum = 0;
    std::uint64_t total = 0;

    // q in [0,1]; pessimistic upper-bucket-edge estimate, 0 with no samples.
    double quantile(double q) const noexcept;
  };
  Snapshot snapshot() const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
};

// Named instrument store. Registration is idempotent: the same (name,
// labels) pair always returns the same instrument, so independent call
// sites may all ask for "eppi_retransmits_total" and share one counter.
// Asking for an existing name with a different instrument kind is a logic
// error and aborts (a metric cannot be both a counter and a gauge).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry used by instrumentation defaults. Tests
  // wanting isolation construct their own Registry.
  static Registry& global();

  Counter& counter(std::string_view name, const Labels& labels = {},
                   std::string_view help = "");
  Gauge& gauge(std::string_view name, const Labels& labels = {},
               std::string_view help = "");
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       std::string_view help = "");

  // Prometheus text exposition format, families sorted by name.
  std::string render_prometheus() const;
  // The same data as a single JSON object: {"counters":[...],
  // "gauges":[...], "histograms":[...]}.
  std::string render_json() const;

 private:
  template <typename Instrument>
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    Instrument instrument;
  };

  template <typename Instrument>
  Instrument& get_or_create(std::deque<Entry<Instrument>>& entries,
                            std::string_view name, const Labels& labels,
                            std::string_view help)
      EPPI_REQUIRES(mu_);
  void check_kind_unique(std::string_view name, std::string_view kind) const
      EPPI_REQUIRES(mu_);

  mutable Mutex mu_;
  std::deque<Entry<Counter>> counters_ EPPI_GUARDED_BY(mu_);
  std::deque<Entry<Gauge>> gauges_ EPPI_GUARDED_BY(mu_);
  std::deque<Entry<Histogram>> histograms_ EPPI_GUARDED_BY(mu_);
};

}  // namespace eppi::obs
