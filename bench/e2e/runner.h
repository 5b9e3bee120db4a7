// Repetition runner and exact sample statistics for the end-to-end bench.
//
// Every in-process measurement the bench makes goes through repeat():
// `warmup` untimed passes, then `repeats` timed passes, with the caller's
// setup run before each pass and kept outside the timed region. Quantiles
// are exact order statistics of the sorted samples (linear interpolation
// between neighbours), never histogram bucket edges, so a p99 of 1.7 us
// reads 1.7 and not the next power of two.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace eppi::bench {

// q in [0, 1] over ascending samples; 0 for an empty sample.
inline double quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct Stats {
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
};

inline Stats summarize(std::vector<double> samples) {
  Stats s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = quantile(samples, 0.5);
  s.p10 = quantile(samples, 0.1);
  s.p90 = quantile(samples, 0.9);
  s.p99 = quantile(samples, 0.99);
  return s;
}

// Latency summary that holds still on a noisy shared host. The samples, in
// time order, are cut into groups of `group` consecutive ones (a shorter
// sample is one group). `median` is the mean of the groups' medians: the
// host flips between faster and slower states for a fraction of a second
// at a time, and a mean over many groups weighs those states by how long
// each lasted, where one pooled median can jump between them. `tail` is
// the median of the groups' q-quantiles, so a burst of noise in a few
// groups does not move it.
struct GroupedStats {
  double median = 0.0;
  double tail = 0.0;
  std::size_t groups = 0;
};

inline GroupedStats grouped(std::span<const double> samples, std::size_t group,
                            double q) {
  GroupedStats g;
  if (samples.empty()) return g;
  // A last partial group joins the one before it.
  g.groups = std::max<std::size_t>(1, samples.size() / group);
  double median_sum = 0.0;
  std::vector<double> tails;
  for (std::size_t i = 0; i < g.groups; ++i) {
    const std::size_t from = i * group;
    const std::size_t to = i + 1 == g.groups ? samples.size() : from + group;
    std::vector<double> part(samples.begin() + static_cast<std::ptrdiff_t>(from),
                             samples.begin() + static_cast<std::ptrdiff_t>(to));
    std::sort(part.begin(), part.end());
    median_sum += quantile(part, 0.5);
    tails.push_back(quantile(part, q));
  }
  g.median = median_sum / static_cast<double>(g.groups);
  std::sort(tails.begin(), tails.end());
  g.tail = quantile(tails, 0.5);
  return g;
}

// Seconds per timed pass of `body`; `setup` runs untimed before every pass.
template <typename Setup, typename Body>
std::vector<double> repeat(std::size_t warmup, std::size_t repeats,
                           Setup&& setup, Body&& body) {
  for (std::size_t i = 0; i < warmup; ++i) {
    setup();
    body();
  }
  std::vector<double> seconds;
  seconds.reserve(repeats);
  for (std::size_t i = 0; i < repeats; ++i) {
    setup();
    const auto start = std::chrono::steady_clock::now();
    body();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return seconds;
}

template <typename Body>
std::vector<double> repeat(std::size_t warmup, std::size_t repeats,
                           Body&& body) {
  return repeat(warmup, repeats, [] {}, body);
}

}  // namespace eppi::bench
