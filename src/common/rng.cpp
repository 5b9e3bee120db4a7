#include "common/rng.h"

#include <cstring>

namespace eppi {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's method: multiply-shift with rejection of the biased low range.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng Rng::fork() noexcept {
  Rng child(0);
  for (auto& word : child.state_) word = next();
  return child;
}

void Rng::fill_bytes(void* out, std::size_t len) noexcept {
  auto* dst = static_cast<unsigned char*>(out);
  while (len >= 8) {
    const std::uint64_t word = next();
    std::memcpy(dst, &word, 8);
    dst += 8;
    len -= 8;
  }
  if (len > 0) {
    const std::uint64_t word = next();
    std::memcpy(dst, &word, len);
  }
}

}  // namespace eppi
