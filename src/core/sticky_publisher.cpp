#include "core/sticky_publisher.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace eppi::core {

namespace {

// The key's half of draw(key, j) = mix64(stream(key) + j).
std::uint64_t stream_of(std::uint64_t key) noexcept {
  return mix64(key ^ 0x9e3779b97f4a7c15ULL);
}

}  // namespace

std::uint64_t sticky_threshold(double beta) noexcept {
  if (!(beta > 0.0)) return 0;
  if (beta >= 1.0) return kEveryDraw;
  // β < 1 is at most 1 − 2⁻⁵³, so the product is below 2⁶⁴ − 2¹¹: the
  // truncating cast is in range and exact to the floor.
  return static_cast<std::uint64_t>(static_cast<long double>(beta) *
                                    18446744073709551616.0L);  // β · 2^64
}

StickyPublisher::StickyPublisher(std::uint64_t key) noexcept
    : stream_(stream_of(key)) {}

std::uint64_t StickyPublisher::draw(std::uint64_t identity) const noexcept {
  return mix64(stream_ + identity);
}

bool StickyPublisher::noise_bit(std::uint64_t identity,
                                double beta) const noexcept {
  return sticky_bit(draw(identity), sticky_threshold(beta));
}

StickyEmitter::StickyEmitter(std::span<const std::uint64_t> keys,
                             std::span<const double> betas,
                             std::span<const std::uint8_t> retired) {
  require(retired.size() <= keys.size(),
          "StickyEmitter: more retired flags than providers");
  streams_.reserve(keys.size());
  for (const std::uint64_t key : keys) streams_.push_back(stream_of(key));
  thresholds_.reserve(betas.size());
  for (const double beta : betas) thresholds_.push_back(sticky_threshold(beta));
  active_.assign((keys.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i < retired.size() && retired[i] != 0) continue;
    active_[i >> 6] |= std::uint64_t{1} << (i & 63);
    active_ids_.push_back(static_cast<ProviderId>(i));
  }
}

void StickyEmitter::emit(IdentityId j, std::span<const ProviderId> truth,
                         std::vector<ProviderId>& out) const {
  require(j < thresholds_.size(), "StickyEmitter: identity out of range");
  const std::size_t m = streams_.size();
  require(truth.empty() || truth.back() < m,
          "StickyEmitter: truth names a provider out of range");
  const std::uint64_t threshold = thresholds_[j];
  if (threshold == kEveryDraw) {
    out.insert(out.end(), active_ids_.begin(), active_ids_.end());
    return;
  }
  if (threshold == 0) {
    for (const ProviderId p : truth) {
      if (active(p)) out.push_back(p);
    }
    return;
  }
  // 64 providers at a time: the draws become a mask, the truth bits are
  // ORed in, retired providers masked out, and the set bits emitted in
  // ascending order.
  std::size_t k = 0;
  for (std::size_t base = 0; base < m; base += 64) {
    const std::size_t width = std::min<std::size_t>(64, m - base);
    const std::uint64_t* streams = streams_.data() + base;
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < width; ++b) {
      bits |= static_cast<std::uint64_t>(mix64(streams[b] + j) < threshold)
              << b;
    }
    for (; k < truth.size() && truth[k] < base + 64; ++k) {
      bits |= std::uint64_t{1} << (truth[k] - base);
    }
    bits &= active_[base >> 6];
    for (; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<ProviderId>(
          base + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
}

bool StickyEmitter::publishes(ProviderId i, IdentityId j, bool truth) const {
  require(i < streams_.size() && j < thresholds_.size(),
          "StickyEmitter: cell out of range");
  return active(i) &&
         (truth || sticky_bit(mix64(streams_[i] + j), thresholds_[j]));
}

std::size_t StickyEmitter::cells_hashed() const noexcept {
  std::size_t hashed = 0;
  for (const std::uint64_t t : thresholds_) {
    hashed += t != 0 && t != kEveryDraw ? streams_.size() : 0;
  }
  return hashed;
}

std::size_t StickyEmitter::full_columns() const noexcept {
  return static_cast<std::size_t>(
      std::count(thresholds_.begin(), thresholds_.end(), kEveryDraw));
}

}  // namespace eppi::core
