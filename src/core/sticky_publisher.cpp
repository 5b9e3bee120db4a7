#include "core/sticky_publisher.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/error.h"

namespace eppi::core {

namespace {

// The key's half of draw(key, j) = mix64(stream(key) + j).
std::uint64_t stream_of(std::uint64_t key) noexcept {
  return mix64(key ^ 0x9e3779b97f4a7c15ULL);
}

// StickyKernel::mask, inlined into one function per instruction set below;
// the fixed trip count lets the compiler vectorize it for each.
[[gnu::always_inline]] inline std::uint64_t draw_mask(
    const std::uint64_t* streams, std::uint64_t identity,
    std::uint64_t threshold) noexcept {
  std::uint64_t bits = 0;
  for (std::size_t b = 0; b < 64; ++b) {
    bits |= static_cast<std::uint64_t>(mix64(streams[b] + identity) <
                                       threshold)
            << b;
  }
  return bits;
}

#if defined(__x86_64__)
[[gnu::target("avx512f,avx512dq")]] std::uint64_t draw_mask_avx512(
    const std::uint64_t* streams, std::uint64_t identity,
    std::uint64_t threshold) noexcept {
  return draw_mask(streams, identity, threshold);
}

[[gnu::target("avx2")]] std::uint64_t draw_mask_avx2(
    const std::uint64_t* streams, std::uint64_t identity,
    std::uint64_t threshold) noexcept {
  return draw_mask(streams, identity, threshold);
}
#endif

std::uint64_t draw_mask_baseline(const std::uint64_t* streams,
                                 std::uint64_t identity,
                                 std::uint64_t threshold) noexcept {
  return draw_mask(streams, identity, threshold);
}

struct KernelList {
  std::array<StickyKernel, 3> kernels{};
  std::size_t count = 0;
};

KernelList supported_kernels() noexcept {
  KernelList list;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    list.kernels[list.count++] = {"avx512", &draw_mask_avx512};
  }
  if (__builtin_cpu_supports("avx2")) {
    list.kernels[list.count++] = {"avx2", &draw_mask_avx2};
  }
#endif
  list.kernels[list.count++] = {"baseline", &draw_mask_baseline};
  return list;
}

}  // namespace

std::span<const StickyKernel> sticky_kernels() noexcept {
  static const KernelList list = supported_kernels();
  return std::span<const StickyKernel>(list.kernels).first(list.count);
}

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
                             std::span<const std::uint8_t> retired)
    : providers_(keys.size()), betas_(betas) {
  require(retired.size() <= keys.size(),
          "StickyEmitter: more retired flags than providers");
  const std::size_t blocks = (keys.size() + 63) / 64;
  streams_.assign(64 * blocks, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    streams_[i] = stream_of(keys[i]);
  }
  active_.assign(blocks, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i < retired.size() && retired[i] != 0) continue;
    active_[i >> 6] |= std::uint64_t{1} << (i & 63);
    active_ids_.push_back(static_cast<ProviderId>(i));
  }
}

void StickyEmitter::emit(IdentityId j, std::span<const ProviderId> truth,
                         std::vector<ProviderId>& out) const {
  require(j < betas_.size(), "StickyEmitter: identity out of range");
  require(truth.empty() || truth.back() < providers_,
          "StickyEmitter: truth names a provider out of range");
  const std::uint64_t threshold = sticky_threshold(betas_[j]);
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
  // ORed in, retired providers and the padding masked out, and the set
  // bits emitted in ascending order.
  const auto mask = sticky_kernels().front().mask;
  std::size_t k = 0;
  for (std::size_t base = 0; base < providers_; base += 64) {
    std::uint64_t bits = mask(streams_.data() + base, j, threshold);
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
  require(i < providers_ && j < betas_.size(),
          "StickyEmitter: cell out of range");
  return active(i) &&
         (truth ||
          sticky_bit(mix64(streams_[i] + j), sticky_threshold(betas_[j])));
}

std::size_t StickyEmitter::cells_hashed() const noexcept {
  std::size_t hashed = 0;
  for (const double beta : betas_) {
    const std::uint64_t t = sticky_threshold(beta);
    hashed += t != 0 && t != kEveryDraw ? providers_ : 0;
  }
  return hashed;
}

std::size_t StickyEmitter::full_columns() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(betas_.begin(), betas_.end(), [](double beta) {
        return sticky_threshold(beta) == kEveryDraw;
      }));
}

}  // namespace eppi::core
