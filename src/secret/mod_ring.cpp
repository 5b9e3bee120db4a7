#include "secret/mod_ring.h"

#include <bit>

#include "common/error.h"

namespace eppi::secret {

ModRing::ModRing(std::uint64_t q) : q_(q) {
  require(q >= 2, "ModRing: modulus must be at least 2");
}

bool ModRing::is_power_of_two() const noexcept {
  return std::has_single_bit(q_);
}

std::uint64_t ModRing::add_wide(std::uint64_t a,
                               std::uint64_t b) const noexcept {
  const auto sum = static_cast<unsigned __int128>(a) + b;
  return static_cast<std::uint64_t>(sum % q_);
}

std::uint64_t ModRing::neg(std::uint64_t a) const noexcept {
  const std::uint64_t r = a % q_;
  return r == 0 ? 0 : q_ - r;
}

std::uint64_t ModRing::mul(std::uint64_t a, std::uint64_t b) const noexcept {
  const auto prod = static_cast<unsigned __int128>(a % q_) * (b % q_);
  return static_cast<std::uint64_t>(prod % q_);
}

unsigned ModRing::bit_width() const noexcept {
  return static_cast<unsigned>(std::bit_width(q_ - 1));
}

ModRing ModRing::power_of_two_for(std::uint64_t max_sum) {
  // Once q reaches 2^63, q <<= 1 would shift into (and past) the sign bit of
  // the notional signed value and wrap to 0, looping forever. There is no
  // representable power of two above such a max_sum, so reject it.
  constexpr std::uint64_t kMaxSupported = (std::uint64_t{1} << 63) - 1;
  require(max_sum <= kMaxSupported,
          "ModRing::power_of_two_for: max_sum too large for a uint64 ring");
  std::uint64_t q = 2;
  while (q <= max_sum) q <<= 1;
  return ModRing(q);
}

}  // namespace eppi::secret
