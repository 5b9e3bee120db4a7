// Arithmetic in the ring Z_q.
//
// SecSumShare (paper §IV-B.1) works over Z_q for any q larger than the
// maximum possible sum (the paper's walkthrough uses q = 5 for 5 providers).
// The distributed constructor defaults to q = 2^k because a power-of-two
// modulus makes the downstream CountBelow circuit a carry-free mod-2^k adder
// (an optimization ablated in bench_ablation_mpc), but the sharing layer is
// correct for arbitrary q and the paper's q = 5 example is reproduced in
// tests.
#pragma once

#include <cstdint>

namespace eppi::secret {

class ModRing {
 public:
  // Throws ConfigError if q < 2.
  explicit ModRing(std::uint64_t q);

  std::uint64_t q() const noexcept { return q_; }
  bool is_power_of_two() const noexcept;

  std::uint64_t reduce(std::uint64_t x) const noexcept { return x % q_; }

  // (a + b) mod q for any inputs. Residues (the protocol's case) take one
  // compare-and-subtract that never forms a + b, so it cannot wrap for q
  // up to 2^64 - 1; anything else reduces a 128-bit sum.
  std::uint64_t add(std::uint64_t a, std::uint64_t b) const noexcept {
    if (a < q_ && b < q_) return a >= q_ - b ? a - (q_ - b) : a + b;
    return add_wide(a, b);
  }

  // (a - b) mod q for any inputs; residues take the branch-only path.
  std::uint64_t sub(std::uint64_t a, std::uint64_t b) const noexcept {
    if (a < q_ && b < q_) return a >= b ? a - b : a + (q_ - b);
    return add_wide(a % q_, neg(b));
  }

  std::uint64_t neg(std::uint64_t a) const noexcept;

  // (a * b) mod q without overflow: the product is formed in 128 bits before
  // reduction. Centralizes what used to be ad-hoc __int128 lambdas in the MPC
  // layer (and keeps the narrowing in one audited place).
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept;

  // Number of bits needed to represent any residue; equals k when q = 2^k.
  unsigned bit_width() const noexcept;

  // Smallest power-of-two ring that can hold sums of up to `max_sum`.
  // Throws ConfigError if max_sum >= 2^63 (the next power of two would
  // overflow uint64; the old implementation looped forever on such inputs).
  static ModRing power_of_two_for(std::uint64_t max_sum);

 private:
  std::uint64_t add_wide(std::uint64_t a, std::uint64_t b) const noexcept;

  std::uint64_t q_;
};

}  // namespace eppi::secret
