// Tainted secret-share type.
//
// ε-PPI's secrecy guarantees (SecSumShare is (2c−3)-secret for inputs and
// c-secret for the output sum, paper §IV Theorem 4.1) hold only if share
// values never leak outside the protocol. Historically a share was a bare
// uint64_t that any call site could log, compare, or branch on; Secret<T>
// makes those operations build errors:
//
//   - construction is explicit (no accidental wrapping of public values);
//   - comparisons and stream insertion are deleted, and a catch-all deleted
//     conversion operator kills implicit conversion to anything (including
//     bool, so `if (share)` does not compile);
//   - arithmetic is only available through the mod-ring / XOR operations a
//     linear secret-sharing scheme actually needs.
//
// The only ways out of the taint are two audited escape hatches, confined by
// lint rule `escape-hatch` (tools/eppi_lint.py) to the protocol layers,
// tests, benches, and the attack simulations:
//
//   unwrap_for_wire()  serializing a share onto the wire toward the party
//                      that is supposed to hold it (not an information leak:
//                      the recipient owns this share by protocol design);
//   reveal()           a deliberate protocol opening (reconstruction) or a
//                      test/attack-simulation assertion.
//
// See docs/static_analysis.md for the full taint discipline.
#pragma once

#include <concepts>
#include <cstdint>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "secret/mod_ring.h"

namespace eppi {

template <typename T>
class [[nodiscard]] Secret {
 public:
  // Default construction value-initializes the payload (share of zero);
  // needed so containers of shares can be sized before the protocol fills
  // them in.
  Secret() : value_() {}
  explicit Secret(T value) : value_(std::move(value)) {}

  Secret(const Secret&) = default;
  Secret(Secret&&) noexcept = default;
  Secret& operator=(const Secret&) = default;
  Secret& operator=(Secret&&) noexcept = default;

  // --- audited escape hatches (see file comment) ---------------------------
  const T& unwrap_for_wire() const noexcept { return value_; }
  T reveal() const { return value_; }

  // --- everything below here is deleted: secrets don't leak ----------------

  // Catch-all: no implicit or explicit conversion to any type (kills
  // `if (share)`, `uint64_t x = share`, printf-style varargs, ...).
  template <typename U>
  operator U() const = delete;

  friend bool operator==(const Secret&, const Secret&) = delete;
  friend bool operator!=(const Secret&, const Secret&) = delete;
  friend bool operator<(const Secret&, const Secret&) = delete;
  friend bool operator<=(const Secret&, const Secret&) = delete;
  friend bool operator>(const Secret&, const Secret&) = delete;
  friend bool operator>=(const Secret&, const Secret&) = delete;

  // Stream insertion of a share is the leak this PR exists to prevent; the
  // deleted friend is found by ADL, so `EPPI_LOG(... << share)` reports "use
  // of deleted function" instead of silently printing.
  friend std::ostream& operator<<(std::ostream&, const Secret&) = delete;

  // Raw built-in arithmetic is deleted too: share math must go through the
  // ring so reductions cannot be forgotten.
  friend Secret operator+(const Secret&, const Secret&) = delete;
  friend Secret operator-(const Secret&, const Secret&) = delete;
  friend Secret operator*(const Secret&, const Secret&) = delete;

  // --- ring arithmetic (additive shares over Z_q) --------------------------
  // Linear operations commute with sharing, so applying them share-wise is
  // exactly how SecSumShare computes on secrets.

  Secret add(const Secret& other, const secret::ModRing& ring) const
    requires std::same_as<T, std::uint64_t>
  {
    return Secret(ring.add(value_, other.value_));
  }

  Secret sub(const Secret& other, const secret::ModRing& ring) const
    requires std::same_as<T, std::uint64_t>
  {
    return Secret(ring.sub(value_, other.value_));
  }

  // --- boolean (XOR) sharing ops, for GMW wires ----------------------------
  // The SecretU64 ops below (^, & with a public word, shifts) are lane-wise
  // and linear, hence share-local, only on a word of 64 XOR-shared lanes
  // (bitsliced GMW, mpc/). On an additive mod-q share (SecSumShare) XOR and
  // shifts mean nothing: code holding additive shares must not use them.

  Secret operator^(const Secret& other) const
    requires std::same_as<T, bool> || std::same_as<T, std::uint64_t>
  {
    return Secret(static_cast<T>(value_ ^ other.value_));
  }

  // AND of two secrets is deliberately absent: it needs a Beaver triple
  // (see mpc/gmw.cpp).
  friend Secret operator&(const Secret&, const Secret&) = delete;

  // XOR with a public bit (apply on one party only for XOR shares).
  Secret operator^(bool plain) const
    requires std::same_as<T, bool>
  {
    return Secret(static_cast<bool>(value_ ^ plain));
  }

  // AND with a *public* bit is linear, hence share-local. AND of two secret
  // bits is deliberately absent: it needs a Beaver triple (see gmw.cpp).
  Secret operator&(bool plain) const
    requires std::same_as<T, bool>
  {
    return Secret(value_ && plain);
  }

  Secret& operator^=(const Secret& other)
    requires std::same_as<T, bool>
  {
    value_ = static_cast<bool>(value_ ^ other.value_);
    return *this;
  }

  // XOR with a public word (apply on one party only for XOR shares).
  Secret operator^(std::uint64_t plain) const
    requires std::same_as<T, std::uint64_t>
  {
    return Secret(value_ ^ plain);
  }

  // AND with a *public* word is linear, hence share-local.
  Secret operator&(std::uint64_t plain) const
    requires std::same_as<T, std::uint64_t>
  {
    return Secret(value_ & plain);
  }

  // Lane moves by a public distance: a fixed permutation of shared lanes.
  Secret operator>>(unsigned k) const
    requires std::same_as<T, std::uint64_t>
  {
    return Secret(value_ >> k);
  }

  Secret operator<<(unsigned k) const
    requires std::same_as<T, std::uint64_t>
  {
    return Secret(value_ << k);
  }

 private:
  T value_;
};

using SecretU64 = Secret<std::uint64_t>;
using SecretBit = Secret<bool>;
// A packed XOR-share buffer (GMW wire shares, Beaver triple shares).
using SecretBytes = Secret<std::vector<std::uint8_t>>;

// --- bulk helpers -----------------------------------------------------------

// Taint a freshly produced share vector.
inline std::vector<SecretU64> wrap_shares(std::span<const std::uint64_t> raw) {
  std::vector<SecretU64> out;
  out.reserve(raw.size());
  for (const std::uint64_t v : raw) out.emplace_back(v);
  return out;
}

// Serialization path: flatten shares for a wire message addressed to the
// party that is supposed to hold them. Confined to src/secret + src/mpc by
// the escape-hatch lint rule.
inline std::vector<std::uint64_t> wire_shares(
    std::span<const SecretU64> shares) {
  std::vector<std::uint64_t> out;
  out.reserve(shares.size());
  for (const SecretU64& s : shares) out.push_back(s.unwrap_for_wire());
  return out;
}

// Audited bulk reveal for tests, benches, and attack simulations (e.g.
// handing a coordinator's view to CollusionObserver deliberately models the
// adversary pooling shares).
inline std::vector<std::uint64_t> reveal_shares(
    std::span<const SecretU64> shares) {
  std::vector<std::uint64_t> out;
  out.reserve(shares.size());
  for (const SecretU64& s : shares) out.push_back(s.reveal());
  return out;
}

}  // namespace eppi

namespace eppi::secret {
// The share types live in the top-level namespace (they are used by mpc and
// core too); re-export them where the sharing primitives are defined.
using eppi::Secret;
using eppi::SecretBit;
using eppi::SecretBytes;
using eppi::SecretU64;
using eppi::reveal_shares;
using eppi::wire_shares;
using eppi::wrap_shares;
}  // namespace eppi::secret
