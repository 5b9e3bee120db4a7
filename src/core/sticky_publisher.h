// Keyed, re-publication-stable randomized publication.
//
// The paper's privacy analysis (§III-C) notes that ε-PPI resists repeated
// attacks *because the index is static*: re-drawing fresh noise on every
// reconstruction would let an observer intersect successive snapshots and
// strip the false positives (only true positives survive every draw). But a
// real deployment must reconstruct — memberships change, owners adjust ε.
//
// The sticky rule closes that gap: each provider derives its noise from a
// PRF over (secret key, identity), not from fresh randomness. Provider i
// publishes identity j iff it holds j's records or
//
//     draw(key_i, j) < β_j · 2⁶⁴          (every draw when β_j >= 1)
//
// Properties:
//
//  * Deterministic: unchanged (key, identity, β) ⇒ identical noise across
//    reconstructions, so snapshots of unchanged data are bit-identical and
//    intersection reveals nothing new.
//  * Monotone in β: raising an owner's ε only ever *adds* false positives
//    and lowering it only removes them — successive snapshots differ
//    exactly where the privacy requirement changed, never by gratuitous
//    re-rolls.
//  * Marginally uniform: across keys, each noise bit is Bernoulli(β), so
//    every quantitative guarantee of the β policies carries over unchanged
//    (verified statistically in tests).
//
// StickyEmitter is the one place the rule is applied. Eq. 2 is a per-owner
// rule, so the emitter walks identity by identity: each identity's compare
// threshold is computed once per epoch, each provider's keyed half of the
// PRF once per emitter, and a column costs one mix and one compare per
// provider. A β = 0 column is its truth list, a β = 1 column is every
// non-retired provider. emit() only reads the emitter, so the full epoch
// build runs it from several threads at once, each over its own block of
// identities, and encodes the sorted lists it appends into the compressed
// PostingIndex.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/ppi_index.h"

namespace eppi::core {

// A splitmix64-style finalizer, applied to (key stream + identity) for every
// keyed draw: cheap, stateless and statistically indistinguishable from
// uniform for this purpose (the adversary never sees raw draws, only
// threshold bits).
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The threshold that marks "every draw publishes" (β >= 1). No β < 1 maps
// to it: ⌊β·2⁶⁴⌋ is at most 2⁶⁴ − 2¹¹ for the largest double below 1.
inline constexpr std::uint64_t kEveryDraw = ~std::uint64_t{0};

// The sticky rule's compare threshold for rate β: 0 for β <= 0 (no draw
// publishes), kEveryDraw for β >= 1, else ⌊β·2⁶⁴⌋.
std::uint64_t sticky_threshold(double beta) noexcept;

// Whether a PRF draw publishes under `threshold`.
inline bool sticky_bit(std::uint64_t draw, std::uint64_t threshold) noexcept {
  return threshold == kEveryDraw || draw < threshold;
}

class StickyPublisher {
 public:
  // `key` is the provider's long-lived publication secret.
  explicit StickyPublisher(std::uint64_t key) noexcept;

  // The PRF draw for identity j, uniform in [0, 2^64).
  std::uint64_t draw(std::uint64_t identity) const noexcept;

  // Noise decision: publish a false positive for identity j at rate beta.
  bool noise_bit(std::uint64_t identity, double beta) const noexcept;

 private:
  std::uint64_t stream_;  // the key's half of every draw, mixed once
};

class StickyEmitter {
 public:
  // Provider i publishes under keys[i]; identity j at rate betas[j]. A
  // provider with retired[i] != 0 publishes nothing (`retired` may be
  // shorter than `keys`; missing entries mean active).
  StickyEmitter(std::span<const std::uint64_t> keys,
                std::span<const double> betas,
                std::span<const std::uint8_t> retired = {});

  std::size_t providers() const noexcept { return streams_.size(); }
  std::size_t identities() const noexcept { return thresholds_.size(); }

  // Appends identity j's published providers, ascending, to `out`: every
  // active provider of `truth` (ascending ids < providers()) plus every
  // active provider whose draw falls below j's threshold.
  void emit(IdentityId j, std::span<const ProviderId> truth,
            std::vector<ProviderId>& out) const;

  // The same rule for one cell (the delta path's joined rows).
  bool publishes(ProviderId i, IdentityId j, bool truth) const;

  // What emitting every identity costs, in counts: PRF draws evaluated
  // and columns published whole (β = 1).
  std::size_t cells_hashed() const noexcept;
  std::size_t full_columns() const noexcept;

 private:
  bool active(std::size_t i) const noexcept {
    return (active_[i >> 6] >> (i & 63)) & 1;
  }

  std::vector<std::uint64_t> streams_;     // per provider
  std::vector<std::uint64_t> thresholds_;  // per identity
  std::vector<std::uint64_t> active_;      // bitset of non-retired providers
  std::vector<ProviderId> active_ids_;     // the same, as a β = 1 column
};

}  // namespace eppi::core
