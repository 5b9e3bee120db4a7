// (n, n) XOR (Boolean) secret sharing.
//
// The Boolean counterpart of additive_share.h: a bit (or packed bit vector)
// splits into n shares whose XOR is the secret; any n−1 shares are jointly
// uniform. This is the wire-sharing the GMW engine uses internally
// (mpc/gmw.cpp); it is exposed here as a first-class primitive so protocol
// code outside the circuit engine (input pre-sharing, tests, custom
// protocols) can use the same scheme.
//
// Shares carry the Secret taint (secret/secret.h): SecretBit for single
// bits, SecretU64 for packed words.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "secret/secret.h"

namespace eppi::secret {

// Splits one bit into n XOR shares.
std::vector<SecretBit> split_xor_bit(bool value, std::size_t n,
                                     eppi::Rng& rng);

// Reconstructs a bit from all its shares (a deliberate opening).
bool reconstruct_xor_bit(std::span<const SecretBit> shares);

// Packed-vector variants over 64-bit words: bit i of the vector is bit
// i % 64 of word i / 64, and `words` holds bit_count valid bits. Returns
// one share vector per party; bits past bit_count are zero in every share
// (and dropped from the value). The GMW engine shares its input lanes this
// way.
std::vector<std::vector<SecretU64>> split_xor_packed(
    std::span<const SecretU64> words, std::uint64_t bit_count, std::size_t n,
    eppi::Rng& rng);

std::vector<std::uint64_t> reconstruct_xor_packed(
    std::span<const std::vector<SecretU64>> shares);

}  // namespace eppi::secret
