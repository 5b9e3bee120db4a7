#include "secret/xor_share.h"

#include "common/error.h"

namespace eppi::secret {

std::vector<SecretBit> split_xor_bit(bool value, std::size_t n,
                                     eppi::Rng& rng) {
  require(n >= 1, "split_xor_bit: need at least one share");
  std::vector<bool> raw(n);
  bool acc = false;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    raw[i] = rng.bernoulli(0.5);
    acc = acc != raw[i];
  }
  raw[n - 1] = acc != value;
  std::vector<SecretBit> shares;
  shares.reserve(n);
  for (const bool b : raw) shares.emplace_back(b);
  return shares;
}

bool reconstruct_xor_bit(std::span<const SecretBit> shares) {
  require(!shares.empty(), "reconstruct_xor_bit: no shares");
  SecretBit value;
  for (const SecretBit& s : shares) value ^= s;
  // All n shares combined: the opening the scheme is built for.
  return value.reveal();
}

std::vector<std::vector<SecretU64>> split_xor_packed(
    std::span<const SecretU64> words, std::uint64_t bit_count, std::size_t n,
    eppi::Rng& rng) {
  require(n >= 1, "split_xor_packed: need at least one share");
  const std::size_t count = static_cast<std::size_t>((bit_count + 63) / 64);
  require(words.size() >= count,
          "split_xor_packed: buffer smaller than bit_count");
  // Valid bits of the last word: tail bits carry no stray information.
  const unsigned rest = static_cast<unsigned>(bit_count % 64);
  const std::uint64_t tail =
      rest == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rest) - 1;
  std::vector<std::vector<SecretU64>> shares(n);
  shares[n - 1].assign(words.begin(), words.begin() + count);
  if (count > 0) shares[n - 1][count - 1] = shares[n - 1][count - 1] & tail;
  for (std::size_t p = 0; p + 1 < n; ++p) {
    shares[p].reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t r = rng.next() & (i + 1 == count ? tail : ~0ull);
      shares[p].emplace_back(r);
      shares[n - 1][i] = shares[n - 1][i] ^ r;
    }
  }
  return shares;
}

std::vector<std::uint64_t> reconstruct_xor_packed(
    std::span<const std::vector<SecretU64>> shares) {
  require(!shares.empty(), "reconstruct_xor_packed: no shares");
  std::vector<SecretU64> acc = shares[0];
  for (std::size_t i = 1; i < shares.size(); ++i) {
    require(shares[i].size() == acc.size(),
            "reconstruct_xor_packed: share size mismatch");
    for (std::size_t w = 0; w < acc.size(); ++w) acc[w] = acc[w] ^ shares[i][w];
  }
  // All n shares combined: the opening the scheme is built for.
  std::vector<std::uint64_t> value;
  value.reserve(acc.size());
  for (const SecretU64& w : acc) value.push_back(w.reveal());
  return value;
}

}  // namespace eppi::secret
