#include "mpc/beaver.h"

#include "mpc/circuit.h"

namespace eppi::mpc {

std::vector<TripleShares> deal_triples(std::size_t n_parties,
                                       std::uint64_t count, eppi::Rng& rng) {
  const std::size_t words = lane_words(count);
  std::vector<TripleShares> shares(n_parties);
  for (auto& s : shares) {
    s.a.resize(words);
    s.b.resize(words);
    s.c.resize(words);
    s.count = count;
  }
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t mask = i + 1 == words ? tail_mask(count) : ~0ull;
    // Generate raw words, then seal each share under the Secret taint.
    std::uint64_t a = rng.next() & mask;
    std::uint64_t b = rng.next() & mask;
    std::uint64_t c = a & b;
    for (std::size_t p = 0; p + 1 < n_parties; ++p) {
      const std::uint64_t sa = rng.next() & mask;
      const std::uint64_t sb = rng.next() & mask;
      const std::uint64_t sc = rng.next() & mask;
      shares[p].a[i] = eppi::SecretU64(sa);
      shares[p].b[i] = eppi::SecretU64(sb);
      shares[p].c[i] = eppi::SecretU64(sc);
      a ^= sa;
      b ^= sb;
      c ^= sc;
    }
    shares[n_parties - 1].a[i] = eppi::SecretU64(a);
    shares[n_parties - 1].b[i] = eppi::SecretU64(b);
    shares[n_parties - 1].c[i] = eppi::SecretU64(c);
  }
  return shares;
}

}  // namespace eppi::mpc
