// Beaver multiplication-triple preprocessing for GMW AND gates.
//
// Each AND gate lane consumes one Boolean Beaver triple (a, b, ab) XOR-
// shared among the session parties; the bitsliced engine takes them 64 at
// a time, one word per gate per 64 lanes. We generate triples in a
// preprocessing phase run by a designated dealer party (the session's first
// party), which is a standard simulation of an offline phase.
//
// SUBSTITUTION NOTE (see DESIGN.md §2): FairplayMP realizes secure gates via
// a BMR garbling protocol; production GMW deployments generate triples with
// oblivious transfer so that no single party knows a whole triple. Here the
// dealer knows the triples it deals — acceptable in the semi-honest,
// performance-evaluation setting of the paper, and the *online* cost
// structure (one masked opening per AND gate per layer, which is what Fig. 6
// measures) is identical. The dealer traffic is metered separately so
// benches can report online-only and total costs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "secret/secret.h"

namespace eppi::mpc {

// One party's XOR shares of a batch of bit triples, 64 to a word (triple i
// in bit i % 64 of word i / 64). The words carry the Secret taint, so
// triple material cannot be logged or compared either.
struct TripleShares {
  std::vector<eppi::SecretU64> a;  // count bits valid, tail bits zero
  std::vector<eppi::SecretU64> b;
  std::vector<eppi::SecretU64> c;
  std::uint64_t count = 0;
};

// Dealer-side generation: returns one TripleShares per party such that for
// every triple index, XOR of a-shares & XOR of b-shares == XOR of c-shares.
std::vector<TripleShares> deal_triples(std::size_t n_parties,
                                       std::uint64_t count, eppi::Rng& rng);

}  // namespace eppi::mpc
