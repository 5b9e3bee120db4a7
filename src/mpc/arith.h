// Arithmetic-share MPC engine over Z_q (the VIFF model).
//
// The paper's related work spans two generic-MPC models: Boolean circuits
// (Fairplay/FairplayMP — our mpc/gmw.h) and arithmetic
// circuits over secret-shared ring elements (VIFF [18]). This engine is the
// arithmetic side: values live as additive shares mod q among c parties;
// addition, subtraction and scalar multiplication are local, multiplication
// consumes an arithmetic Beaver triple and one masked opening, and opening
// a value is one exchange. TASTY-style hybrids (the paper's ref [17]) fall
// out naturally: SecSumShare output IS an arithmetic sharing, so linear
// post-processing can run here for free, switching to the Boolean engines
// only for comparisons.
//
// The preprocessing dealer is the session's first party (the same
// semi-honest simulation as mpc/beaver.h; see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/cluster.h"
#include "secret/mod_ring.h"
#include "secret/secret.h"

namespace eppi::mpc {

class ArithSession {
 public:
  // A party's handle to a shared value: its own additive share, carrying the
  // Secret taint (secret/secret.h) so it cannot be logged, compared, or
  // branched on. Handles are only meaningful within the session that
  // produced them; open()/open_batch() are the audited way back to plain
  // values.
  using Share = eppi::SecretU64;

  // Every session party constructs this with identical (parties, ring,
  // seq_base); my id must be in `parties`.
  ArithSession(eppi::net::PartyContext& ctx,
               std::vector<eppi::net::PartyId> parties,
               eppi::secret::ModRing ring, std::uint64_t seq_base = 0);

  const eppi::secret::ModRing& ring() const noexcept { return ring_; }
  std::size_t n_parties() const noexcept { return parties_.size(); }
  bool is_dealer() const noexcept { return me_ == 0; }

  // --- inputs (one communication exchange per call) ------------------------
  // `owner` supplies `values` (ignored on other parties); everyone receives
  // its share vector.
  std::vector<Share> input_vector(eppi::net::PartyId owner,
                                  std::span<const std::uint64_t> values,
                                  std::size_t count);

  // --- local linear algebra --------------------------------------------------
  Share add(const Share& a, const Share& b) const { return a.add(b, ring_); }
  Share sub(const Share& a, const Share& b) const { return a.sub(b, ring_); }
  Share add_public(const Share& a, std::uint64_t k) const;
  Share scalar_mul(const Share& a, std::uint64_t k) const;

  // --- multiplication (batched: one triple round + one opening round) --------
  std::vector<Share> mul_batch(std::span<const Share> lhs,
                               std::span<const Share> rhs);
  Share mul(const Share& a, const Share& b);

  // --- opening ----------------------------------------------------------------
  std::vector<std::uint64_t> open_batch(std::span<const Share> shares);
  std::uint64_t open(const Share& share);

 private:
  std::uint64_t next_seq() { return seq_base_ + seq_counter_++; }
  // Deliberate opening primitive: every party contributes `mine` and learns
  // the share-wise sum (the reconstructed values).
  std::vector<std::uint64_t> exchange_sum(std::span<const Share> mine,
                                          std::uint64_t seq);

  eppi::net::PartyContext& ctx_;
  std::vector<eppi::net::PartyId> parties_;
  eppi::secret::ModRing ring_;
  std::size_t me_ = 0;
  std::uint64_t seq_base_;
  std::uint64_t seq_counter_ = 0;
};

}  // namespace eppi::mpc
