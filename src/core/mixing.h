// Identity mixing against the common-identity attack (paper §III-B.2).
//
// Common identities (β* >= 1) are published with β = 1, but publishing *only*
// them at β = 1 would let an attacker who learns the β vector (e.g. through
// a colluding provider) identify exactly the common identities — the
// common-identity attack. The defense exaggerates the β of each non-common
// identity to 1 with probability λ (Eq. 6) so the true common identities
// hide among mixed decoys. λ is set (Eq. 7) so the decoy fraction among the
// apparent-common set is at least ξ, the strongest privacy degree among the
// common identities:
//
//     λ >= ξ/(1−ξ) · |common| / (n − |common|)
#pragma once

#include <cstddef>
#include <vector>

namespace eppi::core {

// Eq. 7: minimal mixing probability. Clamped to [0,1]; returns 1 when
// xi == 1 or when every identity is common. Every construction path takes
// λ through BetaPlan::lambda (core/beta_plan.h), which also owns ξ.
double lambda_for(double xi, std::size_t n_common, std::size_t n_total);

// Decoy fraction actually achieved by a published apparent-common set:
// (#mixed non-common) / (#apparent common). The privacy degree against the
// common-identity attack equals this fraction (paper §III-C).
double achieved_decoy_fraction(const std::vector<bool>& is_common,
                               const std::vector<bool>& is_apparent_common);

}  // namespace eppi::core
