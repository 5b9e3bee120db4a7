// Ground truth in per-owner form.
//
// The publication rule (paper Eq. 2) is a per-identity rule: column j of M'
// keeps every true provider of owner j and adds noise at rate β_j. The
// construction side therefore keeps the truth the same way — for each owner,
// the ascending ids of the providers holding its records — instead of as the
// dense m×n matrix M. Frequencies are list lengths, a membership test is a
// binary search, and delegation updates one list in place. The dense matrix
// is built from the lists only where a caller needs provider rows: the
// distributed constructor's MPC inputs, and tests.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bit_matrix.h"
#include "core/ppi_index.h"

namespace eppi::core {

struct OwnerTruth {
  std::size_t providers = 0;  // m; every listed id is below it
  // owners[j]: the providers holding identity j, strictly ascending.
  std::vector<std::vector<ProviderId>> owners;

  std::size_t identities() const noexcept { return owners.size(); }
  bool holds(ProviderId p, IdentityId j) const;
};

// The two converters between the dense and the per-owner form (exact
// inverses of each other).
OwnerTruth owner_truth(const eppi::BitMatrix& membership);
eppi::BitMatrix dense_truth(const OwnerTruth& truth);

}  // namespace eppi::core
