// Dense views of the publication emitter for tests that compare matrices:
// the truth converted once to per-owner lists, published by StickyEmitter,
// and the lists scattered back into an m×n matrix.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bit_matrix.h"
#include "core/owner_truth.h"
#include "core/posting_index.h"
#include "core/sticky_publisher.h"

namespace eppi::core::fixtures {

inline eppi::BitMatrix dense_lists(std::size_t providers,
                                   const PostingLists& lists) {
  eppi::BitMatrix published(providers, lists.rows());
  for (std::size_t j = 0; j < lists.rows(); ++j) {
    for (const ProviderId p : lists.row(j)) published.set(p, j, true);
  }
  return published;
}

// Provider i publishes with keys[i], identity j at rate betas[j].
inline eppi::BitMatrix sticky_matrix(const eppi::BitMatrix& truth,
                                     const std::vector<double>& betas,
                                     const std::vector<std::uint64_t>& keys) {
  return dense_lists(truth.rows(),
                     StickyEmitter(keys, betas).publish(owner_truth(truth)));
}

}  // namespace eppi::core::fixtures
