#include "core/owner_truth.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace eppi::core {

bool OwnerTruth::holds(ProviderId p, IdentityId j) const {
  require(j < owners.size(), "OwnerTruth: identity out of range");
  return std::binary_search(owners[j].begin(), owners[j].end(), p);
}

OwnerTruth owner_truth(const eppi::BitMatrix& membership) {
  OwnerTruth truth;
  truth.providers = membership.rows();
  truth.owners.resize(membership.cols());
  // Provider-major over the set bits: each list receives its ids in
  // ascending order.
  for (std::size_t i = 0; i < membership.rows(); ++i) {
    const std::uint64_t* words = membership.row_words(i);
    for (std::size_t w = 0; w < membership.words_per_row(); ++w) {
      for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
        const std::size_t j = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(word));
        truth.owners[j].push_back(static_cast<ProviderId>(i));
      }
    }
  }
  return truth;
}

eppi::BitMatrix dense_truth(const OwnerTruth& truth) {
  eppi::BitMatrix membership(truth.providers, truth.identities());
  for (std::size_t j = 0; j < truth.identities(); ++j) {
    for (const ProviderId p : truth.owners[j]) membership.set(p, j, true);
  }
  return membership;
}

}  // namespace eppi::core
