#include "core/constructor.h"

#include "common/error.h"
#include "core/publisher.h"

namespace eppi::core {

ConstructionInfo calculate_betas(const eppi::BitMatrix& truth,
                                 std::span<const double> epsilons,
                                 const ConstructionOptions& options,
                                 eppi::Rng& rng) {
  require(epsilons.size() == truth.cols(),
          "calculate_betas: epsilon count mismatch");
  return BetaPlan(
             options.policy, options.enable_mixing,
             [&rng](std::size_t, double lambda, std::uint64_t) {
               return rng.bernoulli(lambda);
             },
             [&truth](std::size_t j) { return truth.col_count(j); },
             epsilons, truth.rows())
      .info();
}

ConstructionResult construct_centralized(const eppi::BitMatrix& truth,
                                         std::span<const double> epsilons,
                                         const ConstructionOptions& options,
                                         eppi::Rng& rng) {
  ConstructionResult result;
  result.info = calculate_betas(truth, epsilons, options, rng);
  result.index =
      PpiIndex(publish_matrix(truth, result.info.betas, rng));
  return result;
}

}  // namespace eppi::core
