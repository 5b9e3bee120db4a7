#include "core/mixing.h"

#include <algorithm>

#include "common/error.h"

namespace eppi::core {

double lambda_for(double xi, std::size_t n_common, std::size_t n_total) {
  require(xi >= 0.0 && xi <= 1.0, "lambda_for: xi must be in [0,1]");
  require(n_common <= n_total, "lambda_for: common count exceeds total");
  if (n_common == 0) return 0.0;
  if (xi >= 1.0 || n_common == n_total) return 1.0;
  const double lambda = (xi / (1.0 - xi)) *
                        (static_cast<double>(n_common) /
                         static_cast<double>(n_total - n_common));
  return std::clamp(lambda, 0.0, 1.0);
}

double achieved_decoy_fraction(const std::vector<bool>& is_common,
                               const std::vector<bool>& is_apparent_common) {
  require(is_common.size() == is_apparent_common.size(),
          "achieved_decoy_fraction: size mismatch");
  std::size_t apparent = 0;
  std::size_t decoys = 0;
  for (std::size_t j = 0; j < is_common.size(); ++j) {
    if (!is_apparent_common[j]) continue;
    ++apparent;
    if (!is_common[j]) ++decoys;
  }
  if (apparent == 0) return 0.0;
  return static_cast<double>(decoys) / static_cast<double>(apparent);
}

}  // namespace eppi::core
