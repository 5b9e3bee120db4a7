#include "core/mixing.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace eppi::core {
namespace {

TEST(LambdaForTest, ZeroCommonsNeedNoMixing) {
  EXPECT_EQ(lambda_for(0.8, 0, 100), 0.0);
}

TEST(LambdaForTest, MatchesEquationSeven) {
  // λ = ξ/(1−ξ) · common/(n−common). ξ=0.5, 10 commons of 110 total:
  // λ = 1 * 10/100 = 0.1.
  EXPECT_NEAR(lambda_for(0.5, 10, 110), 0.1, 1e-12);
  // ξ=0.8 -> factor 4; 5 commons of 105: λ = 4 * 5/100 = 0.2.
  EXPECT_NEAR(lambda_for(0.8, 5, 105), 0.2, 1e-12);
}

TEST(LambdaForTest, ClampsToOne) {
  EXPECT_EQ(lambda_for(0.99, 50, 60), 1.0);
  EXPECT_EQ(lambda_for(1.0, 1, 100), 1.0);
  EXPECT_EQ(lambda_for(0.5, 100, 100), 1.0);
}

TEST(LambdaForTest, Validates) {
  EXPECT_THROW(lambda_for(-0.1, 1, 10), eppi::ConfigError);
  EXPECT_THROW(lambda_for(1.1, 1, 10), eppi::ConfigError);
  EXPECT_THROW(lambda_for(0.5, 11, 10), eppi::ConfigError);
}

TEST(LambdaForTest, MonotoneInXiAndCommons) {
  EXPECT_LT(lambda_for(0.3, 10, 1000), lambda_for(0.6, 10, 1000));
  EXPECT_LT(lambda_for(0.5, 5, 1000), lambda_for(0.5, 20, 1000));
}

TEST(DecoyFractionTest, CountsDecoysAmongApparent) {
  const std::vector<bool> common{true, false, false, true, false};
  const std::vector<bool> apparent{true, true, false, true, true};
  // Apparent set: {0,1,3,4}; decoys: {1,4} -> 0.5.
  EXPECT_DOUBLE_EQ(achieved_decoy_fraction(common, apparent), 0.5);
}

TEST(DecoyFractionTest, EmptyApparentSetIsZero) {
  const std::vector<bool> common{true};
  const std::vector<bool> apparent{false};
  EXPECT_EQ(achieved_decoy_fraction(common, apparent), 0.0);
}

TEST(DecoyFractionTest, AllDecoys) {
  const std::vector<bool> common{false, false};
  const std::vector<bool> apparent{true, true};
  EXPECT_DOUBLE_EQ(achieved_decoy_fraction(common, apparent), 1.0);
}

}  // namespace
}  // namespace eppi::core
