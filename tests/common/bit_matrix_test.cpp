#include "common/bit_matrix.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace eppi {
namespace {

TEST(BitMatrixTest, StartsAllZero) {
  const BitMatrix m(4, 70);  // spans two words per row
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 70; ++j) {
      EXPECT_FALSE(m.get(i, j));
    }
  }
  EXPECT_EQ(m.popcount(), 0u);
}

TEST(BitMatrixTest, SetAndClear) {
  BitMatrix m(3, 65);
  m.set(1, 64, true);
  EXPECT_TRUE(m.get(1, 64));
  EXPECT_FALSE(m.get(0, 64));
  EXPECT_FALSE(m.get(1, 63));
  m.set(1, 64, false);
  EXPECT_FALSE(m.get(1, 64));
}

TEST(BitMatrixTest, CountsAreConsistent) {
  BitMatrix m(10, 100);
  Rng rng(99);
  std::size_t total = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 100; ++j) {
      if (rng.bernoulli(0.3)) {
        m.set(i, j, true);
        ++total;
      }
    }
  }
  EXPECT_EQ(m.popcount(), total);
  std::size_t via_rows = 0;
  for (std::size_t i = 0; i < 10; ++i) via_rows += m.row_count(i);
  EXPECT_EQ(via_rows, total);
  std::size_t via_cols = 0;
  for (std::size_t j = 0; j < 100; ++j) via_cols += m.col_count(j);
  EXPECT_EQ(via_cols, total);
}

TEST(BitMatrixTest, OutOfRangeThrows) {
  BitMatrix m(2, 3);
  EXPECT_THROW(m.get(2, 0), ConfigError);
  EXPECT_THROW(m.get(0, 3), ConfigError);
  EXPECT_THROW(m.set(5, 5, true), ConfigError);
  EXPECT_THROW(m.col_count(3), ConfigError);
  EXPECT_THROW(m.row_count(2), ConfigError);
}

TEST(BitMatrixTest, OrWithMergesBits) {
  BitMatrix a(2, 10);
  BitMatrix b(2, 10);
  a.set(0, 1, true);
  b.set(1, 2, true);
  b.set(0, 1, true);
  a.or_with(b);
  EXPECT_TRUE(a.get(0, 1));
  EXPECT_TRUE(a.get(1, 2));
  EXPECT_EQ(a.popcount(), 2u);
}

TEST(BitMatrixTest, OrWithShapeMismatchThrows) {
  BitMatrix a(2, 10);
  BitMatrix b(2, 11);
  EXPECT_THROW(a.or_with(b), ConfigError);
}

// The churn count of every full rebuild: XOR + popcount over row words must
// equal a per-bit comparison, including shapes whose rows end mid-word.
TEST(BitMatrixTest, HammingDistanceMatchesPerBitReference) {
  eppi::Rng rng(31);
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {3, 63}, {5, 65}, {7, 130}, {64, 64}, {13, 200}}) {
    for (const double density : {0.0, 0.1, 0.5, 0.9}) {
      BitMatrix a(rows, cols);
      BitMatrix b(rows, cols);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          if (rng.bernoulli(density)) a.set(i, j, true);
          if (rng.bernoulli(density)) b.set(i, j, true);
        }
      }
      std::size_t reference = 0;
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          reference += a.get(i, j) != b.get(i, j) ? 1 : 0;
        }
      }
      EXPECT_EQ(a.hamming_distance(b), reference)
          << rows << "x" << cols << " density " << density;
      EXPECT_EQ(b.hamming_distance(a), reference);
      EXPECT_EQ(a.hamming_distance(a), 0u);
    }
  }
  EXPECT_THROW(BitMatrix(2, 3).hamming_distance(BitMatrix(2, 4)),
               eppi::ConfigError);
}

TEST(BitMatrixTest, EqualityComparesContent) {
  BitMatrix a(2, 10);
  BitMatrix b(2, 10);
  EXPECT_EQ(a, b);
  a.set(1, 9, true);
  EXPECT_NE(a, b);
  b.set(1, 9, true);
  EXPECT_EQ(a, b);
}

TEST(BitMatrixTest, RowWordsExposePackedBits) {
  BitMatrix m(1, 128);
  m.set(0, 0, true);
  m.set(0, 64, true);
  EXPECT_EQ(m.words_per_row(), 2u);
  EXPECT_EQ(m.row_words(0)[0], 1u);
  EXPECT_EQ(m.row_words(0)[1], 1u);
}

}  // namespace
}  // namespace eppi
