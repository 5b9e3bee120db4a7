// Packed Boolean membership matrix.
//
// In the ε-PPI data model (paper §II-A, Fig. 2) a provider p_i summarizes its
// local repository by a membership vector M_i(·) over n owner identities, and
// the PPI holds the m×n matrix M'(·,·). Both are represented here as a packed
// bit matrix: rows are providers, columns are owner identities. The packed
// representation keeps the m = 10,000 × n = 100,000-scale simulation
// experiments (paper §V-A) memory-friendly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eppi {

class BitMatrix {
 public:
  BitMatrix() = default;

  // rows × cols matrix, all bits zero.
  BitMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  bool get(std::size_t row, std::size_t col) const;
  void set(std::size_t row, std::size_t col, bool value);

  // Number of set bits in a column (identity frequency σ_j · m) or row
  // (provider's local corpus size).
  std::size_t col_count(std::size_t col) const;
  std::size_t row_count(std::size_t row) const;

  // Total set bits.
  std::size_t popcount() const noexcept;

  // Row-wise view: the packed 64-bit words of one row.
  const std::uint64_t* row_words(std::size_t row) const;
  std::size_t words_per_row() const noexcept { return words_per_row_; }

  // OR another matrix of identical shape into this one.
  void or_with(const BitMatrix& other);

  // Cells where this matrix and another of identical shape differ: XOR and
  // popcount over the packed words (the padding bits past cols() are zero
  // in every row, so they never count).
  std::size_t hamming_distance(const BitMatrix& other) const;

  bool operator==(const BitMatrix& other) const noexcept = default;

 private:
  void check_bounds(std::size_t row, std::size_t col) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace eppi
