#include "common/bit_matrix.h"

#include <bit>

#include "common/error.h"

namespace eppi {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), words_per_row_((cols + 63) / 64) {
  words_.assign(rows_ * words_per_row_, 0);
}

void BitMatrix::check_bounds(std::size_t row, std::size_t col) const {
  require(row < rows_ && col < cols_, "BitMatrix: index out of range");
}

bool BitMatrix::get(std::size_t row, std::size_t col) const {
  check_bounds(row, col);
  const std::uint64_t word = words_[row * words_per_row_ + col / 64];
  return (word >> (col % 64)) & 1u;
}

void BitMatrix::set(std::size_t row, std::size_t col, bool value) {
  check_bounds(row, col);
  std::uint64_t& word = words_[row * words_per_row_ + col / 64];
  const std::uint64_t mask = std::uint64_t{1} << (col % 64);
  if (value) {
    word |= mask;
  } else {
    word &= ~mask;
  }
}

std::size_t BitMatrix::col_count(std::size_t col) const {
  require(col < cols_, "BitMatrix: column out of range");
  const std::size_t word_index = col / 64;
  const std::uint64_t mask = std::uint64_t{1} << (col % 64);
  std::size_t count = 0;
  for (std::size_t row = 0; row < rows_; ++row) {
    if (words_[row * words_per_row_ + word_index] & mask) ++count;
  }
  return count;
}

std::size_t BitMatrix::row_count(std::size_t row) const {
  require(row < rows_, "BitMatrix: row out of range");
  std::size_t count = 0;
  const std::uint64_t* w = &words_[row * words_per_row_];
  for (std::size_t k = 0; k < words_per_row_; ++k) {
    count += static_cast<std::size_t>(std::popcount(w[k]));
  }
  return count;
}

std::size_t BitMatrix::popcount() const noexcept {
  std::size_t count = 0;
  for (const std::uint64_t word : words_) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

const std::uint64_t* BitMatrix::row_words(std::size_t row) const {
  require(row < rows_, "BitMatrix: row out of range");
  return &words_[row * words_per_row_];
}

void BitMatrix::or_with(const BitMatrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "BitMatrix: shape mismatch in or_with");
  for (std::size_t k = 0; k < words_.size(); ++k) words_[k] |= other.words_[k];
}

std::size_t BitMatrix::hamming_distance(const BitMatrix& other) const {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "BitMatrix: shape mismatch in hamming_distance");
  std::size_t count = 0;
  for (std::size_t k = 0; k < words_.size(); ++k) {
    count += static_cast<std::size_t>(std::popcount(words_[k] ^ other.words_[k]));
  }
  return count;
}

}  // namespace eppi
