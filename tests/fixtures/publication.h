// Serial references for the publication emitter and the epoch encoding:
// every identity emitted in order into one set of lists, and those lists
// encoded through PostingIndex's list constructor. And dense views for
// tests that compare matrices: the lists scattered back into an m×n matrix,
// a published epoch's postings expanded back into one, and a journal delta
// applied to a dense matrix (the oracle apply_delta_postings is checked
// against).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bit_matrix.h"
#include "common/error.h"
#include "core/epoch_store.h"
#include "core/owner_truth.h"
#include "core/posting_index.h"
#include "core/sticky_publisher.h"

namespace eppi::core::fixtures {

// Every identity of `truth`, in order: the whole published epoch. The
// emitter must have one key per provider and one β per identity.
inline PostingLists emit_all(const StickyEmitter& emitter,
                             const OwnerTruth& truth) {
  require(truth.providers == emitter.providers(),
          "emit_all: one key per provider required");
  require(truth.identities() == emitter.identities(),
          "emit_all: beta count mismatch");
  PostingLists lists;
  for (std::size_t j = 0; j < truth.identities(); ++j) {
    emitter.emit(static_cast<IdentityId>(j), truth.owners[j], lists.entries);
    lists.end_row();
  }
  return lists;
}

// `lists` encoded row by row into one index.
inline PostingIndex encode_lists(std::size_t providers,
                                 const PostingLists& lists,
                                 std::size_t shard_span = kDefaultShardSpan) {
  std::vector<std::vector<ProviderId>> rows(lists.rows());
  for (std::size_t j = 0; j < lists.rows(); ++j) {
    rows[j].assign(lists.row(j).begin(), lists.row(j).end());
  }
  return PostingIndex(providers, rows, shard_span);
}

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
                     emit_all(StickyEmitter(keys, betas), owner_truth(truth)));
}

// A published epoch as its m×n matrix (the epoch manager serves postings).
inline eppi::BitMatrix dense(const PostingIndex& postings) {
  return postings.to_matrix_index().matrix();
}

// Applies one delta to its base matrix cell by cell. Throws ConfigError
// when the base shape does not fit under the delta's result shape.
inline eppi::BitMatrix apply_delta(const eppi::BitMatrix& base,
                                   const EpochStore::EpochDelta& delta) {
  require(delta.rows >= base.rows() && delta.cols >= base.cols(),
          "apply_delta: delta shrinks the matrix");
  eppi::BitMatrix next(delta.rows, delta.cols);
  if (delta.rows == base.rows() && delta.cols == base.cols()) {
    next = base;
  } else {
    // Shape grew: re-seat the surviving bits (sparse walk via row words).
    for (std::size_t i = 0; i < base.rows(); ++i) {
      const std::uint64_t* words = base.row_words(i);
      for (std::size_t k = 0; k < base.words_per_row(); ++k) {
        std::uint64_t word = words[k];
        while (word != 0) {
          const int bit = std::countr_zero(word);
          word &= word - 1;
          next.set(i, k * 64 + static_cast<std::size_t>(bit), true);
        }
      }
    }
  }
  // Covered sections carry FINAL values, so the write order below never
  // changes the result: a cell touched twice receives the same bit twice.
  const std::size_t row_bytes = (delta.cols + 7) / 8;
  const std::size_t col_bytes = (delta.rows + 7) / 8;
  for (const std::uint32_t p : delta.left) {
    require(p < delta.rows, "apply_delta: retired row out of range");
    for (std::size_t j = 0; j < delta.cols; ++j) next.set(p, j, false);
  }
  for (const auto& r : delta.row_splices) {
    require(r.provider < delta.rows, "apply_delta: row splice out of range");
    require(r.bits.size() == row_bytes,
            "apply_delta: row splice length mismatch");
    for (std::size_t j = 0; j < delta.cols; ++j) {
      next.set(r.provider, j, (r.bits[j >> 3] >> (j & 7)) & 1);
    }
  }
  for (const auto& c : delta.col_splices) {
    require(c.identity < delta.cols, "apply_delta: column splice out of range");
    require(c.bits.size() == col_bytes,
            "apply_delta: column splice length mismatch");
    for (std::size_t i = 0; i < delta.rows; ++i) {
      next.set(i, c.identity, (c.bits[i >> 3] >> (i & 7)) & 1);
    }
  }
  return next;
}

}  // namespace eppi::core::fixtures
