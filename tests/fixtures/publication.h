// Serial references for the publication emitter and the epoch encoding:
// every identity emitted in order into one set of lists, and those lists
// encoded through PostingIndex's list constructor. And dense views for
// tests that compare matrices: the lists scattered back into an m×n matrix,
// and a published epoch's postings expanded back into one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bit_matrix.h"
#include "common/error.h"
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

}  // namespace eppi::core::fixtures
