// Differential harness: dense BitMatrix semantics vs the compressed sharded
// PostingIndex, proven bit-identical operation by operation (`ctest -L
// index`). The dense form is the executable specification — every query,
// delta splice, checksum, and store-recovery outcome computed in posting
// space must equal the same computation done on the matrix. This is what
// licenses the serving/replay tier to never materialize the dense matrix:
// the matrix still exists, but only here, as the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/epoch_manager.h"
#include "core/epoch_store.h"
#include "core/index_io.h"
#include "core/posting_index.h"
#include "core/sticky_publisher.h"
#include "fixtures/legacy_formats.h"
#include "fixtures/publication.h"
#include "storage/mem_vfs.h"

namespace eppi::core {
namespace {

using eppi::storage::MemVfs;

eppi::BitMatrix random_matrix(std::size_t m, std::size_t n,
                              std::uint64_t seed, double density) {
  eppi::Rng rng(seed);
  eppi::BitMatrix matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) matrix.set(i, j, true);
    }
  }
  return matrix;
}

std::vector<ProviderId> dense_query(const eppi::BitMatrix& matrix,
                                    std::size_t j) {
  std::vector<ProviderId> out;
  for (std::size_t i = 0; i < matrix.rows(); ++i) {
    if (matrix.get(i, j)) out.push_back(static_cast<ProviderId>(i));
  }
  return out;
}

void expect_identical(const eppi::BitMatrix& matrix,
                      const PostingIndex& postings,
                      const std::string& label) {
  ASSERT_EQ(postings.providers(), matrix.rows()) << label;
  ASSERT_EQ(postings.identities(), matrix.cols()) << label;
  std::vector<ProviderId> got;
  for (std::size_t j = 0; j < matrix.cols(); ++j) {
    postings.query_into(static_cast<IdentityId>(j), got);
    ASSERT_EQ(got, dense_query(matrix, j)) << label << " identity " << j;
    ASSERT_EQ(postings.apparent_frequency(static_cast<IdentityId>(j)),
              matrix.col_count(j))
        << label << " identity " << j;
  }
  EXPECT_EQ(postings.to_matrix_index().matrix(), matrix) << label;
}

// --- query differential -----------------------------------------------------

TEST(IndexDifferentialTest, QueriesMatchDenseAcrossDensitiesAndShardSpans) {
  for (const double density : {0.0, 0.01, 0.3, 0.95}) {
    // 200 identities with span 64 exercises multi-shard layouts including a
    // ragged final shard; kDefaultShardSpan exercises the single-shard case.
    for (const std::size_t span : {std::size_t{64}, kDefaultShardSpan}) {
      const auto matrix = random_matrix(37, 200, 11 + span, density);
      const PostingIndex postings(matrix, span);
      expect_identical(matrix, postings,
                       "density " + std::to_string(density) + " span " +
                           std::to_string(span));
    }
  }
}

// --- checksum differential --------------------------------------------------

// The dense definition of the legacy type-3 checksum: CRC32C over u64 LE
// rows, cols, then every row's packed words.
std::uint32_t dense_matrix_checksum(const eppi::BitMatrix& matrix) {
  BinaryWriter w;
  w.write_u64(matrix.rows());
  w.write_u64(matrix.cols());
  for (std::size_t i = 0; i < matrix.rows(); ++i) {
    const std::uint64_t* words = matrix.row_words(i);
    for (std::size_t k = 0; k < matrix.words_per_row(); ++k) {
      w.write_u64(words[k]);
    }
  }
  return crc32c(w.buffer());
}

// matrix_checksum must reproduce the dense definition bit for bit: recovery
// verifies LEGACY delta records (pinned to the dense checksum) in posting
// space, which is only sound if the posting-space computation reproduces
// the dense value exactly.
TEST(IndexDifferentialTest, MatrixChecksumAgreesAcrossRepresentations) {
  for (const double density : {0.0, 0.05, 0.5}) {
    for (const auto& [m, n] :
         {std::pair<std::size_t, std::size_t>{3, 63},
          std::pair<std::size_t, std::size_t>{8, 64},
          std::pair<std::size_t, std::size_t>{21, 193}}) {
      const auto matrix = random_matrix(m, n, m * 31 + n, density);
      const PostingIndex postings(matrix, 64);
      EXPECT_EQ(dense_matrix_checksum(matrix), matrix_checksum(postings))
          << m << "x" << n << " d=" << density;
      EXPECT_EQ(postings_checksum(matrix), postings_checksum(postings))
          << m << "x" << n << " d=" << density;
    }
  }
}

// --- splice differential ----------------------------------------------------

EpochStore::EpochDelta make_delta(const eppi::BitMatrix& next,
                                  std::uint64_t epoch,
                                  std::uint64_t base_epoch,
                                  std::vector<std::uint32_t> joined,
                                  std::vector<std::uint32_t> left,
                                  std::vector<std::uint32_t> row_ids,
                                  std::vector<std::uint32_t> col_ids) {
  EpochStore::EpochDelta d;
  d.epoch = epoch;
  d.base_epoch = base_epoch;
  d.rows = next.rows();
  d.cols = next.cols();
  d.lambda = 0.25;
  d.joined = std::move(joined);
  d.left = std::move(left);
  for (const std::uint32_t p : row_ids) {
    EpochStore::EpochDelta::Row row;
    row.provider = p;
    row.bits.assign((next.cols() + 7) / 8, 0);
    for (std::size_t j = 0; j < next.cols(); ++j) {
      if (next.get(p, j)) row.bits[j >> 3] |= 1u << (j & 7);
    }
    d.row_splices.push_back(std::move(row));
  }
  for (const std::uint32_t j : col_ids) {
    EpochStore::EpochDelta::Column col;
    col.identity = j;
    col.bits.assign((next.rows() + 7) / 8, 0);
    for (std::size_t i = 0; i < next.rows(); ++i) {
      if (next.get(i, j)) col.bits[i >> 3] |= 1u << (i & 7);
    }
    d.col_splices.push_back(std::move(col));
  }
  d.postings_crc = postings_checksum(next);
  return d;
}

// apply_delta (dense) and apply_delta_postings (compressed) must produce
// the same published index for every delta shape: same-shape column
// recomputes, grown shapes, retirements, joins with spliced rows, and
// overlapping row+column splices (where the column's FINAL value must win
// in both implementations).
TEST(IndexDifferentialTest, DeltaSpliceMatchesDenseApplyDelta) {
  const auto base = random_matrix(6, 130, 42, 0.2);
  const PostingIndex base_postings(base, 64);

  struct Case {
    const char* name;
    eppi::BitMatrix next;
    EpochStore::EpochDelta delta;
  };
  std::vector<Case> cases;

  {  // Same shape, two recomputed columns.
    eppi::BitMatrix next = base;
    next.set(0, 5, !next.get(0, 5));
    next.set(3, 64, !next.get(3, 64));
    cases.push_back({"columns", next,
                     make_delta(next, 2, 1, {}, {}, {}, {5, 64})});
  }
  {  // Retirement: provider 2's row zeroed, its identities recomputed.
    eppi::BitMatrix next = base;
    std::vector<std::uint32_t> cols;
    for (std::size_t j = 0; j < next.cols(); ++j) {
      if (next.get(2, j)) {
        cols.push_back(static_cast<std::uint32_t>(j));
        next.set(2, j, false);
      }
    }
    cases.push_back({"retire", next,
                     make_delta(next, 2, 1, {}, {2}, {}, cols)});
  }
  {  // Growth: new provider row 6 and new identity column 130.
    eppi::BitMatrix next(7, 131);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 130; ++j) {
        if (base.get(i, j)) next.set(i, j, true);
      }
    }
    next.set(6, 0, true);
    next.set(6, 130, true);
    next.set(1, 130, true);
    cases.push_back({"grow", next,
                     make_delta(next, 2, 1, {6}, {}, {6}, {130})});
  }
  {  // Overlap: row splice and column splice covering the same cell.
    eppi::BitMatrix next = base;
    for (std::size_t j = 0; j < next.cols(); ++j) next.set(4, j, j % 3 == 0);
    next.set(0, 7, true);
    next.set(4, 7, true);  // cell (4,7) covered by BOTH splices
    cases.push_back({"overlap", next,
                     make_delta(next, 2, 1, {}, {}, {4}, {7})});
  }

  for (auto& c : cases) {
    const eppi::BitMatrix dense = fixtures::apply_delta(base, c.delta);
    ASSERT_EQ(dense, c.next) << c.name << ": oracle disagrees with intent";
    const PostingIndex compressed =
        apply_delta_postings(base_postings, c.delta);
    expect_identical(dense, compressed, c.name);
    EXPECT_EQ(dense_matrix_checksum(dense), matrix_checksum(compressed))
        << c.name;
    EXPECT_EQ(postings_checksum(dense), postings_checksum(compressed))
        << c.name;
  }
}

// Randomized splice fuzz: random base, random delta (drops, row splices,
// column splices, growth), dense vs compressed must agree every round.
TEST(IndexDifferentialTest, RandomizedDeltaFuzz) {
  eppi::Rng rng(777);
  eppi::BitMatrix current = random_matrix(5, 70, 1, 0.25);
  PostingIndex current_postings(current, 64);
  for (int round = 0; round < 25; ++round) {
    const bool grow = rng.bernoulli(0.2);
    const std::size_t m = current.rows() + (grow ? 1 : 0);
    const std::size_t n = current.cols() + (grow ? 2 : 0);
    eppi::BitMatrix next(m, n);
    for (std::size_t i = 0; i < current.rows(); ++i) {
      for (std::size_t j = 0; j < current.cols(); ++j) {
        if (current.get(i, j)) next.set(i, j, true);
      }
    }
    std::vector<std::uint32_t> rows, cols, left;
    for (std::size_t i = 0; i < m; ++i) {
      if (rng.bernoulli(0.2)) {
        rows.push_back(static_cast<std::uint32_t>(i));
        for (std::size_t j = 0; j < n; ++j) {
          next.set(i, j, rng.bernoulli(0.3));
        }
      } else if (rng.bernoulli(0.1)) {
        left.push_back(static_cast<std::uint32_t>(i));
        for (std::size_t j = 0; j < n; ++j) next.set(i, j, false);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.15)) {
        cols.push_back(static_cast<std::uint32_t>(j));
        for (std::size_t i = 0; i < m; ++i) {
          next.set(i, j, rng.bernoulli(0.4));
        }
      }
    }
    const auto delta =
        make_delta(next, round + 2, round + 1, {}, left, rows, cols);
    const eppi::BitMatrix dense = fixtures::apply_delta(current, delta);
    const PostingIndex compressed =
        apply_delta_postings(current_postings, delta);
    expect_identical(dense, compressed, "round " + std::to_string(round));
    current = dense;
    current_postings = compressed;
  }
}

// --- recovery differential --------------------------------------------------

// A store-backed lifecycle (full epoch + delta chain, PR 8's machinery) now
// persists v3 and replays in posting space; the recovered epochs must be
// bit-identical to the dense replay of the same journal — and to what was
// committed.
TEST(IndexDifferentialTest, StoreRecoveryMatchesDenseReplay) {
  MemVfs vfs;
  const auto base = random_matrix(4, 80, 9, 0.3);
  eppi::BitMatrix e2 = base;
  e2.set(0, 3, !e2.get(0, 3));
  e2.set(2, 77, !e2.get(2, 77));
  eppi::BitMatrix e3 = e2;
  for (std::size_t j = 0; j < e3.cols(); ++j) e3.set(1, j, false);

  {
    EpochStore store(vfs, "store");
    store.record_sticky_state({.master_key = 5, .enable_mixing = true});
    store.commit_epoch(1, PostingIndex(base, 64), 0.1);
    store.commit_delta(make_delta(e2, 2, 1, {}, {}, {}, {3, 77}));
    store.commit_delta(make_delta(e3, 3, 2, {}, {1}, {}, {}));
  }

  EpochStore reopened(vfs, "store");
  ASSERT_EQ(reopened.latest_epoch(), 3u);
  for (const auto& [epoch, want] :
       {std::pair<std::uint64_t, const eppi::BitMatrix*>{1, &base},
        std::pair<std::uint64_t, const eppi::BitMatrix*>{2, &e2},
        std::pair<std::uint64_t, const eppi::BitMatrix*>{3, &e3}}) {
    const LoadedIndex loaded = reopened.load_epoch_postings(epoch);
    expect_identical(*want, loaded.postings,
                     "epoch " + std::to_string(epoch));
    // The dense convenience load must agree with the postings load.
    EXPECT_EQ(reopened.load_epoch(epoch).matrix(), *want);
  }
}

// Legacy pin: a type-3 delta record carrying ONLY the dense matrix checksum
// (golden journal bytes from before the store stopped writing them) must
// still replay and verify in posting space over its v2 base file.
TEST(IndexDifferentialTest, LegacyMatrixPinnedDeltaReplaysOnV3) {
  MemVfs vfs;
  eppi::fixtures::seed_type3_store(vfs, "store");
  const eppi::BitMatrix e2 = eppi::fixtures::golden_next_matrix();

  EpochStore reopened(vfs, "store");
  ASSERT_EQ(reopened.latest_epoch(), 2u);
  const auto& rec = reopened.delta_record(2);
  ASSERT_TRUE(rec.legacy_matrix_crc.has_value());
  EXPECT_EQ(*rec.legacy_matrix_crc, dense_matrix_checksum(e2));
  expect_identical(e2, reopened.load_epoch_postings(2).postings, "legacy");
  // The dense oracle replays the same record to the same matrix.
  EXPECT_EQ(fixtures::apply_delta(eppi::fixtures::golden_matrix(), rec), e2);
}

// The manager's incremental rebuild (PR 8) committed through the new v3
// store must recover byte-identically: same published matrix, and the
// recovered lineage re-serves it without a dense replay.
TEST(IndexDifferentialTest, ManagerDeltaLifecycleRecoversIdentically) {
  MemVfs vfs;
  eppi::BitMatrix truth = random_matrix(4, 24, 3, 0.35);
  const std::vector<double> eps(24, 0.5);

  eppi::BitMatrix published;
  {
    EpochStore store(vfs, "store");
    EpochManager::Options opt;
    opt.master_key = 21;
    EpochManager manager(opt);
    manager.attach_store(store);
    manager.rebuild(truth, eps);
    truth.set(2, 5, !truth.get(2, 5));
    EpochManager::DeltaRequest req;
    req.dirty = {5};
    manager.rebuild_delta(truth, eps, req);
    published = manager.served_postings()->to_matrix_index().matrix();
  }

  EpochStore reopened(vfs, "store");
  ASSERT_TRUE(reopened.latest_epoch().has_value());
  const LoadedIndex loaded =
      reopened.load_epoch_postings(*reopened.latest_epoch());
  expect_identical(published, loaded.postings, "manager lifecycle");

  EpochManager::Options opt;
  opt.master_key = 21;
  EpochManager resumed(opt);
  resumed.attach_store(reopened);
  ASSERT_TRUE(resumed.serving());
  EXPECT_EQ(resumed.served_postings()->to_matrix_index().matrix(), published);
}

// Sticky publication in posting space is the same publication: the lists
// the emitter publishes must invert the matrix of per-cell noise_bit
// decisions exactly, bit for bit, for the same (truth, betas, keys) — the
// matrix-free construction path is not allowed to publish even one
// different noise bit.
TEST(IndexDifferentialTest, StickyPostingPublicationMatchesMatrix) {
  const std::size_t m = 37;
  const std::size_t n = 130;
  const auto truth = random_matrix(m, n, 404, 0.1);
  eppi::Rng rng(405);
  std::vector<double> betas(n);
  for (auto& b : betas) b = static_cast<double>(rng.next_below(100)) / 100.0;
  std::vector<std::uint64_t> keys(m);
  for (auto& k : keys) k = rng.next();

  eppi::BitMatrix published(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const StickyPublisher publisher(keys[i]);
    for (std::size_t j = 0; j < n; ++j) {
      if (truth.get(i, j) || publisher.noise_bit(j, betas[j])) {
        published.set(i, j, true);
      }
    }
  }
  const PostingLists lists =
      fixtures::emit_all(StickyEmitter(keys, betas), owner_truth(truth));
  ASSERT_EQ(lists.rows(), n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto row = lists.row(j);
    EXPECT_EQ(std::vector<ProviderId>(row.begin(), row.end()),
              dense_query(published, j))
        << "identity " << j;
  }
  // And the compressed index encoded from those lists answers like the
  // matrix built the classic way.
  const PostingIndex postings = fixtures::encode_lists(m, lists, 64);
  expect_identical(published, postings, "sticky postings");
}

}  // namespace
}  // namespace eppi::core
