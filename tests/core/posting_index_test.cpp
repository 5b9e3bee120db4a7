#include "core/posting_index.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "dataset/synthetic.h"

namespace eppi::core {
namespace {

PpiIndex sample_index(std::size_t m, std::size_t n, std::uint64_t seed,
                      double density = 0.25) {
  eppi::Rng rng(seed);
  eppi::BitMatrix matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) matrix.set(i, j, true);
    }
  }
  return PpiIndex(std::move(matrix));
}

TEST(PostingIndexTest, AnswersMatchMatrixIndex) {
  const PpiIndex matrix_index = sample_index(40, 130, 1);  // 3 words/row
  const PostingIndex postings(matrix_index);
  EXPECT_EQ(postings.providers(), 40u);
  EXPECT_EQ(postings.identities(), 130u);
  for (IdentityId j = 0; j < 130; ++j) {
    EXPECT_EQ(postings.query(j), matrix_index.query(j)) << "identity " << j;
    EXPECT_EQ(postings.apparent_frequency(j),
              matrix_index.apparent_frequency(j));
  }
}

TEST(PostingIndexTest, PostingsAreSorted) {
  const PpiIndex matrix_index = sample_index(60, 20, 2);
  const PostingIndex postings(matrix_index);
  for (IdentityId j = 0; j < 20; ++j) {
    const auto& list = postings.query(j);
    for (std::size_t k = 1; k < list.size(); ++k) {
      EXPECT_LT(list[k - 1], list[k]);
    }
  }
}

TEST(PostingIndexTest, RoundTripsToMatrixForm) {
  const PpiIndex original = sample_index(25, 70, 3);
  const PostingIndex postings(original);
  const PpiIndex back = postings.to_matrix_index();
  EXPECT_EQ(back.matrix(), original.matrix());
}

TEST(PostingIndexTest, EmptyIndex) {
  const PpiIndex empty{eppi::BitMatrix(5, 4)};
  const PostingIndex postings(empty);
  for (IdentityId j = 0; j < 4; ++j) {
    EXPECT_TRUE(postings.query(j).empty());
  }
  EXPECT_EQ(postings.posting_bytes(), 0u);
}

TEST(PostingIndexTest, UnknownIdentityThrows) {
  const PostingIndex postings(sample_index(5, 4, 4));
  EXPECT_THROW(postings.query(4), eppi::ConfigError);
}

TEST(PostingIndexTest, PostingBytesReflectDensity) {
  const PostingIndex sparse(sample_index(100, 50, 5, 0.05));
  const PostingIndex dense(sample_index(100, 50, 5, 0.8));
  EXPECT_LT(sparse.posting_bytes(), dense.posting_bytes());
}

// Identity ids straddling the packed 64-bit word boundary: the last id of
// the first word (63), the first id of the second word (64), and one past
// it (65) must all invert correctly — the bit-walk in the constructor does
// word * 64 + ctz arithmetic that is easy to get off by one.
TEST(PostingIndexTest, WordBoundaryIdentities) {
  for (const std::size_t n : {63u, 64u, 65u}) {
    eppi::BitMatrix matrix(7, n);
    // Claims only at the boundary columns and the very first one.
    for (std::size_t j : {std::size_t{0}, n - 1}) {
      for (std::size_t i = 0; i < 7; i += 2) matrix.set(i, j, true);
    }
    if (n > 64) matrix.set(3, 63, true);
    const PostingIndex postings{matrix};
    ASSERT_EQ(postings.identities(), n) << "n=" << n;
    EXPECT_EQ(postings.query(static_cast<IdentityId>(n - 1)),
              (std::vector<ProviderId>{0, 2, 4, 6}))
        << "n=" << n;
    if (n > 64) {
      EXPECT_EQ(postings.query(63), (std::vector<ProviderId>{3}));
      EXPECT_TRUE(postings.query(1).empty());
    }
    // Out-of-range rejection exactly at the boundary.
    EXPECT_THROW(postings.query(static_cast<IdentityId>(n)),
                 eppi::ConfigError)
        << "n=" << n;
    EXPECT_EQ(postings.to_matrix_index().matrix(), matrix) << "n=" << n;
  }
}

// Property: for random sparse-to-dense indexes, the posting form agrees
// with the matrix form on every answer and round-trips exactly.
TEST(PostingIndexTest, RoundTripPropertyOnRandomIndexes) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {3, 63}, {7, 64}, {9, 65}, {33, 130}};
  for (const double density : {0.0, 0.02, 0.5, 0.97}) {
    for (const auto& [m, n] : shapes) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(m * 1000 + n + density * 100);
      const PpiIndex original = sample_index(m, n, seed, density);
      const PostingIndex postings(original);
      for (IdentityId j = 0; j < n; ++j) {
        ASSERT_EQ(postings.query(j), original.query(j))
            << m << "x" << n << " d=" << density << " j=" << j;
        ASSERT_EQ(postings.apparent_frequency(j),
                  original.matrix().col_count(j));
      }
      EXPECT_EQ(postings.to_matrix_index().matrix(), original.matrix());
    }
  }
}

// Construction from a PpiIndex and from its raw matrix are the same index.
TEST(PostingIndexTest, MatrixConstructorMatchesPpiIndexConstructor) {
  const PpiIndex index = sample_index(20, 90, 11);
  const PostingIndex from_index(index);
  const PostingIndex from_matrix(index.matrix());
  ASSERT_EQ(from_index.identities(), from_matrix.identities());
  for (IdentityId j = 0; j < 90; ++j) {
    EXPECT_EQ(from_index.query(j), from_matrix.query(j));
  }
}

TEST(PostingIndexTest, MemoryFootprintSeparatesPayloadFromResident) {
  const PostingIndex postings(sample_index(100, 50, 5, 0.3));
  const auto fp = postings.memory_footprint();
  // The per-codec split must tile the totals exactly: every row is counted
  // under the codec its tagged offset names, and nothing else contributes
  // to the encoded payload.
  std::size_t rows = 0;
  std::size_t payload = 0;
  for (const auto& codec : fp.by_codec) {
    rows += codec.rows;
    payload += codec.payload_bytes;
  }
  EXPECT_EQ(rows, 50u);
  EXPECT_EQ(payload, fp.payload_bytes);
  EXPECT_EQ(postings.posting_bytes(), fp.payload_bytes);
  // The encoded payload beats raw u32 posting lists at this density, and
  // resident honestly counts the per-row tagged offsets on top of it.
  std::size_t raw_bytes = 0;
  for (IdentityId j = 0; j < 50; ++j) {
    raw_bytes += postings.query(j).size() * sizeof(ProviderId);
  }
  EXPECT_LT(fp.payload_bytes, raw_bytes);
  EXPECT_GE(fp.resident_bytes,
            fp.payload_bytes + 50 * sizeof(std::uint32_t));
  EXPECT_EQ(fp.shards, postings.shard_count());
}

// The per-codec footprint is tallied once per shard; it must equal the
// per-row recomputation from each row's codec and count, on built, spliced
// (copied and re-encoded rows) and grown indexes alike.
TEST(PostingIndexTest, MemoryFootprintMatchesPerRowRecount) {
  const auto recount = [](const PostingIndex& index) {
    std::array<CodecFootprint, kPostingCodecCount> by_codec{};
    for (std::size_t k = 0; k < index.shard_count(); ++k) {
      const PostingShard& shard = *index.shard(k);
      for (std::size_t row = 0; row < shard.rows(); ++row) {
        const std::size_t count = shard.row_count(row);
        const PostingCodec codec = shard.codec_of(row);
        auto& tally = by_codec[static_cast<std::size_t>(codec)];
        ++tally.rows;
        if (codec == PostingCodec::kBitvector) {
          tally.payload_bytes +=
              bitvector_encoded_bytes(count, shard.universe());
        } else if (codec == PostingCodec::kEliasFano) {
          tally.payload_bytes +=
              elias_fano_encoded_bytes(count, shard.universe());
        }
      }
    }
    return by_codec;
  };
  const auto expect_tiled = [&](const PostingIndex& index) {
    const auto fp = index.memory_footprint();
    const auto expected = recount(index);
    std::size_t payload = 0;
    for (std::size_t c = 0; c < kPostingCodecCount; ++c) {
      EXPECT_EQ(fp.by_codec[c].rows, expected[c].rows) << "codec " << c;
      EXPECT_EQ(fp.by_codec[c].payload_bytes, expected[c].payload_bytes)
          << "codec " << c;
      payload += expected[c].payload_bytes;
    }
    EXPECT_EQ(fp.payload_bytes, payload);
  };
  const PostingIndex base(sample_index(100, 300, 9, 0.2).matrix(), 128);
  expect_tiled(base);
  // Splice rows in the first and last shard, one of them emptied: base
  // rows are copied as bytes under the same universe...
  PostingLists rows;
  rows.entries = {1, 5, 99};
  rows.end_row();
  rows.end_row();
  const std::vector<IdentityId> ids{3, 290};
  expect_tiled(PostingIndex(base, 100, 300, ids, rows));
  // ...and re-encoded when a new provider and identity grow the universe.
  rows.entries.push_back(100);
  rows.end_row();
  const std::vector<IdentityId> grown_ids{3, 290, 300};
  expect_tiled(PostingIndex(base, 101, 301, grown_ids, rows));
}

TEST(PostingIndexTest, EmptyIndexStillHasResidentFootprint) {
  const PostingIndex postings(PpiIndex{eppi::BitMatrix(5, 64)});
  const auto fp = postings.memory_footprint();
  EXPECT_EQ(fp.payload_bytes, 0u);
  EXPECT_EQ(fp.by_codec[static_cast<std::size_t>(PostingCodec::kEmpty)].rows,
            64u);
  // No payload, but the tagged offsets are still resident.
  EXPECT_GE(fp.resident_bytes, 64 * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace eppi::core
