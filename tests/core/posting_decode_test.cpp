// The query path's trusted decoder against the checked one.
//
// A PostingShard checks every row once, when it is built or loaded, with
// the checked decoder (decode_postings); after that its rows are decoded
// trusted, at word speed and without re-checking (PostingShard::append_row,
// behind PostingIndex::query_into and append_postings). These tests hold
// the two equal on every row shape: empty rows, bitvector rows over
// universes on both sides of every byte and word boundary, Elias-Fano rows
// from l = 0 up to the widest l the chooser produces, single entries, and
// rows that end exactly at the arena's end, where the trusted decoder's
// loads are short. Shards are adopted from hand-encoded arenas whose
// capacity equals their size, so under ASan a load past the arena's end is
// a heap overflow.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/posting_codec.h"
#include "core/posting_index.h"

namespace eppi::core {
namespace {

struct Row {
  PostingCodec codec;
  std::vector<ProviderId> ids;
};

// Encodes each row under its own codec and adopts the arena (the load
// path), so every row has passed the checked decoder before it is read.
PostingShard adopt(std::size_t universe, const std::vector<Row>& rows) {
  std::vector<std::uint8_t> arena;
  std::vector<std::uint32_t> offsets;
  for (const Row& row : rows) {
    offsets.push_back(static_cast<std::uint32_t>(arena.size() << 2) |
                      static_cast<std::uint32_t>(row.codec));
    encode_postings(row.codec, row.ids, universe, arena);
  }
  // An exact-size copy: no slack after the last row.
  std::vector<std::uint8_t> exact(arena.begin(), arena.end());
  return PostingShard(0, universe, std::move(offsets), std::move(exact));
}

std::vector<ProviderId> checked_row(const PostingShard& shard,
                                    std::size_t row) {
  std::vector<ProviderId> out;
  decode_postings(shard.codec_of(row),
                  shard.arena().subspan(shard.tagged_offsets()[row] >> 2),
                  shard.universe(), out);
  return out;
}

// Every row, decoded trusted, equals the checked decode and the input; and
// append_row appends after what `out` already holds.
void expect_rows_agree(std::size_t universe, const std::vector<Row>& rows) {
  const PostingShard shard = adopt(universe, rows);
  ASSERT_EQ(shard.rows(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<ProviderId> trusted;
    shard.append_row(r, trusted);
    EXPECT_EQ(trusted, checked_row(shard, r))
        << "universe=" << universe << " row=" << r << " codec="
        << to_string(rows[r].codec);
    EXPECT_EQ(trusted, rows[r].ids);
    std::vector<ProviderId> appended = {7, 7, 7};
    shard.append_row(r, appended);
    ASSERT_EQ(appended.size(), 3 + rows[r].ids.size());
    EXPECT_TRUE(std::equal(rows[r].ids.begin(), rows[r].ids.end(),
                           appended.begin() + 3));
  }
}

std::vector<ProviderId> all_of(std::size_t universe) {
  std::vector<ProviderId> ids(universe);
  for (std::size_t p = 0; p < universe; ++p) ids[p] = static_cast<ProviderId>(p);
  return ids;
}

std::vector<ProviderId> random_ids(eppi::Rng& rng, std::size_t universe,
                                   double density) {
  std::vector<ProviderId> ids;
  for (std::size_t p = 0; p < universe; ++p) {
    if (rng.bernoulli(density)) ids.push_back(static_cast<ProviderId>(p));
  }
  return ids;
}

TEST(PostingDecodeTest, EmptyRowsAppendNothing) {
  expect_rows_agree(100, {{PostingCodec::kEmpty, {}},
                          {PostingCodec::kEmpty, {}},
                          {PostingCodec::kBitvector, {3}},
                          {PostingCodec::kEmpty, {}}});
}

TEST(PostingDecodeTest, BitvectorRowsAcrossByteAndWordBoundaries) {
  eppi::Rng rng(11);
  for (const std::size_t universe :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{63},
        std::size_t{64}, std::size_t{65}, std::size_t{1000},
        (std::size_t{1} << 16) + 1}) {
    std::vector<Row> rows;
    rows.push_back({PostingCodec::kBitvector, all_of(universe)});
    rows.push_back({PostingCodec::kBitvector, {0}});
    rows.push_back(
        {PostingCodec::kBitvector, {static_cast<ProviderId>(universe - 1)}});
    for (const double density : {0.03, 0.5, 0.97}) {
      auto ids = random_ids(rng, universe, density);
      if (!ids.empty()) rows.push_back({PostingCodec::kBitvector, ids});
    }
    // The full row last: its final word is a short load at the arena's end.
    rows.push_back({PostingCodec::kBitvector, all_of(universe)});
    expect_rows_agree(universe, rows);
  }
}

TEST(PostingDecodeTest, EliasFanoRowsFromZeroToWidestLowWidth) {
  eppi::Rng rng(12);
  // l = 0: at least half the universe set.
  for (const std::size_t universe :
       {std::size_t{1}, std::size_t{2}, std::size_t{65}, std::size_t{1000}}) {
    auto dense = random_ids(rng, universe, 0.8);
    if (dense.size() * 2 < universe) dense = all_of(universe);
    expect_rows_agree(universe, {{PostingCodec::kEliasFano, dense},
                                 {PostingCodec::kEliasFano, all_of(universe)}});
  }
  // Single entries: the widest l the chooser produces for each universe
  // (a one-entry row is always Elias-Fano past the smallest universes).
  for (const std::size_t universe :
       {std::size_t{1000}, (std::size_t{1} << 16) + 1, std::size_t{1} << 20,
        (std::size_t{1} << 26) + 3}) {
    ASSERT_EQ(choose_codec(1, universe), PostingCodec::kEliasFano);
    std::vector<Row> rows;
    for (const std::size_t v : {std::size_t{0}, universe / 3, universe - 1}) {
      rows.push_back({PostingCodec::kEliasFano, {static_cast<ProviderId>(v)}});
    }
    expect_rows_agree(universe, rows);
  }
  // Every width from 1 up: 4096 entries over 4096 << l, one per 2^l block.
  for (unsigned l = 1; l <= 19; ++l) {
    const std::size_t universe = std::size_t{4096} << l;
    std::vector<ProviderId> ids;
    for (std::size_t k = 0; k < 4096; ++k) {
      ids.push_back(static_cast<ProviderId>(
          (k << l) + rng.next_below(std::size_t{1} << l)));
    }
    expect_rows_agree(universe, {{PostingCodec::kEliasFano, ids}});
  }
}

// The row that owns the arena's last byte, under each codec, alone and
// after other rows.
TEST(PostingDecodeTest, RowEndingAtTheArenaEnd) {
  eppi::Rng rng(13);
  for (const std::size_t universe : {std::size_t{9}, std::size_t{200}}) {
    for (const PostingCodec codec :
         {PostingCodec::kBitvector, PostingCodec::kEliasFano}) {
      const auto ids = random_ids(rng, universe, 0.3);
      ASSERT_FALSE(ids.empty());
      expect_rows_agree(universe, {{codec, ids}});
      expect_rows_agree(universe, {{PostingCodec::kBitvector, all_of(universe)},
                                   {PostingCodec::kEmpty, {}},
                                   {codec, ids}});
      expect_rows_agree(universe, {{codec, {0}}});
      expect_rows_agree(
          universe, {{codec, {static_cast<ProviderId>(universe - 1)}}});
    }
  }
}

// Random shards, every row under a random legal codec, at the universes
// the benchmark serves and around them.
TEST(PostingDecodeTest, RandomShardsAgreeRowForRow) {
  eppi::Rng rng(14);
  for (const std::size_t universe :
       {std::size_t{5}, std::size_t{64}, std::size_t{129}, std::size_t{1000}}) {
    std::vector<Row> rows;
    for (std::size_t r = 0; r < 300; ++r) {
      const double density =
          rng.bernoulli(0.1) ? 1.0 : rng.next_double() * rng.next_double();
      auto ids = random_ids(rng, universe, density);
      PostingCodec codec = PostingCodec::kEmpty;
      if (!ids.empty()) {
        codec = rng.bernoulli(0.5) ? PostingCodec::kBitvector
                                   : PostingCodec::kEliasFano;
      }
      rows.push_back({codec, std::move(ids)});
    }
    expect_rows_agree(universe, rows);
  }
}

// PostingIndex: query_into and append_postings answer what the checked
// decoder reads from the same shard, over the list-built (chosen codec)
// path and across shard boundaries.
TEST(PostingDecodeTest, IndexQueriesMatchTheCheckedDecoder) {
  eppi::Rng rng(15);
  const std::size_t providers = 1000;
  std::vector<std::vector<ProviderId>> lists(1000);
  for (auto& list : lists) {
    const double density = rng.bernoulli(0.05) ? 1.0 : 0.02;
    list = random_ids(rng, providers, density);
  }
  const PostingIndex index(providers, lists, /*shard_span=*/128);
  std::vector<ProviderId> batch;
  std::vector<ProviderId> expected;
  std::vector<ProviderId> got;
  for (std::size_t j = 0; j < lists.size(); ++j) {
    const auto& shard = *index.shard(j / 128);
    const std::vector<ProviderId> checked = checked_row(shard, j % 128);
    EXPECT_EQ(checked, lists[j]);
    index.query_into(static_cast<IdentityId>(j), got);
    EXPECT_EQ(got, checked) << j;
    index.append_postings(static_cast<IdentityId>(j), batch);
    expected.insert(expected.end(), checked.begin(), checked.end());
  }
  EXPECT_EQ(batch, expected);
}

// What the trusted decoder assumes away, load still rejects: a shard whose
// rows would mislead it never gets built.
TEST(PostingDecodeTest, LoadRejectsRowsTheTrustedDecoderAssumesAway) {
  const std::size_t universe = 100;
  std::vector<std::uint8_t> arena;
  encode_postings(PostingCodec::kEliasFano, std::vector<ProviderId>{3, 50},
                  universe, arena);
  // A wider low width than the encoder's moves the row's extent.
  std::vector<std::uint8_t> wide = arena;
  wide[1] = static_cast<std::uint8_t>(wide[1] + 1);
  EXPECT_THROW(PostingShard(0, universe,
                            {static_cast<std::uint32_t>(PostingCodec::kEliasFano)},
                            wide),
               eppi::SerializeError);
  // A count above the row's set bits would leave entries unwritten.
  std::vector<std::uint8_t> bv;
  encode_postings(PostingCodec::kBitvector, std::vector<ProviderId>{1, 2},
                  universe, bv);
  bv[0] = 3;
  EXPECT_THROW(PostingShard(0, universe,
                            {static_cast<std::uint32_t>(PostingCodec::kBitvector)},
                            bv),
               eppi::SerializeError);
}

}  // namespace
}  // namespace eppi::core
