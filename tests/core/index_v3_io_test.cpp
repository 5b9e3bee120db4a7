// eppi-index-v3 persistence: round-trips, per-shard integrity sections,
// lexicon validation, v2→v3 migration, and store-level quarantine of files
// with corrupt shards (`ctest -L index`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/epoch_store.h"
#include "core/index_io.h"
#include "core/lexicon.h"
#include "core/posting_index.h"
#include "fixtures/legacy_formats.h"
#include "storage/mem_vfs.h"

namespace eppi::core {
namespace {

using eppi::storage::MemVfs;

eppi::BitMatrix sample_matrix(std::size_t m, std::size_t n,
                              std::uint64_t seed, double density = 0.3) {
  eppi::Rng rng(seed);
  eppi::BitMatrix matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) matrix.set(i, j, true);
    }
  }
  return matrix;
}

Lexicon sample_lexicon(std::size_t n) {
  std::vector<std::pair<std::string, IdentityId>> entries;
  for (std::size_t t = 0; t < n; ++t) {
    entries.emplace_back("owner-" + std::to_string(t),
                         static_cast<IdentityId>(t));
  }
  return Lexicon(std::move(entries));
}

void expect_same_index(const PostingIndex& a, const PostingIndex& b) {
  ASSERT_EQ(a.providers(), b.providers());
  ASSERT_EQ(a.identities(), b.identities());
  std::vector<ProviderId> la, lb;
  for (std::size_t j = 0; j < a.identities(); ++j) {
    a.query_into(static_cast<IdentityId>(j), la);
    b.query_into(static_cast<IdentityId>(j), lb);
    ASSERT_EQ(la, lb) << "identity " << j;
  }
}

TEST(IndexV3IoTest, RoundTripPreservesPostingsAndTopology) {
  const auto matrix = sample_matrix(23, 300, 1);
  const PostingIndex original(matrix, 128);
  const auto bytes = save_index_v3_bytes(original, nullptr);

  const IndexValidation v = validate_index(bytes);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.version, 3);
  EXPECT_EQ(v.shards, 3);  // ⌈300/128⌉
  EXPECT_FALSE(v.has_lexicon);

  const LoadedIndex loaded = load_postings_bytes(bytes);
  EXPECT_EQ(loaded.lexicon, nullptr);
  EXPECT_EQ(loaded.postings.shard_span(), 128u);
  EXPECT_EQ(loaded.postings.shard_count(), 3u);
  expect_same_index(original, loaded.postings);
  // The shard storage is adopted verbatim: re-serializing reproduces the
  // exact bytes (deterministic format, no re-encoding drift).
  EXPECT_EQ(save_index_v3_bytes(loaded.postings, nullptr), bytes);
}

TEST(IndexV3IoTest, LexiconSectionRoundTrips) {
  const auto matrix = sample_matrix(9, 50, 2);
  const PostingIndex original(matrix, 64);
  const Lexicon lex = sample_lexicon(50);
  const auto bytes = save_index_v3_bytes(original, &lex);

  const IndexValidation v = validate_index(bytes);
  EXPECT_TRUE(v.ok);
  EXPECT_TRUE(v.has_lexicon);

  const LoadedIndex loaded = load_postings_bytes(bytes);
  ASSERT_NE(loaded.lexicon, nullptr);
  ASSERT_EQ(loaded.lexicon->size(), 50u);
  for (std::size_t t = 0; t < 50; ++t) {
    EXPECT_EQ(loaded.lexicon->find("owner-" + std::to_string(t)),
              static_cast<IdentityId>(t));
  }
  EXPECT_EQ(loaded.lexicon->find("nobody"), std::nullopt);
}

TEST(IndexV3IoTest, ShapeIsReadableWithoutDecoding) {
  const PostingIndex original(sample_matrix(7, 80, 3), 64);
  const auto bytes = save_index_v3_bytes(original, nullptr);
  const IndexShape shape = index_shape(bytes);
  EXPECT_EQ(shape.rows, 7u);
  EXPECT_EQ(shape.cols, 80u);
}

// A flipped byte inside one shard must fail THAT shard's checksum, name the
// shard in the validation report, and leave the other shards' checks green
// — fsck's "which shards of this file are damaged" story.
TEST(IndexV3IoTest, ShardBitFlipNamesTheFailingShard) {
  const PostingIndex original(sample_matrix(31, 256, 4, 0.4), 64);
  auto bytes = save_index_v3_bytes(original, nullptr);
  // Flip a byte well inside the payload region (past the 40-byte header and
  // the first shard's length/header words): lands in some shard's blob.
  bytes[bytes.size() / 2] ^= 0x40;

  const IndexValidation v = validate_index(bytes);
  EXPECT_FALSE(v.ok);
  int failing_shards = 0;
  for (const auto& c : v.sections) {
    if (c.section == IndexSection::kShard && !c.ok) {
      ++failing_shards;
      EXPECT_NE(c.detail.find("shard "), std::string::npos) << c.detail;
    }
  }
  EXPECT_EQ(failing_shards, 1) << "exactly one shard should fail its CRC";

  try {
    (void)load_postings_bytes(bytes);
    FAIL() << "expected CorruptIndexError";
  } catch (const CorruptIndexError& e) {
    EXPECT_EQ(e.section(), IndexSection::kShard);
  }
}

TEST(IndexV3IoTest, LexiconBitFlipNamesTheLexiconSection) {
  const PostingIndex original(sample_matrix(5, 40, 5), 64);
  const Lexicon lex = sample_lexicon(40);
  const auto clean = save_index_v3_bytes(original, nullptr);
  auto bytes = save_index_v3_bytes(original, &lex);
  // The lexicon section sits between the last shard and the footer; clean
  // and lexicon-carrying files share the leading bytes, so flip inside the
  // added region (before the 12-byte footer).
  bytes[clean.size() - 12 + 8] ^= 0x04;

  const IndexValidation v = validate_index(bytes);
  EXPECT_FALSE(v.ok);
  bool lexicon_failed = false;
  for (const auto& c : v.sections) {
    if (c.section == IndexSection::kLexicon && !c.ok) lexicon_failed = true;
    if (c.section == IndexSection::kShard) {
      EXPECT_TRUE(c.ok) << c.detail;
    }
  }
  EXPECT_TRUE(lexicon_failed);
}

// Truncation anywhere must read as a torn write: the footer check fails
// (that is how recovery tells "never finished" from "rotted"), and the load
// throws. Every truncation point, as in the v1/v2 fuzzers.
TEST(IndexV3IoTest, EveryTruncationPointRejected) {
  const PostingIndex original(sample_matrix(6, 70, 6), 64);
  const Lexicon lex = sample_lexicon(70);
  const auto bytes = save_index_v3_bytes(original, &lex);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> torn(bytes.data(), cut);
    EXPECT_THROW((void)load_postings_bytes(torn), eppi::SerializeError)
        << "cut=" << cut;
    const IndexValidation v = validate_index(torn);
    EXPECT_FALSE(v.ok) << "cut=" << cut;
  }
}

TEST(IndexV3IoTest, TrailingBytesRejected) {
  const PostingIndex original(sample_matrix(4, 20, 7), 64);
  auto bytes = save_index_v3_bytes(original, nullptr);
  bytes.push_back(0x00);
  try {
    (void)load_postings_bytes(bytes);
    FAIL() << "expected CorruptIndexError";
  } catch (const CorruptIndexError& e) {
    EXPECT_EQ(e.section(), IndexSection::kTrailing);
  }
}

// --- migration ---------------------------------------------------------------

// v1/v2 files load into the compressed form (no dense matrix on the path),
// and re-persisting as v3 then loading again is lossless: the v2→v3
// migration a store performs implicitly on its next commit.
TEST(IndexV3IoTest, V2ToV3MigrationRoundTrip) {
  const eppi::BitMatrix matrix = fixtures::golden_matrix();
  ASSERT_EQ(validate_index(fixtures::kV2Index).version, 2);

  const LoadedIndex migrated = load_postings_bytes(fixtures::kV2Index);
  EXPECT_EQ(migrated.lexicon, nullptr);
  EXPECT_EQ(migrated.postings.providers(), 6u);
  EXPECT_EQ(migrated.postings.identities(), 70u);

  const auto v3_bytes = save_index_v3_bytes(migrated.postings, nullptr);
  ASSERT_EQ(validate_index(v3_bytes).version, 3);
  const LoadedIndex reloaded = load_postings_bytes(v3_bytes);
  expect_same_index(migrated.postings, reloaded.postings);
  // Full circle to the dense form: nothing was lost in either hop.
  EXPECT_EQ(reloaded.postings.to_matrix_index().matrix(), matrix);
}

// --- fsck / store integration ------------------------------------------------

TEST(IndexV3IoTest, FsckReportsCleanV3File) {
  MemVfs vfs;
  const PostingIndex original(sample_matrix(8, 90, 9), 64);
  const Lexicon lex = sample_lexicon(90);
  vfs.make_dir("d");
  eppi::storage::atomic_write_file(vfs, "d/epoch-1.idx",
                                   save_index_v3_bytes(original, &lex));
  const FsckReport report = fsck_index_file(vfs, "d/epoch-1.idx");
  EXPECT_TRUE(report.ok) << (report.issues.empty()
                                 ? ""
                                 : report.issues[0].message);
}

// The lexicon validator enforces dense, in-range ids and sorted names; a
// hand-built v3 file with a lexicon naming an id outside the identity
// universe must fail the lexicon section.
TEST(IndexV3IoTest, FsckRejectsLexiconLargerThanUniverse) {
  const PostingIndex original(sample_matrix(4, 10, 10), 64);
  const Lexicon big = sample_lexicon(11);  // 11 names, 10 identities
  const auto bytes = save_index_v3_bytes(original, &big);
  const IndexValidation v = validate_index(bytes);
  EXPECT_FALSE(v.ok);
  bool lexicon_failed = false;
  for (const auto& c : v.sections) {
    if (c.section == IndexSection::kLexicon && !c.ok) {
      lexicon_failed = true;
      EXPECT_NE(c.detail.find("universe"), std::string::npos) << c.detail;
    }
  }
  EXPECT_TRUE(lexicon_failed);
}

// Store recovery over a v3 file with a rotted shard: the file is
// quarantined (named shard section in the note), the epoch is reported
// missing, and the store stays usable.
TEST(IndexV3IoTest, StoreQuarantinesFileWithCorruptShard) {
  MemVfs vfs;
  const auto matrix = sample_matrix(12, 200, 11, 0.35);
  {
    EpochStore store(vfs, "store");
    store.record_sticky_state({.master_key = 9, .enable_mixing = true});
    store.commit_epoch(1, PostingIndex(matrix, 64), 0.2);
  }
  auto bytes = vfs.read_file("store/epoch-1.idx");
  bytes[bytes.size() / 2] ^= 0x10;  // inside some shard blob
  eppi::storage::atomic_write_file(vfs, "store/epoch-1.idx", bytes);

  EpochStore reopened(vfs, "store");
  EXPECT_EQ(reopened.recovery_report().quarantined, 1u);
  bool named_shard = false;
  for (const auto& note : reopened.recovery_report().notes) {
    if (note.find("quarantined epoch-1.idx") != std::string::npos &&
        note.find("shard") != std::string::npos) {
      named_shard = true;
    }
  }
  EXPECT_TRUE(named_shard);
  EXPECT_EQ(reopened.latest_epoch(), std::nullopt);
  EXPECT_TRUE(vfs.exists("store/quarantine/epoch-1.idx"));
}

// fsck_store walks v3 files end to end: a clean store (full epoch + delta)
// reports ok with zero issues.
TEST(IndexV3IoTest, FsckStoreCleanOnV3Lineage) {
  MemVfs vfs;
  const auto base = sample_matrix(6, 64, 12, 0.3);
  eppi::BitMatrix e2 = base;
  e2.set(3, 8, !e2.get(3, 8));
  {
    EpochStore store(vfs, "store");
    store.record_sticky_state({.master_key = 10, .enable_mixing = true});
    store.commit_epoch(1, PostingIndex(base, 64), 0.2);
    EpochStore::EpochDelta d;
    d.epoch = 2;
    d.base_epoch = 1;
    d.rows = e2.rows();
    d.cols = e2.cols();
    d.lambda = 0.2;
    EpochStore::EpochDelta::Column col;
    col.identity = 8;
    col.bits.assign((e2.rows() + 7) / 8, 0);
    for (std::size_t i = 0; i < e2.rows(); ++i) {
      if (e2.get(i, 8)) col.bits[i >> 3] |= 1u << (i & 7);
    }
    d.col_splices.push_back(std::move(col));
    d.postings_crc = postings_checksum(e2);
    store.commit_delta(d);
  }
  const FsckReport report = fsck_store(vfs, "store");
  EXPECT_TRUE(report.ok) << (report.issues.empty()
                                 ? ""
                                 : report.issues[0].message);
  EXPECT_GE(report.files_checked, 2u);  // manifest + epoch-1.idx
}

}  // namespace
}  // namespace eppi::core
