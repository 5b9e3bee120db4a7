#include "core/index_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "dataset/synthetic.h"
#include "fixtures/legacy_formats.h"

namespace eppi::core {
namespace {

PpiIndex sample_index(std::size_t m, std::size_t n, std::uint64_t seed) {
  eppi::Rng rng(seed);
  eppi::BitMatrix matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) matrix.set(i, j, true);
    }
  }
  return PpiIndex(std::move(matrix));
}

// Writes through the current (v3) writer into a stream.
void save(std::stringstream& ss, const PpiIndex& index) {
  save_index_v3(ss, PostingIndex(index), nullptr);
}

TEST(IndexIoTest, RoundTripPreservesMatrix) {
  const PpiIndex original = sample_index(17, 130, 1);  // cols span 3 words
  std::stringstream ss;
  save(ss, original);
  const PpiIndex loaded = load_index(ss);
  EXPECT_EQ(loaded.matrix(), original.matrix());
}

TEST(IndexIoTest, RoundTripEmptyIndex) {
  const PpiIndex original{eppi::BitMatrix(3, 4)};
  std::stringstream ss;
  save(ss, original);
  const PpiIndex loaded = load_index(ss);
  EXPECT_EQ(loaded.providers(), 3u);
  EXPECT_EQ(loaded.identities(), 4u);
  EXPECT_EQ(loaded.matrix().popcount(), 0u);
}

TEST(IndexIoTest, QueriesSurviveRoundTrip) {
  const PpiIndex original = sample_index(20, 10, 2);
  std::stringstream ss;
  save(ss, original);
  const PpiIndex loaded = load_index(ss);
  for (IdentityId j = 0; j < 10; ++j) {
    EXPECT_EQ(loaded.query(j), original.query(j));
  }
}

TEST(IndexIoTest, BadMagicRejected) {
  std::stringstream ss("not-an-index-file-at-all");
  EXPECT_THROW(load_index(ss), eppi::SerializeError);
}

TEST(IndexIoTest, TruncatedFileRejected) {
  const PpiIndex original = sample_index(8, 8, 3);
  std::stringstream ss;
  save(ss, original);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_index(truncated), eppi::SerializeError);
}

TEST(IndexIoTest, ImplausibleDimensionsRejected) {
  std::stringstream ss;
  ss.write("eppiidx1", 8);
  // rows = 2^40, cols = 1: must be rejected before allocation.
  const std::uint64_t rows = std::uint64_t{1} << 40;
  const std::uint64_t cols = 1;
  for (int i = 0; i < 8; ++i) ss.put(static_cast<char>(rows >> (8 * i)));
  for (int i = 0; i < 8; ++i) ss.put(static_cast<char>(cols >> (8 * i)));
  EXPECT_THROW(load_index(ss), eppi::SerializeError);
}

TEST(IndexIoTest, EmptyStreamRejected) {
  std::stringstream ss;
  EXPECT_THROW(load_index(ss), eppi::SerializeError);
}

// --- eppi-index-v1/v2: read-only, pinned by golden fixtures ----------------

IndexSection section_of(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)load_index_bytes(bytes);
  } catch (const CorruptIndexError& e) {
    return e.section();
  }
  ADD_FAILURE() << "expected CorruptIndexError";
  return IndexSection::kMagic;
}

TEST(IndexIoTest, V2BytesRoundTrip) {
  const PpiIndex loaded = load_index_bytes(fixtures::kV2Index);
  EXPECT_EQ(loaded.matrix(), fixtures::golden_matrix());
  const IndexValidation v = validate_index(fixtures::kV2Index);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.version, 2);
  EXPECT_EQ(index_shape(fixtures::kV2Index).cols, 70u);
}

TEST(IndexIoTest, V1StillLoads) {
  std::stringstream ss(std::string(std::begin(fixtures::kV1Index),
                                   std::end(fixtures::kV1Index)));
  const PpiIndex loaded = load_index(ss);
  EXPECT_EQ(loaded.matrix(), fixtures::golden_matrix());
  const IndexValidation v = validate_index(fixtures::kV1Index);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.version, 1);
}

TEST(IndexIoTest, V2HeaderBitFlipNamesHeaderSection) {
  auto bytes = fixtures::bytes_of(fixtures::kV2Index);
  bytes[10] ^= 0x01;  // inside the dimension fields
  EXPECT_EQ(section_of(bytes), IndexSection::kHeader);
}

TEST(IndexIoTest, V2PayloadBitFlipNamesPayloadSection) {
  auto bytes = fixtures::bytes_of(fixtures::kV2Index);
  bytes[30] ^= 0x80;  // inside the packed matrix words
  EXPECT_EQ(section_of(bytes), IndexSection::kPayload);
}

TEST(IndexIoTest, V2TornWriteNamesFooterSection) {
  const auto bytes = fixtures::bytes_of(fixtures::kV2Index);
  // Cut inside the footer: header and payload verify, the seal is missing —
  // the signature of a partially flushed write.
  const std::vector<std::uint8_t> torn(bytes.begin(), bytes.end() - 6);
  EXPECT_EQ(section_of(torn), IndexSection::kFooter);
}

TEST(IndexIoTest, V2TrailingGarbageRejected) {
  auto bytes = fixtures::bytes_of(fixtures::kV2Index);
  bytes.push_back(0x00);
  EXPECT_EQ(section_of(bytes), IndexSection::kTrailing);
}

TEST(IndexIoTest, V1TrailingGarbageRejected) {
  std::stringstream ss(std::string(std::begin(fixtures::kV1Index),
                                   std::end(fixtures::kV1Index)));
  ss.seekp(0, std::ios::end);
  ss << "extra";
  EXPECT_THROW(load_index(ss), eppi::SerializeError);
}

TEST(IndexIoTest, ValidateReportsEverySection) {
  auto bytes = fixtures::bytes_of(fixtures::kV2Index);
  bytes[30] ^= 0x01;                      // corrupt the payload...
  bytes[bytes.size() - 1] ^= 0x01;        // ...and the seal checksum
  const IndexValidation v = validate_index(bytes);
  EXPECT_FALSE(v.ok);
  bool payload_bad = false;
  bool footer_bad = false;
  for (const auto& check : v.sections) {
    if (check.section == IndexSection::kPayload && !check.ok)
      payload_bad = true;
    if (check.section == IndexSection::kFooter && !check.ok) footer_bad = true;
  }
  EXPECT_TRUE(payload_bad);
  EXPECT_TRUE(footer_bad);
}

TEST(IndexIoTest, ValidateUnrecognizedMagic) {
  const std::vector<std::uint8_t> junk{'n', 'o', 'p', 'e'};
  const IndexValidation v = validate_index(junk);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.version, 0);
}

}  // namespace
}  // namespace eppi::core
