#include "common/serialize.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"

namespace eppi {
namespace {

TEST(SerializeTest, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, VarintRoundTripEdgeValues) {
  const std::uint64_t values[] = {
      0,    1,    127,  128,   255,   16383, 16384,
      1u << 20, std::numeric_limits<std::uint64_t>::max()};
  BinaryWriter w;
  for (const auto v : values) w.write_varint(v);
  BinaryReader r(w.buffer());
  for (const auto v : values) EXPECT_EQ(r.read_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, VarintIsCompactForSmallValues) {
  BinaryWriter w;
  w.write_varint(5);
  EXPECT_EQ(w.size(), 1u);
  w.write_varint(300);
  EXPECT_EQ(w.size(), 3u);  // 1 + 2
}

TEST(SerializeTest, BytesRoundTrip) {
  BinaryWriter w;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  w.write_bytes(payload);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_bytes(), payload);
}

TEST(SerializeTest, EmptyBytesRoundTrip) {
  BinaryWriter w;
  w.write_bytes({});
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.read_bytes().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, U64VectorRoundTrip) {
  BinaryWriter w;
  const std::vector<std::uint64_t> values{0, 42, 1u << 30, 7};
  w.write_u64_vector(values);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u64_vector(), values);
}

TEST(SerializeTest, TruncatedInputThrows) {
  BinaryWriter w;
  w.write_u64(12345);
  const auto& buf = w.buffer();
  BinaryReader r(std::span<const std::uint8_t>(buf.data(), 4));
  EXPECT_THROW(r.read_u64(), SerializeError);
}

TEST(SerializeTest, TruncatedBytesThrows) {
  BinaryWriter w;
  w.write_varint(100);  // claims 100 bytes follow
  BinaryReader r(w.buffer());
  EXPECT_THROW(r.read_bytes(), SerializeError);
}

TEST(SerializeTest, MalformedVarintThrows) {
  // 10 continuation bytes exceed the 64-bit budget.
  std::vector<std::uint8_t> bad(11, 0x80);
  BinaryReader r(bad);
  EXPECT_THROW(r.read_varint(), SerializeError);
}

// The 10th byte of a varint carries bit 63 only: anything above 1 there
// does not fit 64 bits and must be rejected, not dropped. UINT64_MAX itself
// (a 10th byte of exactly 1) still decodes, through the reader and the span
// codec alike.
TEST(SerializeTest, TenthVarintByteAboveOneThrows) {
  std::vector<std::uint8_t> max(9, 0xFF);
  max.push_back(0x01);
  BinaryReader ok(max);
  EXPECT_EQ(ok.read_varint(), ~std::uint64_t{0});
  EXPECT_TRUE(ok.exhausted());
  for (const std::uint8_t last : {0x02, 0x03, 0x40, 0x7F}) {
    std::vector<std::uint8_t> bad(9, 0xFF);
    bad.push_back(last);
    BinaryReader r(bad);
    EXPECT_THROW(r.read_varint(), SerializeError) << int{last};
    std::size_t pos = 0;
    EXPECT_THROW(get_varint(bad, pos), SerializeError) << int{last};
  }
  std::vector<std::uint8_t> out;
  put_varint(out, ~std::uint64_t{0});
  EXPECT_EQ(out, max);
  EXPECT_EQ(varint_size(~std::uint64_t{0}), max.size());
}

TEST(SerializeTest, TakeMovesBuffer) {
  BinaryWriter w;
  w.write_u8(9);
  auto buf = w.take();
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace eppi
