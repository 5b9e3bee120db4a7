#include "common/serialize.h"

#include "common/error.h"

namespace eppi {

void BinaryWriter::write_u8(std::uint8_t v) { buf_.push_back(v); }

void BinaryWriter::write_u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void BinaryWriter::write_u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void BinaryWriter::write_varint(std::uint64_t v) { put_varint(buf_, v); }

void BinaryWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  write_varint(bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void BinaryWriter::write_u64_vector(std::span<const std::uint64_t> values) {
  write_varint(values.size());
  for (const std::uint64_t v : values) write_varint(v);
}

void BinaryReader::need(std::size_t n) const {
  if (remaining() < n) throw SerializeError("BinaryReader: truncated input");
}

std::uint8_t BinaryReader::read_u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t BinaryReader::read_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::uint64_t BinaryReader::read_varint() { return get_varint(data_, pos_); }

std::vector<std::uint8_t> BinaryReader::read_bytes() {
  const std::uint64_t len = read_varint();
  need(len);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

std::vector<std::uint64_t> BinaryReader::read_u64_vector() {
  const std::uint64_t len = read_varint();
  // Every element takes at least one byte: a corrupt length must not
  // reserve more than the input can hold.
  need(len);
  std::vector<std::uint64_t> out;
  out.reserve(len);
  for (std::uint64_t k = 0; k < len; ++k) out.push_back(read_varint());
  return out;
}

}  // namespace eppi
