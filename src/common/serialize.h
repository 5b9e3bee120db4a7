// Compact binary serialization for protocol messages.
//
// Substitutes for the protobuf framing used by the paper's prototype; only
// the wire byte counts matter for the network cost model, so the format is a
// straightforward little-endian length-delimited encoding. Varints are used
// for integers so message sizes reflect realistic framing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace eppi {

// LEB128 varints over byte spans: the one codec the message framing, the
// posting rows and the lexicon share.

// Encoded length of `v` in bytes (1..10).
inline std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// Reads the varint at bytes[pos] and advances pos past it. Throws
// SerializeError for a varint cut off by the end of the span and for one
// that does not fit 64 bits: an 11th byte, or a 10th byte above 1.
inline std::uint64_t get_varint(std::span<const std::uint8_t> bytes,
                                std::size_t& pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (pos >= bytes.size()) throw SerializeError("varint: truncated");
    const std::uint8_t b = bytes[pos++];
    if (shift >= 64 || (shift == 63 && (b & 0x7E) != 0)) {
      throw SerializeError("varint: overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

class BinaryWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);   // fixed-width little-endian
  void write_u64(std::uint64_t v);   // fixed-width little-endian
  void write_varint(std::uint64_t v);
  void write_bytes(std::span<const std::uint8_t> bytes);  // length-prefixed
  void write_u64_vector(std::span<const std::uint64_t> values);

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::uint64_t read_varint();
  std::vector<std::uint8_t> read_bytes();
  std::vector<std::uint64_t> read_u64_vector();

  bool exhausted() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace eppi
