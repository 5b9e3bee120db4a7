// Per-row posting-list codecs for the compressed serving index.
//
// The serving tier stores one posting list per owner identity. At the
// million-owner scale the lists are wildly skewed: most identities appear at
// a handful of providers (the paper's Zipf-ish frequency profile plus sparse
// ε-noise), while a minority — common identities widened by λ-mixing — are
// dense. No single layout wins both regimes, so every row is encoded with
// the codec that is smallest FOR THAT ROW (the classic PISA-style split):
//
//   kEmpty      zero-byte encoding for the all-zero row.
//   kBitvector  ⌈universe/8⌉-byte bitmap — optimal for dense rows, O(1)
//               membership, decode is a linear bit-walk.
//   kEliasFano  the quasi-succinct monotone-sequence encoding: each value
//               split into ⌊log2(universe/count)⌋ low bits (packed) and a
//               unary-coded high part — ~2 + log2(universe/count) bits per
//               entry, within a factor of the information-theoretic bound
//               for sparse rows.
//
// Every encoding is self-describing (leading varint count), so a decoder
// needs only the arena offset, never an end offset — and the count peek
// gives O(1) apparent_frequency without decoding. The decoders here are the
// checked ones: bounds-checked against the provided span, throwing
// SerializeError on any overrun or malformed payload, because a CRC-valid
// shard can still be hostile bytes and a decode must never crash or
// over-allocate. They run once per row, when a PostingShard is built or
// loaded (and in fsck and the fuzz tests). After that the shard's rows are
// known good and the query path decodes them with PostingShard's trusted
// word-level decoder, which re-checks nothing (core/posting_index.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ppi_index.h"

namespace eppi::core {

enum class PostingCodec : std::uint8_t {
  kEmpty = 0,
  kBitvector = 1,
  kEliasFano = 2,
};

// Number of codec kinds (for per-codec accounting arrays).
inline constexpr std::size_t kPostingCodecCount = 3;

const char* to_string(PostingCodec codec) noexcept;

// Exact encoded size (in bytes) of a row with `count` entries over
// [0, universe), per codec. Used both by the encoder and by the
// chooser — the choice IS the size comparison.
std::size_t bitvector_encoded_bytes(std::size_t count,
                                    std::size_t universe) noexcept;
std::size_t elias_fano_encoded_bytes(std::size_t count,
                                     std::size_t universe) noexcept;

// The smallest codec for a row of `count` set bits over [0, universe).
// Ties prefer the bitvector (faster decode, O(1) membership).
PostingCodec choose_codec(std::size_t count, std::size_t universe) noexcept;

// Appends the encoding of `sorted` (strictly increasing provider ids, all
// < universe) to `arena` using `codec`; returns the bytes appended. Throws
// ConfigError on unsorted/out-of-range input (caller bug, not data
// corruption).
std::size_t encode_postings(PostingCodec codec,
                            std::span<const ProviderId> sorted,
                            std::size_t universe,
                            std::vector<std::uint8_t>& arena);

// Decodes a row starting at bytes[0]; the span may extend past the row's
// encoding (it is the arena suffix — encodings are self-limiting). Appends
// nothing on kEmpty. Throws SerializeError on truncation, out-of-range
// values, non-monotone output or a count/payload mismatch.
void decode_postings(PostingCodec codec, std::span<const std::uint8_t> bytes,
                     std::size_t universe, std::vector<ProviderId>& out);

// Reads only the leading count varint — the O(1) apparent-frequency path.
std::size_t decode_count(PostingCodec codec,
                         std::span<const std::uint8_t> bytes);

}  // namespace eppi::core
