#include "core/posting_codec.h"

#include <bit>

#include "common/error.h"
#include "common/serialize.h"

namespace eppi::core {

namespace {

// The Elias-Fano low-bit width for `count` values over [0, universe):
// ⌊log2(universe/count)⌋, the width that balances the packed low array
// against the unary high part.
unsigned ef_lo_bits(std::size_t count, std::size_t universe) noexcept {
  if (count == 0 || universe <= count) return 0;
  const std::uint64_t ratio = universe / count;
  return static_cast<unsigned>(std::bit_width(ratio) - 1);
}

std::size_t ef_hi_bits(std::size_t count, std::size_t universe,
                       unsigned lo_bits) noexcept {
  // Bit positions run 0 .. ((universe-1)>>l) + count - 1.
  return ((universe - 1) >> lo_bits) + count;
}

void check_sorted_in_range(std::span<const ProviderId> sorted,
                           std::size_t universe) {
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    require(sorted[i] < universe,
            "posting codec: provider id out of universe");
    require(i == 0 || sorted[i - 1] < sorted[i],
            "posting codec: posting list not strictly increasing");
  }
}

}  // namespace

const char* to_string(PostingCodec codec) noexcept {
  switch (codec) {
    case PostingCodec::kEmpty: return "empty";
    case PostingCodec::kBitvector: return "bitvector";
    case PostingCodec::kEliasFano: return "elias_fano";
  }
  return "?";
}

std::size_t bitvector_encoded_bytes(std::size_t count,
                                    std::size_t universe) noexcept {
  return varint_size(count) + (universe + 7) / 8;
}

std::size_t elias_fano_encoded_bytes(std::size_t count,
                                     std::size_t universe) noexcept {
  if (count == 0) return varint_size(0) + 1;
  const unsigned l = ef_lo_bits(count, universe);
  return varint_size(count) + 1 + (count * l + 7) / 8 +
         (ef_hi_bits(count, universe, l) + 7) / 8;
}

PostingCodec choose_codec(std::size_t count, std::size_t universe) noexcept {
  if (count == 0) return PostingCodec::kEmpty;
  return elias_fano_encoded_bytes(count, universe) <
                 bitvector_encoded_bytes(count, universe)
             ? PostingCodec::kEliasFano
             : PostingCodec::kBitvector;
}

std::size_t encode_postings(PostingCodec codec,
                            std::span<const ProviderId> sorted,
                            std::size_t universe,
                            std::vector<std::uint8_t>& arena) {
  check_sorted_in_range(sorted, universe);
  const std::size_t begin = arena.size();
  switch (codec) {
    case PostingCodec::kEmpty:
      require(sorted.empty(), "posting codec: kEmpty with entries");
      break;
    case PostingCodec::kBitvector: {
      put_varint(arena, sorted.size());
      const std::size_t bitmap_at = arena.size();
      arena.resize(bitmap_at + (universe + 7) / 8, 0);
      for (const ProviderId p : sorted) {
        arena[bitmap_at + (p >> 3)] |=
            static_cast<std::uint8_t>(1u << (p & 7));
      }
      break;
    }
    case PostingCodec::kEliasFano: {
      require(!sorted.empty(), "posting codec: kEliasFano with no entries");
      const unsigned l = ef_lo_bits(sorted.size(), universe);
      put_varint(arena, sorted.size());
      arena.push_back(static_cast<std::uint8_t>(l));
      const std::size_t lo_at = arena.size();
      arena.resize(lo_at + (sorted.size() * l + 7) / 8, 0);
      const std::size_t hi_at = arena.size();
      arena.resize(
          hi_at + (ef_hi_bits(sorted.size(), universe, l) + 7) / 8, 0);
      const std::uint64_t lo_mask = l == 0 ? 0 : ((std::uint64_t{1} << l) - 1);
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        const std::uint64_t v = sorted[i];
        // Low bits, packed LSB-first across the lo array.
        std::uint64_t lo = v & lo_mask;
        for (unsigned b = 0; b < l; ++b) {
          const std::size_t bit = i * l + b;
          if ((lo >> b) & 1) {
            arena[lo_at + (bit >> 3)] |=
                static_cast<std::uint8_t>(1u << (bit & 7));
          }
        }
        // High part, unary: the i-th set bit lands at (v >> l) + i.
        const std::size_t pos = static_cast<std::size_t>(v >> l) + i;
        arena[hi_at + (pos >> 3)] |=
            static_cast<std::uint8_t>(1u << (pos & 7));
      }
      break;
    }
  }
  return arena.size() - begin;
}

void decode_postings(PostingCodec codec, std::span<const std::uint8_t> bytes,
                     std::size_t universe, std::vector<ProviderId>& out) {
  out.clear();
  switch (codec) {
    case PostingCodec::kEmpty:
      return;
    case PostingCodec::kBitvector: {
      std::size_t pos = 0;
      const std::uint64_t count = get_varint(bytes, pos);
      const std::size_t bitmap_bytes = (universe + 7) / 8;
      if (count > universe || bytes.size() - pos < bitmap_bytes) {
        throw SerializeError("posting codec: truncated bitvector row");
      }
      out.reserve(static_cast<std::size_t>(count));
      for (std::size_t byte = 0; byte < bitmap_bytes; ++byte) {
        std::uint8_t b = bytes[pos + byte];
        while (b != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(b));
          b &= static_cast<std::uint8_t>(b - 1);
          const std::size_t p = byte * 8 + bit;
          if (p >= universe) {
            throw SerializeError(
                "posting codec: bitvector bit beyond the universe");
          }
          out.push_back(static_cast<ProviderId>(p));
        }
      }
      if (out.size() != count) {
        throw SerializeError(
            "posting codec: bitvector popcount disagrees with its count");
      }
      return;
    }
    case PostingCodec::kEliasFano: {
      std::size_t pos = 0;
      const std::uint64_t count = get_varint(bytes, pos);
      if (count == 0 || count > universe) {
        throw SerializeError("posting codec: implausible elias-fano count");
      }
      if (pos >= bytes.size()) {
        throw SerializeError("posting codec: truncated elias-fano header");
      }
      const unsigned l = bytes[pos++];
      if (l > 32) {
        throw SerializeError("posting codec: elias-fano low width > 32");
      }
      const std::size_t n = static_cast<std::size_t>(count);
      // Only the width the encoder picks: it fixes the row's extent, so an
      // arena's rows tile exactly by their encoded sizes.
      if (l != ef_lo_bits(n, universe)) {
        throw SerializeError("posting codec: non-canonical elias-fano width");
      }
      const std::size_t lo_bytes = (n * l + 7) / 8;
      const std::size_t hi_bits = ef_hi_bits(n, universe, l);
      const std::size_t hi_bytes = (hi_bits + 7) / 8;
      if (bytes.size() - pos < lo_bytes ||
          bytes.size() - pos - lo_bytes < hi_bytes) {
        throw SerializeError("posting codec: truncated elias-fano row");
      }
      const std::size_t lo_at = pos;
      const std::size_t hi_at = pos + lo_bytes;
      out.reserve(n);
      std::size_t i = 0;
      std::uint64_t prev = 0;
      for (std::size_t byte = 0; byte < hi_bytes; ++byte) {
        std::uint8_t b = bytes[hi_at + byte];
        while (b != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(b));
          b &= static_cast<std::uint8_t>(b - 1);
          const std::size_t p = byte * 8 + bit;
          if (p >= hi_bits || i >= n) {
            throw SerializeError(
                "posting codec: elias-fano high bits overflow the count");
          }
          std::uint64_t v = static_cast<std::uint64_t>(p - i) << l;
          for (unsigned lb = 0; lb < l; ++lb) {
            const std::size_t lbit = i * l + lb;
            if ((bytes[lo_at + (lbit >> 3)] >> (lbit & 7)) & 1) {
              v |= std::uint64_t{1} << lb;
            }
          }
          if (v >= universe || (i > 0 && v <= prev)) {
            throw SerializeError(
                "posting codec: elias-fano decodes non-monotone or "
                "out-of-universe value");
          }
          out.push_back(static_cast<ProviderId>(v));
          prev = v;
          ++i;
        }
      }
      if (i != n) {
        throw SerializeError(
            "posting codec: elias-fano high bits short of the count");
      }
      return;
    }
  }
  throw SerializeError("posting codec: unknown codec tag");
}

std::size_t decode_count(PostingCodec codec,
                         std::span<const std::uint8_t> bytes) {
  if (codec == PostingCodec::kEmpty) return 0;
  std::size_t pos = 0;
  const std::uint64_t count = get_varint(bytes, pos);
  if (count > bytes.size() * 8 + 64) {
    // A count no bitmap/EF payload in the remaining bytes could justify.
    throw SerializeError("posting codec: implausible posting count");
  }
  return static_cast<std::size_t>(count);
}

}  // namespace eppi::core
