// Property/fuzz suite for the per-row posting codecs (core/posting_codec.h).
//
// The codecs are the trust boundary of the compressed index: a CRC-valid v3
// shard can still carry hostile bytes, so beyond round-trip correctness the
// decoders must reject every malformed payload with SerializeError — never
// crash, never emit out-of-range or unsorted ids, never over-allocate. The
// fuzz tests below drive both properties: exact round-trips across the
// structured edge cases (empty, full, single bit, the 63/64/65 word
// boundaries, runs, random densities), and decode-never-misbehaves across
// truncations and byte mutations of valid encodings.

#include "core/posting_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace eppi::core {
namespace {

std::vector<ProviderId> random_sorted(eppi::Rng& rng, std::size_t universe,
                                      double density) {
  std::vector<ProviderId> out;
  for (std::size_t p = 0; p < universe; ++p) {
    if (rng.bernoulli(density)) out.push_back(static_cast<ProviderId>(p));
  }
  return out;
}

// Encodes with `codec`, checks the size function told the truth, decodes,
// checks equality. Returns the encoded bytes for further abuse.
std::vector<std::uint8_t> round_trip(PostingCodec codec,
                                     const std::vector<ProviderId>& sorted,
                                     std::size_t universe) {
  std::vector<std::uint8_t> arena;
  const std::size_t appended =
      encode_postings(codec, sorted, universe, arena);
  EXPECT_EQ(appended, arena.size());
  if (codec == PostingCodec::kBitvector) {
    EXPECT_EQ(appended, bitvector_encoded_bytes(sorted.size(), universe));
  } else if (codec == PostingCodec::kEliasFano) {
    EXPECT_EQ(appended, elias_fano_encoded_bytes(sorted.size(), universe));
  } else {
    EXPECT_EQ(appended, 0u);
  }
  std::vector<ProviderId> decoded;
  decode_postings(codec, arena, universe, decoded);
  EXPECT_EQ(decoded, sorted);
  if (codec != PostingCodec::kEmpty) {
    EXPECT_EQ(decode_count(codec, arena), sorted.size());
  }
  return arena;
}

TEST(PostingCodecTest, EmptyRowEncodesToNothing) {
  EXPECT_EQ(choose_codec(0, 100), PostingCodec::kEmpty);
  round_trip(PostingCodec::kEmpty, {}, 100);
}

TEST(PostingCodecTest, FullRowRoundTripsUnderBothCodecs) {
  for (const std::size_t universe : {1u, 7u, 63u, 64u, 65u, 200u}) {
    std::vector<ProviderId> all(universe);
    for (std::size_t p = 0; p < universe; ++p) {
      all[p] = static_cast<ProviderId>(p);
    }
    round_trip(PostingCodec::kBitvector, all, universe);
    round_trip(PostingCodec::kEliasFano, all, universe);
    // A full row is as dense as it gets: the chooser must not pick EF.
    EXPECT_EQ(choose_codec(universe, universe), PostingCodec::kBitvector)
        << "universe=" << universe;
  }
}

TEST(PostingCodecTest, SingleBitAtEveryPosition) {
  for (const std::size_t universe : {1u, 63u, 64u, 65u, 130u}) {
    for (std::size_t p = 0; p < universe; ++p) {
      const std::vector<ProviderId> one{static_cast<ProviderId>(p)};
      round_trip(PostingCodec::kBitvector, one, universe);
      round_trip(PostingCodec::kEliasFano, one, universe);
    }
  }
}

// The 63/64/65 boundaries hit every off-by-one in word-packed bit walks:
// last bit of a word, first bit of the next, and a bit one past it.
TEST(PostingCodecTest, WordBoundaryUniverses) {
  for (const std::size_t universe : {63u, 64u, 65u}) {
    const std::vector<ProviderId> edges{
        0, static_cast<ProviderId>(universe - 1)};
    round_trip(PostingCodec::kBitvector, edges, universe);
    round_trip(PostingCodec::kEliasFano, edges, universe);
  }
  // Ids 63, 64, 65 inside a larger universe.
  const std::vector<ProviderId> straddle{63, 64, 65};
  round_trip(PostingCodec::kBitvector, straddle, 128);
  round_trip(PostingCodec::kEliasFano, straddle, 128);
}

TEST(PostingCodecTest, RunsRoundTrip) {
  // Dense runs are EF's worst case (unary high parts degenerate) and the
  // bitvector's best; both must still be exact.
  std::vector<ProviderId> runs;
  for (ProviderId p = 10; p < 40; ++p) runs.push_back(p);
  for (ProviderId p = 90; p < 100; ++p) runs.push_back(p);
  round_trip(PostingCodec::kBitvector, runs, 128);
  round_trip(PostingCodec::kEliasFano, runs, 128);
}

TEST(PostingCodecTest, ChooserPicksTheSmallerEncoding) {
  for (const std::size_t universe : {8u, 64u, 100u, 1000u}) {
    for (std::size_t count = 0; count <= universe; count += 1 + universe / 17) {
      const PostingCodec chosen = choose_codec(count, universe);
      if (count == 0) {
        EXPECT_EQ(chosen, PostingCodec::kEmpty);
        continue;
      }
      const std::size_t bv = bitvector_encoded_bytes(count, universe);
      const std::size_t ef = elias_fano_encoded_bytes(count, universe);
      if (chosen == PostingCodec::kBitvector) {
        EXPECT_LE(bv, ef) << count << "/" << universe;
      } else {
        ASSERT_EQ(chosen, PostingCodec::kEliasFano);
        EXPECT_LT(ef, bv) << count << "/" << universe;
      }
    }
  }
}

TEST(PostingCodecTest, RandomDensitiesRoundTripUnderBothCodecs) {
  eppi::Rng rng(20240817);
  for (const std::size_t universe : {1u, 2u, 63u, 64u, 65u, 100u, 500u}) {
    for (const double density : {0.01, 0.1, 0.5, 0.9, 1.0}) {
      for (int rep = 0; rep < 8; ++rep) {
        const auto sorted = random_sorted(rng, universe, density);
        if (sorted.empty()) continue;
        round_trip(PostingCodec::kBitvector, sorted, universe);
        round_trip(PostingCodec::kEliasFano, sorted, universe);
      }
    }
  }
}

TEST(PostingCodecTest, EncoderRejectsCallerBugs) {
  std::vector<std::uint8_t> arena;
  // Unsorted.
  EXPECT_THROW(encode_postings(PostingCodec::kEliasFano,
                               std::vector<ProviderId>{3, 2}, 10, arena),
               eppi::ConfigError);
  // Duplicate (not strictly increasing).
  EXPECT_THROW(encode_postings(PostingCodec::kBitvector,
                               std::vector<ProviderId>{2, 2}, 10, arena),
               eppi::ConfigError);
  // Out of range.
  EXPECT_THROW(encode_postings(PostingCodec::kEliasFano,
                               std::vector<ProviderId>{10}, 10, arena),
               eppi::ConfigError);
}

// Decoding any truncation of a valid encoding must throw SerializeError —
// at EVERY truncation point, not just the obvious ones.
TEST(PostingCodecTest, EveryTruncationPointThrows) {
  eppi::Rng rng(7);
  for (const PostingCodec codec :
       {PostingCodec::kBitvector, PostingCodec::kEliasFano}) {
    const auto sorted = random_sorted(rng, 200, 0.15);
    ASSERT_FALSE(sorted.empty());
    std::vector<std::uint8_t> arena;
    encode_postings(codec, sorted, 200, arena);
    std::vector<ProviderId> out;
    for (std::size_t cut = 0; cut < arena.size(); ++cut) {
      out.clear();
      EXPECT_THROW(
          decode_postings(codec,
                          std::span(arena.data(), cut), 200, out),
          eppi::SerializeError)
          << to_string(codec) << " cut=" << cut;
    }
  }
}

// Adversarial mutation fuzz: flip bytes of valid encodings. The decoder may
// accept a mutation only if the result is still canonical — and then the
// output must be strictly increasing and in range. It must never crash and
// never emit garbage.
TEST(PostingCodecTest, MutatedBytesEitherThrowOrDecodeCanonically) {
  eppi::Rng rng(99);
  for (const PostingCodec codec :
       {PostingCodec::kBitvector, PostingCodec::kEliasFano}) {
    const auto sorted = random_sorted(rng, 150, 0.2);
    ASSERT_FALSE(sorted.empty());
    std::vector<std::uint8_t> arena;
    encode_postings(codec, sorted, 150, arena);
    std::vector<ProviderId> out;
    for (std::size_t at = 0; at < arena.size(); ++at) {
      for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
        std::vector<std::uint8_t> mutated = arena;
        mutated[at] ^= flip;
        out.clear();
        try {
          decode_postings(codec, mutated, 150, out);
        } catch (const eppi::SerializeError&) {
          continue;  // rejection is the expected outcome
        }
        // Accepted: the decode must still be canonical.
        for (std::size_t k = 0; k < out.size(); ++k) {
          ASSERT_LT(out[k], 150u);
          if (k > 0) {
            ASSERT_LT(out[k - 1], out[k]);
          }
        }
      }
    }
  }
}

// Appending garbage after a valid encoding must not change the decode: the
// encodings are self-limiting (that is what lets rows tile an arena with no
// end offsets).
TEST(PostingCodecTest, DecodingIgnoresArenaSuffix) {
  eppi::Rng rng(5);
  const auto sorted = random_sorted(rng, 100, 0.3);
  for (const PostingCodec codec :
       {PostingCodec::kBitvector, PostingCodec::kEliasFano}) {
    std::vector<std::uint8_t> arena;
    encode_postings(codec, sorted, 100, arena);
    arena.insert(arena.end(), {0xde, 0xad, 0xbe, 0xef});
    std::vector<ProviderId> out;
    decode_postings(codec, arena, 100, out);
    EXPECT_EQ(out, sorted);
  }
}

}  // namespace
}  // namespace eppi::core
