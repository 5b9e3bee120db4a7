// Robustness fuzzing for every binary decoder: random corruption of valid
// payloads must produce SerializeError (or a successful parse of a
// different value) — never a crash, hang, or unbounded allocation.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/index_io.h"
#include "fixtures/legacy_formats.h"
#include "mpc/circuit_builder.h"
#include "mpc/circuit_io.h"

namespace eppi {
namespace {

template <typename ParseFn>
void fuzz_decoder(std::vector<std::uint8_t> valid, ParseFn parse,
                  std::uint64_t seed, int mutations = 300) {
  Rng rng(seed);
  for (int round = 0; round < mutations; ++round) {
    std::vector<std::uint8_t> corrupted = valid;
    switch (rng.next_below(3)) {
      case 0: {  // flip random bytes
        const int flips = 1 + static_cast<int>(rng.next_below(4));
        for (int f = 0; f < flips && !corrupted.empty(); ++f) {
          corrupted[rng.next_below(corrupted.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1: {  // truncate
        if (!corrupted.empty()) {
          corrupted.resize(rng.next_below(corrupted.size()));
        }
        break;
      }
      default: {  // append garbage
        const int extra = 1 + static_cast<int>(rng.next_below(16));
        for (int e = 0; e < extra; ++e) {
          corrupted.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      }
    }
    try {
      parse(corrupted);  // either parses or throws SerializeError
    } catch (const SerializeError&) {
      // expected for malformed input
    }
  }
}

TEST(SerializeFuzzTest, BinaryReaderSurvivesCorruption) {
  BinaryWriter w;
  w.write_varint(17);
  const std::vector<std::uint64_t> values{1, 2, 3, 1000000};
  w.write_u64_vector(values);
  const std::vector<std::uint8_t> bytes{9, 8, 7};
  w.write_bytes(bytes);
  w.write_u64(0xDEADBEEF);
  fuzz_decoder(w.take(),
               [](const std::vector<std::uint8_t>& bytes) {
                 BinaryReader r(bytes);
                 (void)r.read_varint();
                 (void)r.read_u64_vector();
                 (void)r.read_bytes();
                 (void)r.read_u64();
               },
               101);
}

TEST(SerializeFuzzTest, IndexLoaderSurvivesCorruption) {
  // The unchecksummed v1 layout through the stream entry point: most
  // corruptions parse as a different index, the rest must throw cleanly.
  fuzz_decoder(fixtures::bytes_of(fixtures::kV1Index),
               [](const std::vector<std::uint8_t>& bytes) {
                 std::stringstream in(
                     std::string(bytes.begin(), bytes.end()));
                 (void)core::load_index(in);
               },
               102);
}

core::PpiIndex fuzz_index() {
  Rng rng(6);
  BitMatrix matrix(7, 50);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 50; ++j) {
      if (rng.bernoulli(0.4)) matrix.set(i, j, true);
    }
  }
  return core::PpiIndex(std::move(matrix));
}

TEST(SerializeFuzzTest, IndexLoaderSurvivesV2Corruption) {
  fuzz_decoder(fixtures::bytes_of(fixtures::kV2Index),
               [](const std::vector<std::uint8_t>& bytes) {
                 (void)core::load_index_bytes(bytes);
               },
               104);
}

TEST(SerializeFuzzTest, IndexLoaderSurvivesV3Corruption) {
  const core::PpiIndex index = fuzz_index();
  std::vector<std::pair<std::string, core::IdentityId>> names;
  for (std::size_t t = 0; t < index.identities(); ++t) {
    names.emplace_back("owner-" + std::to_string(t),
                       static_cast<core::IdentityId>(t));
  }
  const core::Lexicon lexicon(std::move(names));
  fuzz_decoder(
      core::save_index_v3_bytes(core::PostingIndex(index), &lexicon),
      [](const std::vector<std::uint8_t>& bytes) {
        (void)core::load_postings_bytes(bytes);
      },
      105);
}

// Truncation at *every* byte boundary — not just random cuts — for all
// format versions: a torn write can stop anywhere, including mid-magic,
// mid-dimension and mid-shard, and the loader must reject each prefix,
// never crash or over-allocate.
TEST(SerializeFuzzTest, IndexLoaderRejectsEveryTruncationPoint) {
  const std::vector<std::uint8_t> v1_bytes =
      fixtures::bytes_of(fixtures::kV1Index);
  const std::vector<std::uint8_t> v2_bytes =
      fixtures::bytes_of(fixtures::kV2Index);
  const std::vector<std::uint8_t> v3_bytes =
      core::save_index_v3_bytes(core::PostingIndex(fuzz_index()), nullptr);

  for (const auto& valid : {v1_bytes, v2_bytes, v3_bytes}) {
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      const std::vector<std::uint8_t> torn(valid.begin(),
                                           valid.begin() + cut);
      EXPECT_THROW((void)core::load_index_bytes(torn), SerializeError)
          << "prefix of " << cut << " bytes parsed";
      const auto report = core::validate_index(torn);
      EXPECT_FALSE(report.ok) << "validate accepted a " << cut
                              << "-byte prefix";
    }
  }
}

TEST(SerializeFuzzTest, IndexCrossVersionLoads) {
  // v1 and v2 bytes of the same index load through one entry point.
  const core::PpiIndex index(fixtures::golden_matrix());
  const std::vector<std::uint8_t> v1_bytes =
      fixtures::bytes_of(fixtures::kV1Index);
  const std::vector<std::uint8_t> v2_bytes =
      fixtures::bytes_of(fixtures::kV2Index);
  EXPECT_EQ(core::load_index_bytes(v1_bytes).matrix(), index.matrix());
  EXPECT_EQ(core::validate_index(v1_bytes).version, 1);
  EXPECT_EQ(core::load_index_bytes(v2_bytes).matrix(), index.matrix());

  // A v1 header with a v2 body (and vice versa) must be rejected, not
  // misparsed: the magic decides the layout and the checksums do the rest.
  std::vector<std::uint8_t> relabeled_v1 = v2_bytes;
  std::memcpy(relabeled_v1.data(), "eppiidx1", 8);
  EXPECT_THROW((void)core::load_index_bytes(relabeled_v1), SerializeError);
  std::vector<std::uint8_t> relabeled_v2 = v1_bytes;
  std::memcpy(relabeled_v2.data(), "eppiidx2", 8);
  EXPECT_THROW((void)core::load_index_bytes(relabeled_v2), SerializeError);

  // v3 bytes relabeled as v2 (and vice versa) must likewise be rejected:
  // the shard-table layout is nothing like a packed row payload, and the
  // section checksums catch the mismatch before any decode runs.
  const std::vector<std::uint8_t> v3_bytes =
      core::save_index_v3_bytes(core::PostingIndex(index), nullptr);
  std::vector<std::uint8_t> relabeled_v3 = v2_bytes;
  std::memcpy(relabeled_v3.data(), "eppiidx3", 8);
  EXPECT_THROW((void)core::load_index_bytes(relabeled_v3), SerializeError);
  std::vector<std::uint8_t> downlabeled = v3_bytes;
  std::memcpy(downlabeled.data(), "eppiidx2", 8);
  EXPECT_THROW((void)core::load_index_bytes(downlabeled), SerializeError);
}

TEST(SerializeFuzzTest, CircuitLoaderSurvivesCorruption) {
  mpc::CircuitBuilder cb;
  const auto a = cb.input_bits(0, 6);
  const auto b = cb.input_bits(1, 6);
  cb.output_vec(cb.add_trunc(a, b));
  cb.output(cb.lt(a, b));
  std::stringstream ss;
  mpc::save_circuit(ss, cb.take());
  const std::string str = ss.str();
  std::vector<std::uint8_t> valid(str.begin(), str.end());
  fuzz_decoder(valid,
               [](const std::vector<std::uint8_t>& bytes) {
                 std::stringstream in(
                     std::string(bytes.begin(), bytes.end()));
                 (void)mpc::load_circuit(in);
               },
               103);
}

}  // namespace
}  // namespace eppi
