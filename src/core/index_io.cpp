#include "core/index_io.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/crc32c.h"

namespace eppi::core {

namespace {

constexpr char kMagicV1[8] = {'e', 'p', 'p', 'i', 'i', 'd', 'x', '1'};
constexpr char kMagicV2[8] = {'e', 'p', 'p', 'i', 'i', 'd', 'x', '2'};
constexpr char kMagicV3[8] = {'e', 'p', 'p', 'i', 'i', 'd', 'x', '3'};
constexpr char kSealMagic[8] = {'e', 'p', 'p', 'i', 's', 'e', 'a', 'l'};

constexpr std::size_t kDimsOffset = sizeof(kMagicV2);
constexpr std::size_t kHeaderBytes = kDimsOffset + 16;       // magic + dims
constexpr std::size_t kHeaderEnd = kHeaderBytes + 4;         // + header CRC
constexpr std::size_t kFooterBytes = sizeof(kSealMagic) + 4;

// v3 header: magic + u64 rows + u64 cols + u32 shard_count + u32 shard_span
// + u32 flags, then the header CRC.
constexpr std::size_t kV3HeaderBytes = kHeaderBytes + 12;
constexpr std::size_t kV3HeaderEnd = kV3HeaderBytes + 4;
constexpr std::uint32_t kV3FlagLexicon = 1u;

// Dimension bounds checked before any allocation: a hostile header must not
// drive an n*m overflow or a multi-gigabyte allocation.
constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxCells = std::uint64_t{1} << 34;  // 2 Gib of bits

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_u64(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

bool magic_is(std::span<const std::uint8_t> bytes, const char (&magic)[8],
              std::size_t at = 0) {
  return bytes.size() >= at + 8 &&
         std::equal(magic, magic + 8, bytes.begin() + at,
                    [](char c, std::uint8_t b) {
                      return static_cast<std::uint8_t>(c) == b;
                    });
}

// Validates rows/cols and computes the exact payload size. Returns a
// non-empty error string on implausible dimensions.
struct Dims {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::size_t words_per_row = 0;
  std::size_t payload_bytes = 0;
};

std::string check_dims(std::uint64_t rows, std::uint64_t cols, Dims& dims) {
  if (rows > kMaxDim || cols > kMaxDim ||
      (rows != 0 && cols > kMaxCells / rows)) {
    return "implausible dimensions (" + std::to_string(rows) + " x " +
           std::to_string(cols) + ")";
  }
  dims.rows = rows;
  dims.cols = cols;
  dims.words_per_row = static_cast<std::size_t>((cols + 63) / 64);
  dims.payload_bytes =
      static_cast<std::size_t>(rows) * dims.words_per_row * 8;
  return {};
}

// Inverts a v1/v2 dense payload straight into posting lists — the compat
// load path reads the file's row words without ever building a BitMatrix.
std::vector<std::vector<ProviderId>> lists_from_payload(
    std::span<const std::uint8_t> payload, const Dims& dims) {
  std::vector<std::vector<ProviderId>> lists(
      static_cast<std::size_t>(dims.cols));
  for (std::uint64_t i = 0; i < dims.rows; ++i) {
    for (std::size_t w = 0; w < dims.words_per_row; ++w) {
      std::uint64_t word =
          get_u64(payload, (static_cast<std::size_t>(i) * dims.words_per_row +
                            w) * 8);
      while (word != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctzll(word));
        word &= word - 1;
        const std::uint64_t col = w * 64 + b;
        if (col < dims.cols) {
          lists[static_cast<std::size_t>(col)].push_back(
              static_cast<ProviderId>(i));
        }
      }
    }
  }
  return lists;
}

void add_check(IndexValidation& v, IndexSection section, bool ok,
               std::string detail) {
  v.sections.push_back({section, ok, ok ? std::string{} : std::move(detail)});
}

void validate_v1(std::span<const std::uint8_t> bytes, IndexValidation& v) {
  add_check(v, IndexSection::kMagic, true, {});
  if (bytes.size() < 24) {
    add_check(v, IndexSection::kHeader, false, "truncated header");
    return;
  }
  Dims dims;
  const std::string dim_err = check_dims(get_u64(bytes, 8), get_u64(bytes, 16),
                                         dims);
  if (!dim_err.empty()) {
    add_check(v, IndexSection::kHeader, false, dim_err);
    return;
  }
  add_check(v, IndexSection::kHeader, true, {});
  if (bytes.size() < 24 + dims.payload_bytes) {
    add_check(v, IndexSection::kPayload, false, "truncated payload");
    return;
  }
  add_check(v, IndexSection::kPayload, true, {});
  if (bytes.size() > 24 + dims.payload_bytes) {
    add_check(v, IndexSection::kTrailing, false,
              "trailing garbage after payload");
  }
}

void validate_v2(std::span<const std::uint8_t> bytes, IndexValidation& v) {
  add_check(v, IndexSection::kMagic, true, {});
  if (bytes.size() < kHeaderEnd) {
    add_check(v, IndexSection::kHeader, false, "truncated header");
    return;
  }
  const std::uint32_t want_header =
      crc32c_unmask(get_u32(bytes, kHeaderBytes));
  if (crc32c(bytes.subspan(0, kHeaderBytes)) != want_header) {
    add_check(v, IndexSection::kHeader, false, "header checksum mismatch");
    return;  // dimensions untrustworthy; later offsets are meaningless
  }
  Dims dims;
  const std::string dim_err =
      check_dims(get_u64(bytes, kDimsOffset), get_u64(bytes, kDimsOffset + 8),
                 dims);
  if (!dim_err.empty()) {
    add_check(v, IndexSection::kHeader, false, dim_err);
    return;
  }
  add_check(v, IndexSection::kHeader, true, {});

  const std::size_t payload_end = kHeaderEnd + dims.payload_bytes;
  const std::size_t sealed_end = payload_end + 4;  // through payload CRC
  if (bytes.size() < sealed_end) {
    add_check(v, IndexSection::kPayload, false, "truncated payload");
    add_check(v, IndexSection::kFooter, false,
              "missing footer (torn write)");
    return;
  }
  const std::uint32_t want_payload = crc32c_unmask(get_u32(bytes, payload_end));
  add_check(v, IndexSection::kPayload,
            crc32c(bytes.subspan(kHeaderEnd, dims.payload_bytes)) ==
                want_payload,
            "payload checksum mismatch");

  if (bytes.size() < sealed_end + kFooterBytes ||
      !magic_is(bytes, kSealMagic, sealed_end)) {
    add_check(v, IndexSection::kFooter, false, "missing footer (torn write)");
    return;
  }
  const std::uint32_t want_seal =
      crc32c_unmask(get_u32(bytes, sealed_end + sizeof(kSealMagic)));
  add_check(v, IndexSection::kFooter,
            crc32c(bytes.subspan(0, sealed_end)) == want_seal,
            "seal checksum mismatch");
  if (bytes.size() > sealed_end + kFooterBytes) {
    add_check(v, IndexSection::kTrailing, false,
              "trailing garbage after footer");
  }
}

// Everything validate_v3 learns that a successful load wants to adopt.
struct ParsedV3 {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint32_t shard_span = 0;
  std::vector<std::shared_ptr<const PostingShard>> shards;
  std::shared_ptr<const Lexicon> lexicon;
};

// Validates a v3 file section by section; when `out` is non-null, collects
// the adopted shards/lexicon for the load path. Per-shard failures are
// independent entries — a file with one rotten shard still reports the
// health of every other shard (fsck names exactly what is damaged).
void validate_v3(std::span<const std::uint8_t> bytes, IndexValidation& v,
                 ParsedV3* out) {
  add_check(v, IndexSection::kMagic, true, {});
  if (bytes.size() < kV3HeaderEnd) {
    add_check(v, IndexSection::kHeader, false, "truncated header");
    return;
  }
  const std::uint32_t want_header =
      crc32c_unmask(get_u32(bytes, kV3HeaderBytes));
  if (crc32c(bytes.subspan(0, kV3HeaderBytes)) != want_header) {
    add_check(v, IndexSection::kHeader, false, "header checksum mismatch");
    return;
  }
  const std::uint64_t rows = get_u64(bytes, kDimsOffset);
  const std::uint64_t cols = get_u64(bytes, kDimsOffset + 8);
  const std::uint32_t shard_count = get_u32(bytes, kHeaderBytes);
  const std::uint32_t shard_span = get_u32(bytes, kHeaderBytes + 4);
  const std::uint32_t flags = get_u32(bytes, kHeaderBytes + 8);
  if (rows > kMaxDim || cols > kMaxDim) {
    add_check(v, IndexSection::kHeader,
              false, "implausible dimensions (" + std::to_string(rows) +
                         " x " + std::to_string(cols) + ")");
    return;
  }
  const std::uint64_t expect_shards =
      shard_span == 0 ? 0 : (cols + shard_span - 1) / shard_span;
  if (shard_span == 0 || shard_span % 64 != 0 ||
      shard_count != expect_shards || (flags & ~kV3FlagLexicon) != 0) {
    add_check(v, IndexSection::kHeader, false,
              "bad shard geometry or flags");
    return;
  }
  add_check(v, IndexSection::kHeader, true, {});
  v.shards = static_cast<int>(shard_count);
  v.has_lexicon = (flags & kV3FlagLexicon) != 0;
  if (out != nullptr) {
    out->rows = rows;
    out->cols = cols;
    out->shard_span = shard_span;
    out->shards.reserve(shard_count);
  }

  std::size_t pos = kV3HeaderEnd;
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    const std::string label = "shard " + std::to_string(k);
    if (bytes.size() - pos < 4) {
      add_check(v, IndexSection::kShard, false, label + ": truncated");
      add_check(v, IndexSection::kFooter, false,
                "missing footer (torn write)");
      return;
    }
    const std::uint32_t blob_len = get_u32(bytes, pos);
    if (blob_len < 16 ||
        static_cast<std::uint64_t>(blob_len) + 4 > bytes.size() - pos - 4) {
      add_check(v, IndexSection::kShard, false,
                label + ": truncated or implausible length");
      add_check(v, IndexSection::kFooter, false,
                "missing footer (torn write)");
      return;
    }
    const auto blob = bytes.subspan(pos + 4, blob_len);
    const std::uint32_t want =
        crc32c_unmask(get_u32(bytes, pos + 4 + blob_len));
    pos += 4 + static_cast<std::size_t>(blob_len) + 4;
    if (crc32c(blob) != want) {
      add_check(v, IndexSection::kShard, false,
                label + ": checksum mismatch");
      continue;  // independently framed: the next shard is still scannable
    }
    const std::uint32_t first = get_u32(blob, 0);
    const std::uint32_t n_rows = get_u32(blob, 4);
    const std::uint32_t universe = get_u32(blob, 8);
    const std::uint32_t arena_bytes = get_u32(blob, 12);
    const std::uint64_t expect_first =
        static_cast<std::uint64_t>(k) * shard_span;
    const std::uint64_t expect_rows =
        std::min<std::uint64_t>(shard_span, cols - expect_first);
    if (first != expect_first || n_rows != expect_rows ||
        universe != rows ||
        16 + std::uint64_t{4} * n_rows + arena_bytes != blob_len) {
      add_check(v, IndexSection::kShard, false,
                label + ": geometry disagrees with the header");
      continue;
    }
    std::vector<std::uint32_t> offsets(n_rows);
    for (std::uint32_t r = 0; r < n_rows; ++r) {
      offsets[r] = get_u32(blob, 16 + std::size_t{4} * r);
    }
    std::vector<std::uint8_t> arena(
        blob.begin() + 16 + std::size_t{4} * n_rows, blob.end());
    try {
      auto shard = std::make_shared<const PostingShard>(
          first, static_cast<std::size_t>(universe), std::move(offsets),
          std::move(arena));
      if (out != nullptr) out->shards.push_back(std::move(shard));
      add_check(v, IndexSection::kShard, true, {});
    } catch (const SerializeError& e) {
      add_check(v, IndexSection::kShard,
                false, label + ": " + e.what());
    }
  }

  if ((flags & kV3FlagLexicon) != 0) {
    if (bytes.size() - pos < 4 ||
        static_cast<std::uint64_t>(get_u32(bytes, pos)) + 8 >
            bytes.size() - pos) {
      add_check(v, IndexSection::kLexicon, false,
                "truncated lexicon section");
      add_check(v, IndexSection::kFooter, false,
                "missing footer (torn write)");
      return;
    }
    const std::uint32_t len = get_u32(bytes, pos);
    const auto blob = bytes.subspan(pos + 4, len);
    const std::uint32_t want = crc32c_unmask(get_u32(bytes, pos + 4 + len));
    pos += 4 + static_cast<std::size_t>(len) + 4;
    if (crc32c(blob) != want) {
      add_check(v, IndexSection::kLexicon, false,
                "lexicon checksum mismatch");
    } else {
      try {
        auto lex = std::make_shared<const Lexicon>(Lexicon::deserialize(blob));
        // The fsck invariant: ids dense in [0, count) and names sorted —
        // deserialize enforces both. The ids must also cover exactly the
        // identity universe the header declares... unless the file was
        // written before some owners registered; we only require ids to
        // stay inside the universe.
        if (lex->size() > cols) {
          add_check(v, IndexSection::kLexicon, false,
                    "lexicon larger than the identity universe");
        } else {
          if (out != nullptr) out->lexicon = std::move(lex);
          add_check(v, IndexSection::kLexicon, true, {});
        }
      } catch (const SerializeError& e) {
        add_check(v, IndexSection::kLexicon, false, e.what());
      }
    }
  }

  if (bytes.size() - pos < kFooterBytes || !magic_is(bytes, kSealMagic, pos)) {
    add_check(v, IndexSection::kFooter, false, "missing footer (torn write)");
    return;
  }
  const std::uint32_t want_seal =
      crc32c_unmask(get_u32(bytes, pos + sizeof(kSealMagic)));
  add_check(v, IndexSection::kFooter, crc32c(bytes.subspan(0, pos)) == want_seal,
            "seal checksum mismatch");
  if (bytes.size() > pos + kFooterBytes) {
    add_check(v, IndexSection::kTrailing, false,
              "trailing garbage after footer");
  }
}

void throw_first_failure(const IndexValidation& v, const char* who) {
  for (const auto& check : v.sections) {
    if (!check.ok) {
      throw CorruptIndexError(
          check.section, std::string(who) + ": " + check.detail + " [" +
                             to_string(check.section) + " section]");
    }
  }
}

}  // namespace

const char* to_string(IndexSection section) noexcept {
  switch (section) {
    case IndexSection::kMagic: return "magic";
    case IndexSection::kHeader: return "header";
    case IndexSection::kPayload: return "payload";
    case IndexSection::kShard: return "shard";
    case IndexSection::kLexicon: return "lexicon";
    case IndexSection::kFooter: return "footer";
    case IndexSection::kTrailing: return "trailing";
  }
  return "?";
}

std::vector<std::uint8_t> save_index_v3_bytes(const PostingIndex& index,
                                              const Lexicon* lexicon) {
  require(index.shard_span() <= 0xffffffffu &&
              index.shard_count() <= 0xffffffffu,
          "save_index_v3: shard geometry exceeds the u32 header fields");
  std::vector<std::uint8_t> out(kMagicV3, kMagicV3 + sizeof(kMagicV3));
  append_u64(out, index.providers());
  append_u64(out, index.identities());
  append_u32(out, static_cast<std::uint32_t>(index.shard_count()));
  append_u32(out, static_cast<std::uint32_t>(index.shard_span()));
  append_u32(out, lexicon != nullptr ? kV3FlagLexicon : 0u);
  append_u32(out, crc32c_mask(crc32c(out)));

  for (std::size_t k = 0; k < index.shard_count(); ++k) {
    const PostingShard& shard = *index.shard(k);
    const auto offsets = shard.tagged_offsets();
    const auto arena = shard.arena();
    const std::uint64_t blob_len =
        16 + std::uint64_t{4} * offsets.size() + arena.size();
    require(blob_len <= 0xffffffffu, "save_index_v3: shard blob too large");
    append_u32(out, static_cast<std::uint32_t>(blob_len));
    const std::size_t blob_begin = out.size();
    append_u32(out, shard.first_identity());
    append_u32(out, static_cast<std::uint32_t>(shard.rows()));
    append_u32(out, static_cast<std::uint32_t>(shard.universe()));
    append_u32(out, static_cast<std::uint32_t>(arena.size()));
    for (const std::uint32_t off : offsets) append_u32(out, off);
    out.insert(out.end(), arena.begin(), arena.end());
    append_u32(out,
               crc32c_mask(crc32c(std::span(out).subspan(blob_begin))));
  }

  if (lexicon != nullptr) {
    const auto blob = lexicon->serialize();
    require(blob.size() <= 0xffffffffu, "save_index_v3: lexicon too large");
    append_u32(out, static_cast<std::uint32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
    append_u32(out, crc32c_mask(crc32c(blob)));
  }

  const std::uint32_t seal = crc32c(out);
  out.insert(out.end(), kSealMagic, kSealMagic + sizeof(kSealMagic));
  append_u32(out, crc32c_mask(seal));
  return out;
}

void save_index_v3(std::ostream& out, const PostingIndex& index,
                   const Lexicon* lexicon) {
  const auto bytes = save_index_v3_bytes(index, lexicon);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

IndexValidation validate_index(std::span<const std::uint8_t> bytes) {
  IndexValidation v;
  if (magic_is(bytes, kMagicV1)) {
    v.version = 1;
    validate_v1(bytes, v);
  } else if (magic_is(bytes, kMagicV2)) {
    v.version = 2;
    validate_v2(bytes, v);
  } else if (magic_is(bytes, kMagicV3)) {
    v.version = 3;
    validate_v3(bytes, v, nullptr);
  } else {
    add_check(v, IndexSection::kMagic, false, "bad magic or version");
  }
  v.ok = std::all_of(v.sections.begin(), v.sections.end(),
                     [](const IndexSectionCheck& c) { return c.ok; });
  return v;
}

IndexShape index_shape(std::span<const std::uint8_t> bytes) {
  // All versions put u64 rows, u64 cols right after the 8-byte magic.
  if (bytes.size() < 24) {
    throw CorruptIndexError(IndexSection::kHeader,
                            "index_shape: truncated header");
  }
  return {get_u64(bytes, 8), get_u64(bytes, 16)};
}

LoadedIndex load_postings_bytes(std::span<const std::uint8_t> bytes) {
  if (magic_is(bytes, kMagicV3)) {
    IndexValidation v;
    v.version = 3;
    ParsedV3 parsed;
    validate_v3(bytes, v, &parsed);
    throw_first_failure(v, "load_postings");
    return LoadedIndex{
        PostingIndex(static_cast<std::size_t>(parsed.rows),
                     static_cast<std::size_t>(parsed.cols),
                     parsed.shard_span, std::move(parsed.shards)),
        std::move(parsed.lexicon)};
  }
  const IndexValidation v = validate_index(bytes);
  throw_first_failure(v, "load_postings");
  Dims dims;
  const std::size_t dims_at = v.version == 2 ? kDimsOffset : std::size_t{8};
  (void)check_dims(get_u64(bytes, dims_at), get_u64(bytes, dims_at + 8), dims);
  const std::size_t payload_at = v.version == 2 ? kHeaderEnd : std::size_t{24};
  const auto lists = lists_from_payload(
      bytes.subspan(payload_at, dims.payload_bytes), dims);
  return LoadedIndex{
      PostingIndex(static_cast<std::size_t>(dims.rows), lists), nullptr};
}

LoadedIndex load_postings(std::istream& in) {
  std::vector<std::uint8_t> bytes;
  char chunk[4096];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
    if (in.eof()) break;
  }
  return load_postings_bytes(bytes);
}

PpiIndex load_index_bytes(std::span<const std::uint8_t> bytes) {
  return load_postings_bytes(bytes).postings.to_matrix_index();
}

PpiIndex load_index(std::istream& in) {
  std::vector<std::uint8_t> bytes;
  char chunk[4096];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
    if (in.eof()) break;
  }
  return load_index_bytes(bytes);
}

}  // namespace eppi::core
