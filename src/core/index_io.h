// Binary persistence for the published PPI.
//
// The PPI server hands the constructed index to its serving tier (and ships
// it to replicas); this module defines the on-disk/wire format. Only v3 is
// written; v1 and v2 files from older stores are read-only (load, validate,
// fsck), pinned by golden fixtures in the tests:
//
//   eppi-index-v1  magic + dimensions + packed row words. No integrity
//                  metadata: a torn write or bit flip loads as a silently
//                  different index.
//
//   eppi-index-v2  the dense checksummed format. Three sections:
//                    header  magic "eppiidx2", u64 rows, u64 cols,
//                            masked CRC32C of the preceding 24 bytes;
//                    payload packed row words, masked CRC32C;
//                    footer  seal magic "eppiseal" + masked CRC32C of every
//                            preceding byte. The footer is written last, so
//                            its absence identifies a torn (partially
//                            written) file as opposed to bit rot.
//                  Trailing bytes after the footer are rejected.
//
//   eppi-index-v3  the compressed sharded format the store writes today. It
//                  persists the PostingShard storage verbatim — tagged
//                  offsets + encoded-row arena per shard — so load adopts
//                  the bytes without re-encoding and NOTHING on the load or
//                  replay path materializes the dense matrix. Layout:
//                    header   magic "eppiidx3", u64 rows (providers),
//                             u64 cols (identities — same offsets as
//                             v1/v2 so index_shape is version-blind),
//                             u32 shard_count, u32 shard_span, u32 flags
//                             (bit 0: lexicon section present), masked
//                             CRC32C of the preceding 36 bytes;
//                    shard ×N u32 blob_len, blob { u32 first_identity,
//                             u32 n_rows, u32 universe, u32 arena_bytes,
//                             n_rows × u32 tagged offsets, arena bytes },
//                             masked CRC32C of the blob. Each shard is
//                             independently checksummed and validated, so
//                             fsck can name exactly which shards of a file
//                             are damaged;
//                    lexicon  (iff flags bit 0) u32 len, front-coded
//                             Lexicon blob, masked CRC32C;
//                    footer   as v2: seal magic + whole-file masked CRC32C.
//                  Trailing bytes after the footer are rejected.
//
// Loads validate magic, dimensions (bounded before any allocation) and
// every section checksum — v3 additionally decodes every posting row
// (bounds-checked) before adopting a shard; failures throw
// CorruptIndexError naming the failing section. fsck-style callers use
// validate_index for a no-throw section-by-section report of the same
// checks, one entry per shard for v3.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/lexicon.h"
#include "core/posting_index.h"
#include "core/ppi_index.h"

namespace eppi::core {

// The file regions validated independently on load.
enum class IndexSection {
  kMagic,     // version/magic bytes
  kHeader,    // dimensions + header checksum
  kPayload,   // packed matrix words + payload checksum (v1/v2)
  kShard,     // one compressed shard blob + its checksum (v3)
  kLexicon,   // owner-name lexicon blob + its checksum (v3)
  kFooter,    // seal magic + whole-file checksum (absent in a torn write)
  kTrailing,  // bytes after the end of the format
};

const char* to_string(IndexSection section) noexcept;

// A load failed integrity validation: checksum mismatch, truncation, torn
// write, implausible dimensions or trailing garbage. Derives from
// SerializeError so pre-v2 catch sites keep working; recovery code switches
// on section() (a missing footer is a torn commit; a payload mismatch is
// corruption worth quarantining).
class CorruptIndexError : public SerializeError {
 public:
  CorruptIndexError(IndexSection section, const std::string& what)
      : SerializeError(what), section_(section) {}
  IndexSection section() const noexcept { return section_; }

 private:
  IndexSection section_;
};

// Writes the compressed sharded eppi-index-v3 format. `lexicon` is
// optional (nullptr omits the section) — store-internal commits always
// carry it so recovery can republish name lookups without the registry.
void save_index_v3(std::ostream& out, const PostingIndex& index,
                   const Lexicon* lexicon);
std::vector<std::uint8_t> save_index_v3_bytes(const PostingIndex& index,
                                              const Lexicon* lexicon);

// A loaded index in its serving form. `lexicon` is null for v1/v2 files
// and v3 files written without one.
struct LoadedIndex {
  PostingIndex postings;
  std::shared_ptr<const Lexicon> lexicon;
};

// Reads any version into the compressed serving form. v3 adopts the shard
// bytes directly; v1/v2 payloads are inverted row-by-row into posting
// lists — no path builds a BitMatrix. Throws CorruptIndexError (a
// SerializeError) on bad magic/version/shape, checksum mismatch, truncated
// input or trailing garbage.
LoadedIndex load_postings(std::istream& in);
LoadedIndex load_postings_bytes(std::span<const std::uint8_t> bytes);

// Reads an index in any format as the dense construction-tier form
// (convenience over load_postings + to_matrix_index; same validation).
PpiIndex load_index(std::istream& in);
PpiIndex load_index_bytes(std::span<const std::uint8_t> bytes);

// No-throw validation for fsck: runs the same checks as load_index but
// reports every failing section instead of stopping at the first.
struct IndexSectionCheck {
  IndexSection section;
  bool ok = false;
  std::string detail;  // non-empty iff !ok
};

struct IndexValidation {
  int version = 0;  // 1, 2, 3, or 0 when the magic itself is unrecognized
  bool ok = false;
  std::vector<IndexSectionCheck> sections;
  // v3 extras for fsck reporting: declared shard count (-1 before the
  // header parses) and whether a lexicon section is declared.
  int shards = -1;
  bool has_lexicon = false;
};

IndexValidation validate_index(std::span<const std::uint8_t> bytes);

// The dimensions an index file declares in its header (both versions store
// them in the same place). Read verbatim, without decoding the payload —
// callers must have validated `bytes` first (validate_index / load); a span
// too short to hold a header throws CorruptIndexError.
struct IndexShape {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
};

IndexShape index_shape(std::span<const std::uint8_t> bytes);

}  // namespace eppi::core
