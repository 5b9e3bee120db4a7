// Compressed, sharded posting-list representation of the published PPI.
//
// The PPI server's query work (paper §II-A: "query evaluation in the PPI
// server is trivial") is a column scan in the matrix representation —
// O(m) per query. A locator service fielding high query rates wants the
// inverted form: one sorted posting list of providers per identity, making
// QueryPPI an O(answer) decode. Up to PR 8 that inverted form was
// `vector<vector<ProviderId>>` — 24 bytes of vector header plus malloc
// slack per identity, which is what capped the identity universe far below
// the million-owner north star. PostingIndex now stores every row
// compressed (core/posting_codec.h chooses bitvector vs Elias-Fano per row
// by density) in per-shard byte arenas:
//
//   PostingIndex ── shards_[k] : shared_ptr<const PostingShard>
//                    each covering identities [k·span, (k+1)·span)
//   PostingShard ── offsets_[row] : u32, (arena byte offset << 2) | codec
//                    arena_        : one contiguous encoded-rows buffer
//
// Per-identity metadata is 4 bytes (the tagged offset); encodings are
// self-describing (leading varint count) so no end offsets or counts are
// stored. Shards are immutable and individually shared: an incremental
// epoch is spliced in posting space, sharing every shard its changed rows
// miss and copying a touched shard's other rows as encoded bytes, so
// publication cost scales with the delta. The same shard blobs are what
// eppi-index-v3 persists verbatim (core/index_io.h), so load never
// re-encodes and replay never materializes the dense matrix.
//
// A constructed PostingIndex is deeply immutable, which is what lets the
// concurrent serving tier (core/epoch_snapshot.h) share one instance across
// reader threads without synchronization.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/posting_codec.h"
#include "core/ppi_index.h"

namespace eppi::core {

// Identities per shard. 2^16 keeps shard arenas comfortably under the u32
// tagged-offset ceiling at any plausible provider count and makes a delta
// splice O(span) offset words per touched shard. Must stay a multiple of
// 64 so shard ranges are word-aligned in the BitMatrix walk.
inline constexpr std::size_t kDefaultShardSpan = std::size_t{1} << 16;

// Posting lists laid end to end: row j is entries[start[j], start[j+1]).
// The form the publication emitter writes and the shards encode — one
// allocation for every row instead of one vector per identity.
struct PostingLists {
  std::vector<std::size_t> start{0};  // rows() + 1 prefix offsets
  std::vector<ProviderId> entries;    // every row's providers, concatenated

  std::size_t rows() const noexcept { return start.size() - 1; }
  std::span<const ProviderId> row(std::size_t j) const noexcept {
    return std::span<const ProviderId>(entries).subspan(
        start[j], start[j + 1] - start[j]);
  }
  // Closes the row whose providers were just appended to `entries`.
  void end_row() { start.push_back(entries.size()); }
};

// One immutable range of compressed posting rows. Built by PostingIndex
// (from a matrix walk, explicit lists, a splice, or deserialized v3
// sections). Every row is checked once, when it is first encoded or loaded:
// the list and splice constructors check the rows they encode (a splice
// copies the rest from a constructed shard), and the adopt constructor
// runs the checked decoder (decode_postings) over every row, so a
// CRC-passing-but-hostile arena never becomes a shard. Rows of a
// constructed shard are decoded trusted after that, at word speed and
// without re-checking.
class PostingShard {
 public:
  // Encodes `lists[r]` (sorted provider ids < universe) as the rows of a
  // shard covering identities [first, first + lists.size()). Spans, not
  // vectors, so the matrix-inversion path can feed slices of one flat
  // entries buffer without per-row allocations.
  PostingShard(IdentityId first, std::size_t universe,
               std::span<const std::span<const ProviderId>> lists);

  // Adopts serialized storage (the v3 on-disk form). Decodes every row once
  // with the checked decoder, validating the arena; throws SerializeError on
  // any malformed row or offset.
  PostingShard(IdentityId first, std::size_t universe,
               std::vector<std::uint32_t> tagged_offsets,
               std::vector<std::uint8_t> arena);

  // Splices over `base` (null for a new shard) a shard of `n_rows` rows:
  // row rows[k] is encoded from lists[k] (`rows` ascending, shard-relative),
  // and every other row is base's — its bytes copied run by run under the
  // same universe, decoded and encoded again under a grown one. Rows at or
  // past base's row count must all be listed. The result is byte-identical
  // to encoding every row.
  PostingShard(IdentityId first, std::size_t universe,
               const PostingShard* base, std::size_t n_rows,
               std::span<const std::uint32_t> rows,
               std::span<const std::span<const ProviderId>> lists);

  IdentityId first_identity() const noexcept { return first_; }
  std::size_t rows() const noexcept { return offsets_.size(); }
  std::size_t universe() const noexcept { return universe_; }

  PostingCodec codec_of(std::size_t row) const noexcept {
    return static_cast<PostingCodec>(offsets_[row] & 3u);
  }

  // Appends row `row`'s provider ids (sorted ascending) to `out` — the
  // trusted word-level decode the query path runs.
  void append_row(std::size_t row, std::vector<ProviderId>& out) const;

  // O(1)-ish: reads only the row's leading count varint.
  std::size_t row_count(std::size_t row) const;

  // Serialized storage views (what v3 persists).
  std::span<const std::uint32_t> tagged_offsets() const noexcept {
    return offsets_;
  }
  std::span<const std::uint8_t> arena() const noexcept { return arena_; }

  // Encoded payload bytes of one row (no padding), derived from its count.
  std::size_t row_payload_bytes(std::size_t row) const;

  // Heap bytes this shard holds (arena + offsets, capacities).
  std::size_t resident_bytes() const noexcept;

 private:
  std::span<const std::uint8_t> row_span(std::size_t row) const;
  // Where row `row`'s bytes start; the arena's end for row == rows().
  std::size_t byte_offset(std::size_t row) const noexcept;
  void validate_rows() const;  // checked decode of every row
  // Checks `list` and appends its encoding as the next row.
  void append_encoded(std::span<const ProviderId> list);

  IdentityId first_ = 0;
  std::size_t universe_ = 0;
  std::vector<std::uint32_t> offsets_;  // (byte offset << 2) | codec
  std::vector<std::uint8_t> arena_;
};

class PostingIndex {
 public:
  PostingIndex() = default;
  explicit PostingIndex(const PpiIndex& index)
      : PostingIndex(index.matrix()) {}
  // Directly from a published matrix (avoids wrapping a BitMatrix copy in a
  // temporary PpiIndex just to invert it). `shard_span` is overridable for
  // tests that want many small shards; it must be a multiple of 64.
  explicit PostingIndex(const eppi::BitMatrix& published,
                        std::size_t shard_span = kDefaultShardSpan);

  // From explicit posting lists (sorted provider ids < providers). The
  // storage-replay path builds epochs this way — no dense matrix involved.
  PostingIndex(std::size_t providers,
               std::span<const std::vector<ProviderId>> lists,
               std::size_t shard_span = kDefaultShardSpan);

  // From lists laid end to end (the publication emitter's output): the
  // epoch is encoded straight from them, with no matrix in between.
  PostingIndex(std::size_t providers, const PostingLists& lists,
               std::size_t shard_span = kDefaultShardSpan);

  // From deserialized shards (the v3 load path). The shards must tile
  // [0, identities) in order with `shard_span` geometry and agree on
  // `providers`; throws SerializeError otherwise.
  PostingIndex(std::size_t providers, std::size_t identities,
               std::size_t shard_span,
               std::vector<std::shared_ptr<const PostingShard>> shards);

  // The incremental epoch: `base` with the rows of identities `ids`
  // (strictly ascending) replaced by `rows` (rows.row(k) is identity
  // ids[k]'s new list), grown to `providers` × `identities`. Identities
  // past base.identities() must all be listed. A shard no listed identity
  // falls in is shared with `base` by shared_ptr, and a touched one is
  // spliced (see PostingShard). The result is byte-identical, shard by
  // shard, to encoding the whole epoch.
  PostingIndex(const PostingIndex& base, std::size_t providers,
               std::size_t identities, std::span<const IdentityId> ids,
               const PostingLists& rows);

  std::size_t providers() const noexcept { return providers_; }
  std::size_t identities() const noexcept { return identities_; }

  // QueryPPI: the posting list (sorted, ascending provider ids). Throws
  // ConfigError for an identity the index was not built over. Decodes into
  // a fresh vector; hot callers use query_into to reuse a buffer.
  std::vector<ProviderId> query(IdentityId identity) const;

  // Zero-allocation query path: clears `out` and appends the posting list.
  void query_into(IdentityId identity, std::vector<ProviderId>& out) const;

  // Appends the posting list to `out` without clearing it, so a batch can
  // decode every owner's row straight into one buffer.
  void append_postings(IdentityId identity,
                       std::vector<ProviderId>& out) const;

  // Apparent frequency without materializing the list (count varint peek).
  std::size_t apparent_frequency(IdentityId identity) const;

  // Memory accounting for capacity planning. `payload_bytes` is the encoded
  // row bytes alone (what v3 persists, minus framing); `resident_bytes` is
  // what the process actually holds: arenas with alignment padding and
  // allocation slack, tagged offsets, and the shard control structures.
  // The per-codec split is the compression story —
  // `eppi_index_bytes{codec=...}` in the obs registry comes from here.
  struct CodecFootprint {
    std::size_t rows = 0;
    std::size_t payload_bytes = 0;
  };
  struct MemoryFootprint {
    std::size_t payload_bytes = 0;
    std::size_t resident_bytes = 0;
    std::array<CodecFootprint, kPostingCodecCount> by_codec{};
    std::size_t shards = 0;
  };
  MemoryFootprint memory_footprint() const noexcept;

  // Payload bytes only (kept for existing callers; see memory_footprint for
  // what a capacity plan should use).
  std::size_t posting_bytes() const noexcept {
    return memory_footprint().payload_bytes;
  }

  // Shard topology (for persistence, fsck and the differential tests).
  std::size_t shard_span() const noexcept { return shard_span_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  const std::shared_ptr<const PostingShard>& shard(std::size_t k) const {
    return shards_[k];
  }

  // Back-conversion (exact inverse of the constructors). Construction-tier
  // only — the serving/replay paths never call this.
  PpiIndex to_matrix_index() const;

 private:
  void locate(IdentityId identity, std::size_t& shard,
              std::size_t& row) const;

  std::size_t providers_ = 0;
  std::size_t identities_ = 0;
  std::size_t shard_span_ = kDefaultShardSpan;
  std::vector<std::shared_ptr<const PostingShard>> shards_;
};

// |a △ b|: the providers in exactly one of two ascending lists.
std::size_t symmetric_difference_size(std::span<const ProviderId> a,
                                      std::span<const ProviderId> b) noexcept;

// The cells in which two indexes of one shape differ — BitMatrix's
// hamming_distance in posting space. Throws ConfigError when the shapes
// differ.
std::size_t hamming_distance(const PostingIndex& a, const PostingIndex& b);

}  // namespace eppi::core
