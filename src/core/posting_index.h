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
//                    presence_     : per-provider "appears in this shard" bits
//
// Per-identity metadata is 4 bytes (the tagged offset); encodings are
// self-describing (leading varint count) so no end offsets or counts are
// stored. Shards are immutable and individually shared: an incremental
// epoch (PR 8 delta splice) rebuilds only the shards a delta touches and
// aliases the rest from the previous snapshot via shared_ptr — publication
// cost scales with the delta, and the per-provider presence bits are what
// decide "touched" cheaply. The same shard blobs are what eppi-index-v3
// persists verbatim (core/index_io.h), so load never re-encodes and replay
// never materializes the dense matrix.
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
// rebuild O(span · m/64) per dirty shard. Must stay a multiple of 64 so
// shard ranges are word-aligned in the BitMatrix walk.
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
// (from a matrix walk, explicit lists, or deserialized v3 sections). Every
// row is checked once, when the shard is built or loaded: the list
// constructor checks its input before encoding, and the adopt constructor
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
  // with the checked decoder, validating the arena and filling the presence
  // bits in the same pass; throws SerializeError on any malformed row or
  // offset.
  PostingShard(IdentityId first, std::size_t universe,
               std::vector<std::uint32_t> tagged_offsets,
               std::vector<std::uint8_t> arena);

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

  // Whether provider `p` appears in any row of this shard — the splice
  // path's cheap "is this shard touched" test.
  bool provider_present(ProviderId p) const noexcept;

  // Serialized storage views (what v3 persists).
  std::span<const std::uint32_t> tagged_offsets() const noexcept {
    return offsets_;
  }
  std::span<const std::uint8_t> arena() const noexcept { return arena_; }

  // Encoded payload bytes of one row (no padding), derived from its count.
  std::size_t row_payload_bytes(std::size_t row) const;

  // Heap bytes this shard holds (arena + offsets + presence, capacities).
  std::size_t resident_bytes() const noexcept;

 private:
  std::span<const std::uint8_t> row_span(std::size_t row) const;
  void rebuild_presence();  // checked decode of every row; fills presence_

  IdentityId first_ = 0;
  std::size_t universe_ = 0;
  std::vector<std::uint32_t> offsets_;   // (byte offset << 2) | codec
  std::vector<std::uint8_t> arena_;
  std::vector<std::uint64_t> presence_;  // ⌈universe/64⌉ provider bits
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

  // Partial-refresh constructor for incremental epochs: shares every shard
  // of `base` that the delta provably does not touch and rebuilds only the
  // dirty ones from `published`. A shard is dirty iff an `affected`
  // identity falls in its range, or a `touched` provider either appears in
  // the base shard or has a published bit inside the range (a joined
  // provider's noise bits land anywhere). If the provider universe changed
  // every encoding changes, so everything is rebuilt. The result is
  // immutable; sharing is by shared_ptr, never by mutation.
  PostingIndex(const PostingIndex& base, const eppi::BitMatrix& published,
               std::span<const IdentityId> affected,
               std::span<const ProviderId> touched);

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
  // allocation slack, tagged offsets, presence bitmaps, and the shard
  // control structures. The per-codec split is the compression story —
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

}  // namespace eppi::core
