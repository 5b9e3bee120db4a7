#include "core/posting_index.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bit_matrix.h"
#include "common/error.h"

namespace eppi::core {

namespace {

// Inverts columns [first, first + n_rows) of `matrix` into lists laid end
// to end — exact-size, two word-walk passes, no per-row allocations. The
// serving tier reaches it only from a distributed rebuild's dense answer.
PostingLists invert_range(const eppi::BitMatrix& matrix, std::size_t first,
                          std::size_t n_rows) {
  PostingLists flat;
  flat.start.assign(n_rows + 1, 0);
  const std::size_t end = first + n_rows;
  const std::size_t w_lo = first / 64;
  const std::size_t w_hi = std::min((end + 63) / 64, matrix.words_per_row());
  const std::uint64_t lo_mask =
      first % 64 == 0 ? ~std::uint64_t{0} : (~std::uint64_t{0} << (first % 64));
  const std::uint64_t hi_mask =
      end % 64 == 0 ? ~std::uint64_t{0} : ~(~std::uint64_t{0} << (end % 64));

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < matrix.rows(); ++i) {
      const std::uint64_t* words = matrix.row_words(i);
      for (std::size_t w = w_lo; w < w_hi; ++w) {
        std::uint64_t word = words[w];
        if (w == w_lo) word &= lo_mask;
        if (w == w_hi - 1) word &= hi_mask;
        while (word != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
          word &= word - 1;
          const std::size_t j = w * 64 + bit - first;
          if (pass == 0) {
            ++flat.start[j + 1];
          } else {
            flat.entries[flat.start[j]++] = static_cast<ProviderId>(i);
          }
        }
      }
    }
    if (pass == 0) {
      for (std::size_t j = 0; j < n_rows; ++j) {
        flat.start[j + 1] += flat.start[j];
      }
      flat.entries.resize(flat.start[n_rows]);
    }
  }
  // Pass 2 advanced each start[j] to start[j+1]; rewind by rebuilding from
  // the (still intact) shifted values: start[j] now equals the old
  // start[j+1], so shift right and restore start[0] = 0.
  for (std::size_t j = n_rows; j > 0; --j) flat.start[j] = flat.start[j - 1];
  flat.start[0] = 0;
  return flat;
}

PostingShard shard_from_matrix(const eppi::BitMatrix& matrix,
                               std::size_t first, std::size_t n_rows) {
  EncodedRows piece;
  piece.encode(invert_range(matrix, first, n_rows), matrix.rows());
  return PostingShard(static_cast<IdentityId>(first), matrix.rows(),
                      std::span<const EncodedRows>(&piece, 1));
}

// Encoded size of a row of `count` entries under `codec` (no padding).
std::size_t encoded_bytes(PostingCodec codec, std::size_t count,
                          std::size_t universe) noexcept {
  switch (codec) {
    case PostingCodec::kEmpty: return 0;
    case PostingCodec::kBitvector:
      return bitvector_encoded_bytes(count, universe);
    case PostingCodec::kEliasFano:
      return elias_fano_encoded_bytes(count, universe);
  }
  return 0;
}

// Checks `list` (ascending, below `universe`) and appends its encoding to
// `arena` as the next row, its tagged offset to `offsets`.
void append_encoding(std::span<const ProviderId> list, std::size_t universe,
                     std::vector<std::uint32_t>& offsets,
                     std::vector<std::uint8_t>& arena) {
  const PostingCodec codec = choose_codec(list.size(), universe);
  const std::size_t offset = arena.size();
  require(offset <= (std::size_t{1} << 30) - 1,
          "PostingShard: arena exceeds the 1 GiB tagged-offset ceiling");
  offsets.push_back(static_cast<std::uint32_t>(offset << 2) |
                    static_cast<std::uint32_t>(codec));
  encode_postings(codec, list, universe, arena);
}

// ------------------------------------------------- trusted row decoding --
//
// The query path's decoder. It re-checks nothing: every row it sees sits in
// a constructed PostingShard, and a shard exists only after its rows were
// validated (the list constructor checks its input before encoding; the
// adopt constructor runs the checked decode_postings on every row). What it
// keeps is memory safety of the loads themselves: a high-bit or bitmap load
// stops at the end of its array, a low-part load at the arena's end, so the
// arena needs no padding.

static_assert(std::endian::native == std::endian::little,
              "trusted posting decode reads little-endian words");

// Up to 8 bytes at `p`, of which only the first `avail` are read (the rest
// are zero): one 8-byte load everywhere but at a region's tail.
inline std::uint64_t load_word(const std::uint8_t* p,
                               std::size_t avail) noexcept {
  std::uint64_t w = 0;
  if (avail >= 8) [[likely]] {
    std::memcpy(&w, p, 8);
  } else {
    std::memcpy(&w, p, avail);
  }
  return w;
}

inline std::uint64_t trusted_varint(const std::uint8_t*& p) noexcept {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

// Appends row `p`'s providers to `out`; `end` is the arena's end.
void append_trusted(PostingCodec codec, const std::uint8_t* p,
                    const std::uint8_t* end, std::size_t universe,
                    std::vector<ProviderId>& out) {
  if (codec == PostingCodec::kEmpty) return;
  const std::size_t n = static_cast<std::size_t>(trusted_varint(p));
  const std::size_t at = out.size();
  out.resize(at + n);
  ProviderId* dst = out.data() + at;
  if (codec == PostingCodec::kBitvector) {
    const std::size_t bytes = (universe + 7) / 8;
    for (std::size_t w = 0; w * 8 < bytes; ++w) {
      std::uint64_t word = load_word(p + w * 8, bytes - w * 8);
      const auto base = static_cast<ProviderId>(w * 64);
      if (word == ~std::uint64_t{0}) {  // a broadcast row's full words
        for (ProviderId k = 0; k < 64; ++k) dst[k] = base + k;
        dst += 64;
        continue;
      }
      while (word != 0) {
        *dst++ = base + static_cast<ProviderId>(std::countr_zero(word));
        word &= word - 1;
      }
    }
    return;
  }
  // Elias-Fano: the i-th set bit of the high array sits at (v >> l) + i,
  // and v's low l bits are bits [i·l, i·l + l) of the low array (l <= 32,
  // so one 8-byte load shifted by at most 7 holds them).
  const unsigned l = *p++;
  const std::uint8_t* lo = p;
  const std::uint8_t* hi = lo + (n * l + 7) / 8;
  const std::size_t hi_bytes = (((universe - 1) >> l) + n + 7) / 8;
  const std::uint64_t lo_mask = (std::uint64_t{1} << l) - 1;
  std::size_t i = 0;
  for (std::size_t w = 0; i < n; ++w) {
    std::uint64_t word = load_word(hi + w * 8, hi_bytes - w * 8);
    while (word != 0) {
      const std::size_t pos = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(word));
      word &= word - 1;
      const std::size_t bit = i * l;
      const std::uint8_t* q = lo + (bit >> 3);
      const std::uint64_t low =
          (load_word(q, static_cast<std::size_t>(end - q)) >> (bit & 7)) &
          lo_mask;
      dst[i] = static_cast<ProviderId>(((pos - i) << l) | low);
      ++i;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- piece --

void EncodedRows::encode(const PostingLists& lists, std::size_t universe) {
  universe_ = universe;
  offsets_.clear();
  arena_.clear();
  std::size_t payload = 0;
  for (std::size_t r = 0; r < lists.rows(); ++r) {
    const std::size_t count = lists.row(r).size();
    payload += encoded_bytes(choose_codec(count, universe), count, universe);
  }
  offsets_.reserve(lists.rows());
  arena_.reserve(payload);
  for (std::size_t r = 0; r < lists.rows(); ++r) {
    append_encoding(lists.row(r), universe, offsets_, arena_);
  }
}

void EncodedRows::release() noexcept {
  offsets_ = {};
  arena_ = {};
}

// ---------------------------------------------------------------- shard --

PostingShard::PostingShard(IdentityId first, std::size_t universe,
                           std::span<const std::span<const ProviderId>> lists)
    : first_(first), universe_(universe) {
  offsets_.reserve(lists.size());
  std::size_t payload = 0;
  for (const auto& list : lists) {
    payload += encoded_bytes(choose_codec(list.size(), universe),
                             list.size(), universe);
  }
  arena_.reserve(payload);
  for (const auto& list : lists) append_encoded(list);
  tally_codecs();
}

PostingShard::PostingShard(IdentityId first, std::size_t universe,
                           std::span<const EncodedRows> pieces)
    : first_(first), universe_(universe) {
  std::size_t n_rows = 0;
  std::size_t payload = 0;
  for (const EncodedRows& piece : pieces) {
    require(piece.universe_ == universe || piece.rows() == 0,
            "PostingShard: a piece was encoded under another universe");
    if (!piece.offsets_.empty()) {
      require(payload + (piece.offsets_.back() >> 2) <=
                  (std::size_t{1} << 30) - 1,
              "PostingShard: arena exceeds the 1 GiB tagged-offset ceiling");
    }
    n_rows += piece.rows();
    payload += piece.arena_.size();
  }
  offsets_.reserve(n_rows);
  arena_.reserve(payload);
  for (const EncodedRows& piece : pieces) {
    const auto moved = static_cast<std::uint32_t>(arena_.size() << 2);
    for (const std::uint32_t offset : piece.offsets_) {
      offsets_.push_back(offset + moved);
    }
    arena_.insert(arena_.end(), piece.arena_.begin(), piece.arena_.end());
  }
  tally_codecs();
}

PostingShard::PostingShard(IdentityId first, std::size_t universe,
                           std::vector<std::uint32_t> tagged_offsets,
                           std::vector<std::uint8_t> arena)
    : first_(first),
      universe_(universe),
      offsets_(std::move(tagged_offsets)),
      arena_(std::move(arena)) {
  validate_rows();
  tally_codecs();
}

PostingShard::PostingShard(IdentityId first, std::size_t universe,
                           const PostingShard* base, std::size_t n_rows,
                           std::span<const std::uint32_t> rows,
                           std::span<const std::span<const ProviderId>> lists)
    : first_(first), universe_(universe) {
  require(rows.size() == lists.size(),
          "PostingShard: one list per spliced row required");
  const std::size_t kept = base == nullptr ? 0 : base->rows();
  // Base rows keep their bytes only under the same universe.
  const bool copy = base != nullptr && base->universe_ == universe;
  // Size the arena exactly, as the list constructor does: base's bytes
  // less the replaced rows', plus the new rows' encodings.
  std::size_t payload = copy ? base->arena_.size() : 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    require(rows[k] < n_rows && (k == 0 || rows[k - 1] < rows[k]),
            "PostingShard: spliced rows must be ascending and in range");
    if (copy && rows[k] < kept) {
      payload -= base->byte_offset(rows[k] + 1) - base->byte_offset(rows[k]);
    }
    payload += encoded_bytes(choose_codec(lists[k].size(), universe_),
                             lists[k].size(), universe_);
  }
  offsets_.reserve(n_rows);
  arena_.reserve(payload);
  std::vector<ProviderId> scratch;
  std::size_t k = 0;
  for (std::size_t r = 0; r < n_rows;) {
    if (k < rows.size() && rows[k] == r) {
      append_encoded(lists[k++]);
      ++r;
      continue;
    }
    const std::size_t stop = k < rows.size() ? rows[k] : n_rows;
    require(stop <= kept, "PostingShard: a new row was not spliced");
    if (!copy) {
      for (; r < stop; ++r) {
        scratch.clear();
        base->append_row(r, scratch);
        append_encoded(scratch);
      }
      continue;
    }
    // A run of untouched rows [r, stop): one copy of their bytes, and
    // their offsets moved by where the run now starts.
    const std::size_t from = base->byte_offset(r);
    const std::size_t to = base->byte_offset(stop);
    const std::size_t at = arena_.size();
    require(at + (to - from) <= (std::size_t{1} << 30),
            "PostingShard: arena exceeds the 1 GiB tagged-offset ceiling");
    for (std::size_t row = r; row < stop; ++row) {
      const std::size_t offset = (base->offsets_[row] >> 2) - from + at;
      offsets_.push_back(static_cast<std::uint32_t>(offset << 2) |
                         (base->offsets_[row] & 3u));
    }
    arena_.insert(arena_.end(), base->arena_.begin() + from,
                  base->arena_.begin() + to);
    r = stop;
  }
  if (!copy) arena_.shrink_to_fit();  // re-encoded rows were not presized
  tally_codecs();
}

void PostingShard::append_encoded(std::span<const ProviderId> list) {
  append_encoding(list, universe_, offsets_, arena_);
}

std::span<const std::uint8_t> PostingShard::row_span(std::size_t row) const {
  const std::size_t offset = offsets_[row] >> 2;
  if (offset > arena_.size()) {
    throw SerializeError("PostingShard: row offset beyond the arena");
  }
  return std::span<const std::uint8_t>(arena_).subspan(offset);
}

void PostingShard::append_row(std::size_t row,
                              std::vector<ProviderId>& out) const {
  append_trusted(codec_of(row), arena_.data() + (offsets_[row] >> 2),
                 arena_.data() + arena_.size(), universe_, out);
}

std::size_t PostingShard::row_count(std::size_t row) const {
  return decode_count(codec_of(row), row_span(row));
}

std::size_t PostingShard::byte_offset(std::size_t row) const noexcept {
  return row < offsets_.size() ? offsets_[row] >> 2 : arena_.size();
}

void PostingShard::tally_codecs() noexcept {
  for (std::size_t row = 0; row < offsets_.size(); ++row) {
    auto& codec = by_codec_[static_cast<std::size_t>(codec_of(row))];
    ++codec.rows;
    codec.payload_bytes += byte_offset(row + 1) - byte_offset(row);
  }
}

std::size_t PostingShard::resident_bytes() const noexcept {
  return arena_.capacity() * sizeof(std::uint8_t) +
         offsets_.capacity() * sizeof(std::uint32_t);
}

void PostingShard::validate_rows() const {
  std::vector<ProviderId> scratch;
  std::size_t expected_offset = 0;
  for (std::size_t row = 0; row < offsets_.size(); ++row) {
    if ((offsets_[row] & 3u) == 3u) {
      throw SerializeError("PostingShard: unknown codec tag");
    }
    const std::size_t offset = offsets_[row] >> 2;
    // Offsets must be the exact prefix sums of the row encodings — no gaps,
    // no overlaps — so one flipped offset bit cannot silently alias rows.
    if (offset != expected_offset) {
      throw SerializeError("PostingShard: row offset breaks the arena tiling");
    }
    // The checked decoder: every row the trusted one will ever read passes
    // through here first, and a malformed row throws.
    decode_postings(codec_of(row), row_span(row), universe_, scratch);
    expected_offset = offset + encoded_bytes(codec_of(row), scratch.size(),
                                             universe_);
  }
  if (expected_offset != arena_.size()) {
    throw SerializeError("PostingShard: arena larger than its rows");
  }
}

// ---------------------------------------------------------------- index --

PostingIndex::PostingIndex(const eppi::BitMatrix& published,
                           std::size_t shard_span)
    : providers_(published.rows()),
      identities_(published.cols()),
      shard_span_(shard_span) {
  require(shard_span_ > 0 && shard_span_ % 64 == 0,
          "PostingIndex: shard span must be a positive multiple of 64");
  shards_.reserve((identities_ + shard_span_ - 1) / shard_span_);
  for (std::size_t first = 0; first < identities_; first += shard_span_) {
    const std::size_t n = std::min(shard_span_, identities_ - first);
    shards_.push_back(std::make_shared<const PostingShard>(
        shard_from_matrix(published, first, n)));
  }
}

PostingIndex::PostingIndex(std::size_t providers,
                           std::span<const std::vector<ProviderId>> lists,
                           std::size_t shard_span)
    : providers_(providers), identities_(lists.size()),
      shard_span_(shard_span) {
  require(shard_span_ > 0 && shard_span_ % 64 == 0,
          "PostingIndex: shard span must be a positive multiple of 64");
  shards_.reserve((identities_ + shard_span_ - 1) / shard_span_);
  std::vector<std::span<const ProviderId>> slice;
  for (std::size_t first = 0; first < identities_; first += shard_span_) {
    const std::size_t n = std::min(shard_span_, identities_ - first);
    slice.assign(lists.begin() + first, lists.begin() + first + n);
    shards_.push_back(std::make_shared<const PostingShard>(
        PostingShard(static_cast<IdentityId>(first), providers, slice)));
  }
}

PostingIndex::PostingIndex(
    std::size_t providers, std::size_t identities, std::size_t shard_span,
    std::vector<std::shared_ptr<const PostingShard>> shards)
    : providers_(providers),
      identities_(identities),
      shard_span_(shard_span),
      shards_(std::move(shards)) {
  if (shard_span_ == 0 || shard_span_ % 64 != 0) {
    throw SerializeError("PostingIndex: bad shard span");
  }
  const std::size_t expected =
      (identities_ + shard_span_ - 1) / shard_span_;
  if (shards_.size() != expected) {
    throw SerializeError("PostingIndex: shard count does not tile identities");
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const auto& s = shards_[k];
    const std::size_t first = k * shard_span_;
    if (s == nullptr || s->first_identity() != first ||
        s->rows() != std::min(shard_span_, identities_ - first) ||
        s->universe() != providers_) {
      throw SerializeError("PostingIndex: shard geometry mismatch");
    }
  }
}

PostingIndex::PostingIndex(const PostingIndex& base, std::size_t providers,
                           std::size_t identities,
                           std::span<const IdentityId> ids,
                           const PostingLists& rows)
    : providers_(providers),
      identities_(identities),
      shard_span_(base.shard_span_) {
  require(base.providers_ <= providers && base.identities_ <= identities,
          "PostingIndex: a splice may not shrink the index");
  require(rows.rows() == ids.size(),
          "PostingIndex: one spliced row per identity required");
  for (std::size_t k = 0; k < ids.size(); ++k) {
    require(ids[k] < identities && (k == 0 || ids[k - 1] < ids[k]),
            "PostingIndex: spliced identities must be ascending and in "
            "range");
  }
  shards_.reserve((identities_ + shard_span_ - 1) / shard_span_);
  std::vector<std::uint32_t> local;  // the shard's listed rows
  std::vector<std::span<const ProviderId>> lists;
  std::size_t next = 0;  // first entry of `ids` not yet placed
  for (std::size_t first = 0; first < identities_; first += shard_span_) {
    const std::size_t k = first / shard_span_;
    const std::size_t n = std::min(shard_span_, identities_ - first);
    const PostingShard* old =
        k < base.shards_.size() ? base.shards_[k].get() : nullptr;
    local.clear();
    lists.clear();
    while (next < ids.size() && ids[next] < first + n) {
      local.push_back(static_cast<std::uint32_t>(ids[next] - first));
      lists.push_back(rows.row(next));
      ++next;
    }
    if (old != nullptr && local.empty() && old->rows() == n &&
        providers_ == base.providers_) {
      shards_.push_back(base.shards_[k]);
    } else {
      shards_.push_back(std::make_shared<const PostingShard>(
          static_cast<IdentityId>(first), providers_, old, n, local, lists));
    }
  }
}

void PostingIndex::locate(IdentityId identity, std::size_t& shard,
                          std::size_t& row) const {
  require(identity < identities_, "PostingIndex: unknown identity");
  shard = identity / shard_span_;
  row = identity % shard_span_;
}

std::vector<ProviderId> PostingIndex::query(IdentityId identity) const {
  std::vector<ProviderId> out;
  query_into(identity, out);
  return out;
}

void PostingIndex::query_into(IdentityId identity,
                              std::vector<ProviderId>& out) const {
  out.clear();
  append_postings(identity, out);
}

void PostingIndex::append_postings(IdentityId identity,
                                   std::vector<ProviderId>& out) const {
  std::size_t shard = 0, row = 0;
  locate(identity, shard, row);
  shards_[shard]->append_row(row, out);
}

std::size_t PostingIndex::apparent_frequency(IdentityId identity) const {
  std::size_t shard = 0, row = 0;
  locate(identity, shard, row);
  return shards_[shard]->row_count(row);
}

PostingIndex::MemoryFootprint PostingIndex::memory_footprint()
    const noexcept {
  MemoryFootprint fp;
  fp.shards = shards_.size();
  fp.resident_bytes +=
      shards_.capacity() * sizeof(std::shared_ptr<const PostingShard>);
  for (const auto& shard : shards_) {
    fp.resident_bytes += sizeof(PostingShard) + shard->resident_bytes();
    const auto& tally = shard->codec_footprint();
    for (std::size_t c = 0; c < tally.size(); ++c) {
      fp.by_codec[c].rows += tally[c].rows;
      fp.by_codec[c].payload_bytes += tally[c].payload_bytes;
      fp.payload_bytes += tally[c].payload_bytes;
    }
  }
  return fp;
}

PpiIndex PostingIndex::to_matrix_index() const {
  eppi::BitMatrix matrix(providers_, identities_);
  std::vector<ProviderId> scratch;
  for (const auto& shard : shards_) {
    for (std::size_t row = 0; row < shard->rows(); ++row) {
      scratch.clear();
      shard->append_row(row, scratch);
      for (const ProviderId p : scratch) {
        matrix.set(p, shard->first_identity() + row, true);
      }
    }
  }
  return PpiIndex(std::move(matrix));
}

std::size_t symmetric_difference_size(std::span<const ProviderId> a,
                                      std::span<const ProviderId> b) noexcept {
  std::size_t common = 0;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return a.size() + b.size() - 2 * common;
}

std::size_t hamming_distance(const PostingIndex& a, const PostingIndex& b) {
  require(a.providers() == b.providers() && a.identities() == b.identities(),
          "PostingIndex: hamming distance needs indexes of one shape");
  std::size_t distance = 0;
  std::vector<ProviderId> x, y;
  for (std::size_t j = 0; j < a.identities(); ++j) {
    a.query_into(static_cast<IdentityId>(j), x);
    b.query_into(static_cast<IdentityId>(j), y);
    distance += symmetric_difference_size(x, y);
  }
  return distance;
}

}  // namespace eppi::core
