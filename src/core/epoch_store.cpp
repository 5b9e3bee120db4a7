#include "core/epoch_store.h"

#include <algorithm>
#include <bit>
#include <set>

#include "common/crc32c.h"
#include "common/error.h"
#include "common/serialize.h"
#include "core/index_io.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace eppi::core {

namespace {

constexpr char kManifestMagic[8] = {'e', 'p', 'p', 'i', 'm', 'a', 'n', '1'};
constexpr char kManifestName[] = "MANIFEST";
constexpr char kQuarantineDir[] = "quarantine";

constexpr std::uint8_t kRecordSticky = 1;
constexpr std::uint8_t kRecordEpoch = 2;
constexpr std::uint8_t kRecordDelta = 3;    // read-only: pins matrix_checksum
constexpr std::uint8_t kRecordDeltaV2 = 4;  // pins replay to postings_checksum

// Journal records cannot plausibly exceed this; a larger length field is a
// torn/corrupt tail, not a record.
constexpr std::uint32_t kMaxRecordBytes = 1u << 20;

std::string epoch_file_name(std::uint64_t epoch) {
  return "epoch-" + std::to_string(epoch) + ".idx";
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t take_u32(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

bool manifest_magic_ok(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= sizeof(kManifestMagic) &&
         std::equal(kManifestMagic, kManifestMagic + sizeof(kManifestMagic),
                    bytes.begin(), [](char c, std::uint8_t b) {
                      return static_cast<std::uint8_t>(c) == b;
                    });
}

std::vector<std::uint8_t> delta_payload(const EpochStore::EpochDelta& d) {
  BinaryWriter w;
  // Type 4 shares the legacy type-3 layout except for the u32 after λ: a
  // postings_checksum instead of a matrix_checksum. Old readers skip type 4
  // as unknown rather than misinterpreting the checksum.
  w.write_u8(kRecordDeltaV2);
  w.write_u64(d.epoch);
  w.write_u64(d.base_epoch);
  w.write_u64(d.rows);
  w.write_u64(d.cols);
  w.write_u64(std::bit_cast<std::uint64_t>(d.lambda));
  w.write_u32(d.postings_crc);
  w.write_varint(d.joined.size());
  for (const std::uint32_t p : d.joined) w.write_u32(p);
  w.write_varint(d.left.size());
  for (const std::uint32_t p : d.left) w.write_u32(p);
  w.write_varint(d.row_splices.size());
  for (const auto& r : d.row_splices) {
    w.write_u32(r.provider);
    w.write_bytes(r.bits);
  }
  w.write_varint(d.col_splices.size());
  for (const auto& c : d.col_splices) {
    w.write_u32(c.identity);
    w.write_bytes(c.bits);
  }
  return w.take();
}

// Inverse of delta_payload; the leading type byte is already consumed and
// `postings_pinned` says which generation it named.
// Throws SerializeError on truncation (the caller treats it as torn tail).
EpochStore::EpochDelta read_delta(BinaryReader& r, bool postings_pinned) {
  EpochStore::EpochDelta d;
  d.epoch = r.read_u64();
  d.base_epoch = r.read_u64();
  d.rows = r.read_u64();
  d.cols = r.read_u64();
  d.lambda = std::bit_cast<double>(r.read_u64());
  const std::uint32_t crc = r.read_u32();
  if (postings_pinned) {
    d.postings_crc = crc;
  } else {
    d.legacy_matrix_crc = crc;
  }
  // Each count is validated against the bytes actually left before any
  // allocation: an implausible count is a malformed record, not an OOM.
  const auto checked_count = [&r](std::size_t per_element) {
    const std::uint64_t n = r.read_varint();
    if (n > r.remaining() / per_element) {
      throw SerializeError("delta record count exceeds payload");
    }
    return static_cast<std::size_t>(n);
  };
  d.joined.resize(checked_count(4));
  for (auto& p : d.joined) p = r.read_u32();
  d.left.resize(checked_count(4));
  for (auto& p : d.left) p = r.read_u32();
  d.row_splices.resize(checked_count(5));  // u32 id + ≥1-byte length prefix
  for (auto& row : d.row_splices) {
    row.provider = r.read_u32();
    row.bits = r.read_bytes();
  }
  d.col_splices.resize(checked_count(5));
  for (auto& col : d.col_splices) {
    col.identity = r.read_u32();
    col.bits = r.read_bytes();
  }
  return d;
}

// Whether a replayed result reaches the checksum its delta record pinned —
// postings_checksum for type-4 records, matrix_checksum for legacy type 3.
// Either way the verification runs in posting space.
bool delta_matches(const PostingIndex& next,
                   const EpochStore::EpochDelta& d) {
  return d.legacy_matrix_crc ? matrix_checksum(next) == *d.legacy_matrix_crc
                             : postings_checksum(next) == d.postings_crc;
}

// Result of a read-only journal scan, shared by recovery and fsck.
struct ManifestScan {
  std::optional<EpochStore::StickyState> sticky;
  bool conflicting_sticky = false;
  std::vector<EpochStore::EpochRecord> epochs;
  std::map<std::uint64_t, EpochStore::EpochDelta> deltas;
  // Each delta's journal payload as written, for quarantine dumps.
  std::map<std::uint64_t, std::span<const std::uint8_t>> delta_payloads;
  std::size_t valid_prefix = 0;  // bytes up to the last good record
  bool torn_tail = false;
  std::vector<std::string> notes;
};

ManifestScan scan_manifest(std::span<const std::uint8_t> bytes) {
  ManifestScan scan;
  std::size_t pos = sizeof(kManifestMagic);
  scan.valid_prefix = pos;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      scan.torn_tail = true;
      scan.notes.push_back("torn journal tail: short frame header");
      break;
    }
    const std::uint32_t len = take_u32(bytes, pos);
    const std::uint32_t want_crc = crc32c_unmask(take_u32(bytes, pos + 4));
    if (len > kMaxRecordBytes || bytes.size() - pos - 8 < len) {
      scan.torn_tail = true;
      scan.notes.push_back("torn journal tail: short or implausible record");
      break;
    }
    const auto payload = bytes.subspan(pos + 8, len);
    if (crc32c(payload) != want_crc) {
      scan.torn_tail = true;
      scan.notes.push_back("torn journal tail: record checksum mismatch");
      break;
    }
    try {
      BinaryReader r(payload);
      const std::uint8_t type = r.read_u8();
      if (type == kRecordSticky) {
        EpochStore::StickyState state;
        state.master_key = r.read_u64();
        state.enable_mixing = r.read_u8() != 0;
        if (!scan.sticky) {
          scan.sticky = state;
        } else if (*scan.sticky != state) {
          // First record wins; a differing duplicate is recorded for fsck.
          scan.conflicting_sticky = true;
          scan.notes.push_back(
              "conflicting sticky-state record ignored (first wins)");
        }
      } else if (type == kRecordEpoch) {
        EpochStore::EpochRecord rec;
        rec.epoch = r.read_u64();
        const auto name = r.read_bytes();
        rec.file.assign(name.begin(), name.end());
        rec.rows = r.read_u64();
        rec.cols = r.read_u64();
        rec.lambda = std::bit_cast<double>(r.read_u64());
        if (!scan.epochs.empty() && rec.epoch <= scan.epochs.back().epoch) {
          scan.notes.push_back("non-monotone epoch record " +
                               std::to_string(rec.epoch) + " skipped");
        } else {
          scan.epochs.push_back(std::move(rec));
        }
      } else if (type == kRecordDelta || type == kRecordDeltaV2) {
        EpochStore::EpochDelta delta = read_delta(r, type == kRecordDeltaV2);
        EpochStore::EpochRecord rec;
        rec.epoch = delta.epoch;
        rec.rows = delta.rows;
        rec.cols = delta.cols;
        rec.lambda = delta.lambda;
        rec.is_delta = true;
        rec.base_epoch = delta.base_epoch;
        if (!scan.epochs.empty() && rec.epoch <= scan.epochs.back().epoch) {
          scan.notes.push_back("non-monotone delta record " +
                               std::to_string(rec.epoch) + " skipped");
        } else {
          scan.epochs.push_back(std::move(rec));
          scan.delta_payloads.emplace(delta.epoch, payload);
          scan.deltas.emplace(delta.epoch, std::move(delta));
        }
      }
      // Unknown record types are skipped (forward compatibility); their CRC
      // already proved they were written whole.
    } catch (const SerializeError&) {
      scan.torn_tail = true;
      scan.notes.push_back("malformed journal record; truncating here");
      break;
    }
    pos += 8 + len;
    scan.valid_prefix = pos;
  }
  return scan;
}

std::vector<std::uint8_t> frame_record(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32c_mask(crc32c(payload)));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> sticky_payload(const EpochStore::StickyState& s) {
  BinaryWriter w;
  w.write_u8(kRecordSticky);
  w.write_u64(s.master_key);
  w.write_u8(s.enable_mixing ? 1 : 0);
  return w.take();
}

std::vector<std::uint8_t> epoch_payload(const EpochStore::EpochRecord& r) {
  BinaryWriter w;
  w.write_u8(kRecordEpoch);
  w.write_u64(r.epoch);
  w.write_bytes(std::span(
      reinterpret_cast<const std::uint8_t*>(r.file.data()), r.file.size()));
  w.write_u64(r.rows);
  w.write_u64(r.cols);
  w.write_u64(std::bit_cast<std::uint64_t>(r.lambda));
  return w.take();
}

}  // namespace

EpochStore::EpochStore(storage::Vfs& vfs, std::string dir)
    : vfs_(vfs), dir_(std::move(dir)) {
  recover();
}

std::string EpochStore::path_of(const std::string& name) const {
  return dir_ + "/" + name;
}

void EpochStore::quarantine(const std::string& name, const std::string& why) {
  const std::string qdir = path_of(kQuarantineDir);
  vfs_.make_dir(qdir);
  std::string target = qdir + "/" + name;
  for (int i = 1; vfs_.exists(target); ++i) {
    target = qdir + "/" + name + "." + std::to_string(i);
  }
  vfs_.rename_file(path_of(name), target);
  vfs_.fsync_dir(qdir);
  vfs_.fsync_dir(dir_);
  ++report_.quarantined;
  obs::Registry::global()
      .counter("eppi_store_quarantined_total", {},
               "Store files moved aside as corrupt or orphaned")
      .add();
  report_.notes.push_back("quarantined " + name + ": " + why);
}

void EpochStore::append_record(std::span<const std::uint8_t> payload) {
  if (journal_dirty_) {
    throw storage::StorageError(
        "epoch store journal has an unrepaired torn tail; reopen the store "
        "to recover before appending");
  }
  const std::vector<std::uint8_t> frame = frame_record(payload);
  try {
    storage::durable_append(vfs_, path_of(kManifestName), frame);
  } catch (const storage::StorageError&) {
    // The append may have landed partially (ENOSPC mid-write, fsync
    // failure), leaving torn bytes at the tail. A later append after that
    // garbage would make the *next* commit unreadable at recovery, so cut
    // the journal back to the last known-good record boundary now.
    try {
      const auto bytes = vfs_.read_file(path_of(kManifestName));
      if (bytes.size() > journal_len_) {
        storage::atomic_write_file(
            vfs_, path_of(kManifestName),
            std::span(bytes).subspan(0, journal_len_));
      }
    } catch (const storage::StorageError&) {
      // Rollback itself failed; refuse further appends until reopened.
      journal_dirty_ = true;
    }
    throw;
  }
  journal_len_ += frame.size();
}

void EpochStore::recover() {
  obs::Span span("store.recover");
  vfs_.make_dir(dir_);
  const std::string manifest = path_of(kManifestName);

  if (!vfs_.exists(manifest)) {
    // Fresh store (or a crash before the manifest became durable — in which
    // case nothing else was either). Initialize atomically so the manifest
    // entry itself can never be torn.
    if (vfs_.exists(manifest + std::string(".tmp"))) {
      quarantine(std::string(kManifestName) + ".tmp",
                 "crash during store initialization");
    }
    const std::vector<std::uint8_t> magic(kManifestMagic,
                                          kManifestMagic +
                                              sizeof(kManifestMagic));
    storage::atomic_write_file(vfs_, manifest, magic);
    report_.notes.push_back("initialized empty store");
  }

  const auto bytes = vfs_.read_file(manifest);
  if (!manifest_magic_ok(bytes)) {
    // Not a crash artifact (initialization is atomic): the journal header
    // itself is damaged, and with it the sticky-key lineage. Refuse to
    // guess — re-rolling sticky keys silently would be a privacy violation.
    throw storage::StorageError(
        "epoch store manifest corrupt (bad magic): " + manifest);
  }

  ManifestScan scan = scan_manifest(bytes);
  for (auto& note : scan.notes) report_.notes.push_back(std::move(note));
  if (scan.torn_tail) {
    // Physically cut the torn tail so future appends start at a clean
    // record boundary (an append after garbage would be unreadable).
    storage::atomic_write_file(
        vfs_, manifest,
        std::span(bytes).subspan(0, scan.valid_prefix));
    report_.manifest_truncated = true;
    span.event("store.truncate_tail");
    obs::Registry::global()
        .counter("eppi_store_truncations_total", {},
                 "Torn journal tails cut back to a record boundary")
        .add();
  }
  journal_len_ = scan.valid_prefix;
  journal_dirty_ = false;
  sticky_ = scan.sticky;
  epochs_ = std::move(scan.epochs);
  deltas_ = std::move(scan.deltas);

  // Validate every referenced index file; quarantine what fails checksums.
  // Delta records own no file — they are validated by the replay pass below.
  std::set<std::string> referenced{kManifestName};
  for (auto& rec : epochs_) {
    if (rec.is_delta) continue;
    referenced.insert(rec.file);
    if (!vfs_.exists(path_of(rec.file))) {
      report_.notes.push_back("epoch " + std::to_string(rec.epoch) +
                              ": index file missing (" + rec.file + ")");
      continue;
    }
    const auto idx_bytes = vfs_.read_file(path_of(rec.file));
    const IndexValidation v = validate_index(idx_bytes);
    if (!v.ok) {
      std::string sections;
      for (const auto& c : v.sections) {
        if (!c.ok) {
          sections += std::string(sections.empty() ? "" : ", ") +
                      to_string(c.section) + ": " + c.detail;
        }
      }
      quarantine(rec.file, sections);
      continue;
    }
    const IndexShape shape = index_shape(idx_bytes);
    if (shape.rows != rec.rows || shape.cols != rec.cols) {
      quarantine(rec.file, "shape differs from journal record");
      continue;
    }
    rec.file_intact = true;
  }

  // Replay pass: walk the lineage once, carrying the current replayed
  // postings forward, and mark each delta intact only if its base is the
  // immediately preceding replayable epoch AND the replay matches the
  // record's checksum. The whole pass runs in posting space — at a
  // million-owner shape the dense matrix would not fit the recovery budget.
  // An orphaned delta (base missing/quarantined, checksum mismatch) has its
  // payload dumped to quarantine/ for post-mortems — the journal itself is
  // never rewritten — and breaks the chain until the next intact full epoch.
  std::optional<PostingIndex> replayed;
  std::uint64_t replayed_epoch = 0;
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    EpochRecord& rec = epochs_[i];
    if (!rec.is_delta) {
      replayed.reset();
      // Only load the postings if a delta actually builds on them.
      const bool needed =
          i + 1 < epochs_.size() && epochs_[i + 1].is_delta;
      if (rec.file_intact && needed) {
        replayed =
            load_postings_bytes(vfs_.read_file(path_of(rec.file))).postings;
        replayed_epoch = rec.epoch;
      }
      continue;
    }
    const auto it = deltas_.find(rec.epoch);
    if (it == deltas_.end()) {  // unreachable: scan inserts both together
      replayed.reset();
      continue;
    }
    std::string why;
    if (!replayed || replayed_epoch != rec.base_epoch) {
      why = "base epoch " + std::to_string(rec.base_epoch) +
            " is not replayable";
    } else {
      try {
        PostingIndex next = apply_delta_postings(*replayed, it->second);
        if (!delta_matches(next, it->second)) {
          why = "replayed matrix checksum mismatch";
        } else {
          rec.file_intact = true;
          replayed = std::move(next);
          replayed_epoch = rec.epoch;
        }
      } catch (const ConfigError& err) {
        why = err.what();
      }
    }
    if (!rec.file_intact) {
      // Deterministic name: repeated recoveries overwrite rather than pile
      // up copies (the journal record that spawns this never goes away).
      const std::string qdir = path_of(kQuarantineDir);
      vfs_.make_dir(qdir);
      const std::string qname =
          std::string("delta-") + std::to_string(rec.epoch) + ".rec";
      storage::atomic_write_file(vfs_, qdir + "/" + qname,
                                 scan.delta_payloads.at(rec.epoch));
      ++report_.quarantined;
      obs::Registry::global()
          .counter("eppi_store_quarantined_total", {},
                   "Store files moved aside as corrupt or orphaned")
          .add();
      report_.notes.push_back("quarantined " + qname + ": orphaned delta (" +
                              why + ")");
      deltas_.erase(it);
      replayed.reset();
    }
  }

  // Orphans: crash artifacts (a .tmp that never got renamed, an index file
  // whose commit record never landed). Quarantined, never deleted.
  for (const auto& name : vfs_.list_dir(dir_)) {
    if (referenced.count(name)) continue;
    if (name.ends_with(".tmp") || name.ends_with(".idx")) {
      quarantine(name, "not referenced by the journal");
    } else {
      report_.notes.push_back("ignoring unknown file " + name);
    }
  }

  span.attr("journal_bytes", journal_len_);
  span.attr("epochs", epochs_.size());
  span.attr("quarantined", report_.quarantined);
  span.attr("truncated", report_.manifest_truncated);
}

const EpochStore::StickyState& EpochStore::sticky_state() const {
  require(sticky_.has_value(), "EpochStore: no sticky state recorded");
  return *sticky_;
}

void EpochStore::record_sticky_state(const StickyState& state) {
  if (sticky_) {
    require(*sticky_ == state,
            "EpochStore: refusing to replace the recorded sticky state — "
            "rotating sticky keys re-enables cross-epoch intersection");
    return;
  }
  append_record(sticky_payload(state));
  sticky_ = state;
}

std::vector<double> EpochStore::lambda_history() const {
  std::vector<double> history;
  history.reserve(epochs_.size());
  for (const auto& rec : epochs_) history.push_back(rec.lambda);
  return history;
}

std::optional<std::uint64_t> EpochStore::latest_epoch() const {
  for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it) {
    if (it->file_intact) return it->epoch;
  }
  return std::nullopt;
}

LoadedIndex EpochStore::load_epoch_postings(std::uint64_t epoch) const {
  auto it = std::find_if(
      epochs_.begin(), epochs_.end(),
      [&](const EpochRecord& r) { return r.epoch == epoch; });
  require(it != epochs_.end(), "EpochStore: unknown epoch " +
                                   std::to_string(epoch));
  // Walk a delta epoch back to the nearest full epoch, then replay forward.
  std::vector<const EpochDelta*> chain;
  while (it->is_delta) {
    require(it->file_intact,
            "EpochStore: epoch " + std::to_string(it->epoch) +
                " is an orphaned delta");
    chain.push_back(&deltas_.at(it->epoch));
    const std::uint64_t base = it->base_epoch;
    it = std::find_if(epochs_.begin(), epochs_.end(),
                      [&](const EpochRecord& r) { return r.epoch == base; });
    require(it != epochs_.end(),
            "EpochStore: delta chain references unknown epoch " +
                std::to_string(base));
  }
  LoadedIndex loaded = load_postings_bytes(vfs_.read_file(path_of(it->file)));
  if (loaded.postings.providers() != it->rows ||
      loaded.postings.identities() != it->cols) {
    throw CorruptIndexError(IndexSection::kHeader,
                            "epoch file shape differs from journal record");
  }
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    loaded.postings = apply_delta_postings(loaded.postings, **rit);
    if (!delta_matches(loaded.postings, **rit)) {
      throw CorruptIndexError(
          IndexSection::kPayload,
          "delta replay checksum mismatch at epoch " +
              std::to_string((*rit)->epoch));
    }
  }
  return loaded;
}

PpiIndex EpochStore::load_epoch(std::uint64_t epoch) const {
  return load_epoch_postings(epoch).postings.to_matrix_index();
}

void EpochStore::commit_epoch(std::uint64_t epoch, const PostingIndex& index,
                              double lambda, const Lexicon* lexicon) {
  require(epochs_.empty() || epoch > epochs_.back().epoch,
          "EpochStore: epoch must advance the lineage");
  EpochRecord rec;
  rec.epoch = epoch;
  rec.file = epoch_file_name(epoch);
  rec.rows = index.providers();
  rec.cols = index.identities();
  rec.lambda = lambda;
  rec.file_intact = true;

  obs::Span span("store.commit");
  span.attr("epoch", epoch);
  span.attr("rows", rec.rows);
  span.attr("cols", rec.cols);

  // Index first, journal second: the record must never reference a file
  // that is not fully durable.
  const auto bytes = save_index_v3_bytes(index, lexicon);
  span.attr("bytes", bytes.size());
  storage::atomic_write_file(vfs_, path_of(rec.file), bytes);
  append_record(epoch_payload(rec));
  epochs_.push_back(std::move(rec));
  obs::Registry::global()
      .counter("eppi_store_commits_total", {},
               "Epoch indexes committed to the durable store")
      .add();
}

void EpochStore::commit_epoch(std::uint64_t epoch, const PpiIndex& index,
                              double lambda) {
  commit_epoch(epoch, PostingIndex(index), lambda, nullptr);
}

void EpochStore::commit_delta(const EpochDelta& delta) {
  require(!epochs_.empty() && epochs_.back().epoch == delta.base_epoch,
          "EpochStore: delta base must be the lineage head");
  require(epochs_.back().file_intact,
          "EpochStore: delta base epoch " + std::to_string(delta.base_epoch) +
              " is not loadable; commit a full epoch instead");
  require(delta.epoch > delta.base_epoch,
          "EpochStore: epoch must advance the lineage");
  require(!delta.legacy_matrix_crc,
          "EpochStore: legacy type-3 delta records are read-only");
  require(delta.rows >= epochs_.back().rows &&
              delta.cols >= epochs_.back().cols,
          "EpochStore: a delta may not shrink the matrix");
  const std::size_t row_bytes = (delta.cols + 7) / 8;
  const std::size_t col_bytes = (delta.rows + 7) / 8;
  for (const auto& r : delta.row_splices) {
    require(r.provider < delta.rows && r.bits.size() == row_bytes,
            "EpochStore: malformed row splice in delta");
  }
  for (const auto& c : delta.col_splices) {
    require(c.identity < delta.cols && c.bits.size() == col_bytes,
            "EpochStore: malformed column splice in delta");
  }
  for (const std::uint32_t p : delta.left) {
    require(p < delta.rows, "EpochStore: delta retires an unknown provider");
  }
  const auto payload = delta_payload(delta);
  require(payload.size() <= kMaxRecordBytes,
          "EpochStore: delta record exceeds the journal record bound; "
          "commit a full epoch instead");

  obs::Span span("store.commit_delta");
  span.attr("epoch", delta.epoch);
  span.attr("base_epoch", delta.base_epoch);
  span.attr("bytes", payload.size());
  span.attr("col_splices", delta.col_splices.size());
  span.attr("row_splices", delta.row_splices.size());

  append_record(payload);
  EpochRecord rec;
  rec.epoch = delta.epoch;
  rec.rows = delta.rows;
  rec.cols = delta.cols;
  rec.lambda = delta.lambda;
  rec.file_intact = true;
  rec.is_delta = true;
  rec.base_epoch = delta.base_epoch;
  epochs_.push_back(std::move(rec));
  deltas_[delta.epoch] = delta;
  obs::Registry::global()
      .counter("eppi_store_delta_commits_total", {},
               "Incremental epochs committed as journal-only delta records")
      .add();
}

bool EpochStore::delta_overflows(const EpochDelta& delta) {
  return delta_payload(delta).size() > kMaxRecordBytes;
}

const EpochStore::EpochDelta& EpochStore::delta_record(
    std::uint64_t epoch) const {
  const auto it = deltas_.find(epoch);
  require(it != deltas_.end(),
          "EpochStore: no delta record for epoch " + std::to_string(epoch));
  return it->second;
}

std::size_t EpochStore::deltas_since_full() const {
  std::size_t n = 0;
  for (auto it = epochs_.rbegin(); it != epochs_.rend() && it->is_delta; ++it) {
    ++n;
  }
  return n;
}

std::uint32_t matrix_checksum(const PostingIndex& postings) {
  const std::size_t rows = postings.providers();
  const std::size_t cols = postings.identities();
  // Transpose to per-provider identity lists — O(set bits), not O(m·n).
  // Identities arrive in ascending order, so each list comes out sorted.
  std::vector<std::vector<IdentityId>> by_provider(rows);
  std::vector<ProviderId> list;
  for (std::size_t j = 0; j < cols; ++j) {
    postings.query_into(static_cast<IdentityId>(j), list);
    for (const ProviderId p : list) {
      by_provider[p].push_back(static_cast<IdentityId>(j));
    }
  }
  // Stream the u64 LE shape then each row's packed u64 LE words, reusing
  // ONE row's worth of buffer.
  BinaryWriter header;
  header.write_u64(rows);
  header.write_u64(cols);
  std::uint32_t crc = crc32c(header.buffer());
  const std::size_t words = (cols + 63) / 64;
  std::vector<std::uint64_t> row(words);
  std::vector<std::uint8_t> bytes(words * 8);
  for (std::size_t i = 0; i < rows; ++i) {
    std::fill(row.begin(), row.end(), std::uint64_t{0});
    for (const IdentityId j : by_provider[i]) {
      row[j >> 6] |= std::uint64_t{1} << (j & 63);
    }
    for (std::size_t k = 0; k < words; ++k) {
      for (int b = 0; b < 8; ++b) {
        bytes[k * 8 + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(row[k] >> (8 * b));
      }
    }
    crc = crc32c(bytes, crc);
  }
  return crc;
}

namespace {

// Shared tail of the two postings_checksum overloads: hash the u64 LE shape,
// then per identity a u32 count followed by the sorted u32 provider ids.
// Chunked per column so a million-identity index never builds one giant
// contiguous hash buffer.
template <typename ColumnFn>
std::uint32_t postings_checksum_stream(std::size_t rows, std::size_t cols,
                                       ColumnFn&& column_of) {
  BinaryWriter header;
  header.write_u64(rows);
  header.write_u64(cols);
  std::uint32_t crc = crc32c(header.buffer());
  std::vector<ProviderId> list;
  std::vector<std::uint8_t> col;
  const auto put = [&col](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      col.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  for (std::size_t j = 0; j < cols; ++j) {
    column_of(j, list);
    col.clear();
    put(static_cast<std::uint32_t>(list.size()));
    for (const ProviderId p : list) put(p);
    crc = crc32c(col, crc);
  }
  return crc;
}

}  // namespace

std::uint32_t postings_checksum(const eppi::BitMatrix& matrix) {
  return postings_checksum_stream(
      matrix.rows(), matrix.cols(),
      [&](std::size_t j, std::vector<ProviderId>& out) {
        out.clear();
        for (std::size_t i = 0; i < matrix.rows(); ++i) {
          if (matrix.get(i, j)) out.push_back(static_cast<ProviderId>(i));
        }
      });
}

std::uint32_t postings_checksum(const PostingIndex& postings) {
  return postings_checksum_stream(
      postings.providers(), postings.identities(),
      [&](std::size_t j, std::vector<ProviderId>& out) {
        postings.query_into(static_cast<IdentityId>(j), out);
      });
}

PostingIndex apply_delta_postings(const PostingIndex& base,
                                  const EpochStore::EpochDelta& delta) {
  require(delta.rows >= base.providers() && delta.cols >= base.identities(),
          "apply_delta: delta shrinks the matrix");
  const std::size_t row_bytes = (delta.cols + 7) / 8;
  const std::size_t col_bytes = (delta.rows + 7) / 8;
  // Providers whose base rows are replaced wholesale — retired (zeroed) or
  // re-rowed by a splice — leave every list, which is what makes this the
  // posting-space mirror of a dense splice's row writes.
  std::vector<bool> dropped(delta.rows, false);
  const bool any_dropped = !delta.left.empty() || !delta.row_splices.empty();
  for (const std::uint32_t p : delta.left) {
    require(p < delta.rows, "apply_delta: retired row out of range");
    dropped[p] = true;
  }
  for (const auto& r : delta.row_splices) {
    require(r.provider < delta.rows, "apply_delta: row splice out of range");
    require(r.bits.size() == row_bytes,
            "apply_delta: row splice length mismatch");
    dropped[r.provider] = true;
  }
  // Column splices carry FINAL values and a dense splice writes them last,
  // so they replace whatever the row pass would produce for the same cell.
  std::vector<const EpochStore::EpochDelta::Column*> column(delta.cols);
  for (const auto& c : delta.col_splices) {
    require(c.identity < delta.cols, "apply_delta: column splice out of range");
    require(c.bits.size() == col_bytes,
            "apply_delta: column splice length mismatch");
    column[c.identity] = &c;
  }
  // Only the rows the delta changes are rebuilt; the splice constructor
  // shares or copies every other row of the base.
  std::vector<IdentityId> ids;
  PostingLists rows;
  std::vector<ProviderId> list;
  for (std::size_t j = 0; j < delta.cols; ++j) {
    const auto id = static_cast<IdentityId>(j);
    if (column[j] != nullptr) {
      for (std::size_t i = 0; i < delta.rows; ++i) {
        if ((column[j]->bits[i >> 3] >> (i & 7)) & 1) {
          rows.entries.push_back(static_cast<ProviderId>(i));
        }
      }
    } else if (any_dropped || j >= base.identities()) {
      list.clear();
      if (j < base.identities()) base.append_postings(id, list);
      bool changed = std::erase_if(list, [&](ProviderId p) {
                       return dropped[p];
                     }) > 0 || j >= base.identities();
      // Graft the spliced rows back in; the erase above guarantees no
      // duplicate, and the sorted insert keeps the list ordered.
      for (const auto& r : delta.row_splices) {
        if ((r.bits[j >> 3] >> (j & 7)) & 1) {
          list.insert(std::lower_bound(list.begin(), list.end(), r.provider),
                      r.provider);
          changed = true;
        }
      }
      if (!changed) continue;
      rows.entries.insert(rows.entries.end(), list.begin(), list.end());
    } else {
      continue;
    }
    ids.push_back(id);
    rows.end_row();
  }
  return PostingIndex(base, delta.rows, delta.cols, ids, rows);
}

// --- fsck ------------------------------------------------------------------

namespace {

IndexValidation check_index_bytes(const std::string& file,
                                  std::span<const std::uint8_t> bytes,
                                  FsckReport& report) {
  ++report.files_checked;
  IndexValidation v = validate_index(bytes);
  if (v.ok) {
    report.notes.push_back(file + ": v" + std::to_string(v.version) + " ok");
  } else {
    report.ok = false;
    for (const auto& c : v.sections) {
      if (!c.ok) {
        report.issues.push_back({file, to_string(c.section), c.detail});
      }
    }
  }
  return v;
}

}  // namespace

FsckReport fsck_index_file(storage::Vfs& vfs, const std::string& path) {
  FsckReport report;
  if (!vfs.exists(path)) {
    report.ok = false;
    report.issues.push_back({path, "store", "no such file"});
    return report;
  }
  check_index_bytes(path, vfs.read_file(path), report);
  return report;
}

FsckReport fsck_store(storage::Vfs& vfs, const std::string& dir) {
  obs::Span span("store.fsck");
  FsckReport report;
  const std::string manifest = dir + "/" + kManifestName;
  if (!vfs.exists(manifest)) {
    report.ok = false;
    report.issues.push_back({kManifestName, "store", "no manifest"});
    return report;
  }
  const auto bytes = vfs.read_file(manifest);
  ++report.files_checked;
  if (!manifest_magic_ok(bytes)) {
    report.ok = false;
    report.issues.push_back({kManifestName, "manifest", "bad magic"});
    return report;
  }
  const ManifestScan scan = scan_manifest(bytes);
  if (scan.torn_tail) {
    report.ok = false;
    report.issues.push_back(
        {kManifestName, "manifest",
         "torn journal tail (recovery would truncate at byte " +
             std::to_string(scan.valid_prefix) + ")"});
  }
  if (scan.conflicting_sticky) {
    report.ok = false;
    report.issues.push_back(
        {kManifestName, "manifest", "conflicting sticky-state records"});
  }
  if (!scan.sticky && !scan.epochs.empty()) {
    report.ok = false;
    report.issues.push_back(
        {kManifestName, "manifest",
         "epochs committed but no sticky-state record: a restart would "
         "re-roll publication noise"});
  }

  // Full epochs: validate each referenced index file. Delta epochs: verify
  // that base+delta replay reproduces the record's checksummed head — the
  // delta has no file of its own, so the replayed postings are carried
  // forward across the walk exactly as recovery does it (in posting space;
  // fsck at a million-owner shape must not build the dense matrix either).
  std::set<std::string> referenced{kManifestName};
  std::optional<PostingIndex> replayed;
  std::optional<std::uint64_t> prev_epoch;
  for (const auto& rec : scan.epochs) {
    if (rec.is_delta) {
      const auto it = scan.deltas.find(rec.epoch);
      const std::string label = "delta " + std::to_string(rec.epoch);
      if (prev_epoch != rec.base_epoch) {
        // Can only come from a buggy writer or journal tampering — a crash
        // leaves either a whole record (valid base) or a torn tail.
        report.ok = false;
        report.issues.push_back(
            {kManifestName, "manifest",
             label + ": base epoch " + std::to_string(rec.base_epoch) +
                 " is not its lineage predecessor"});
        replayed.reset();
      } else if (!replayed || it == scan.deltas.end()) {
        report.notes.push_back(
            "epoch " + std::to_string(rec.epoch) +
            ": delta base not replayable (quarantined or lost)");
      } else {
        try {
          PostingIndex next = apply_delta_postings(*replayed, it->second);
          if (!delta_matches(next, it->second)) {
            report.ok = false;
            report.issues.push_back(
                {kManifestName, "manifest",
                 label + ": replay does not reach the checksummed head "
                         "(recovery quarantines this delta)"});
            replayed.reset();
          } else {
            report.notes.push_back(label + ": replay ok");
            replayed = std::move(next);
          }
        } catch (const ConfigError& err) {
          report.ok = false;
          report.issues.push_back(
              {kManifestName, "manifest", label + ": " + err.what()});
          replayed.reset();
        }
      }
      prev_epoch = rec.epoch;
      continue;
    }
    prev_epoch = rec.epoch;
    replayed.reset();
    referenced.insert(rec.file);
    if (!vfs.exists(dir + "/" + rec.file)) {
      report.notes.push_back("epoch " + std::to_string(rec.epoch) +
                             ": file missing (quarantined or lost)");
      continue;
    }
    const auto idx = vfs.read_file(dir + "/" + rec.file);
    const IndexValidation v = check_index_bytes(rec.file, idx, report);
    if (v.ok) {
      const IndexShape shape = index_shape(idx);
      if (shape.rows != rec.rows || shape.cols != rec.cols) {
        report.ok = false;
        report.issues.push_back(
            {rec.file, "header", "shape differs from journal record"});
      } else {
        replayed = load_postings_bytes(idx).postings;
      }
    }
  }

  for (const auto& name : vfs.list_dir(dir)) {
    if (referenced.count(name)) continue;
    if (name.ends_with(".tmp") || name.ends_with(".idx")) {
      report.ok = false;
      report.issues.push_back(
          {name, "store",
           "orphan file not referenced by the journal (crash artifact; "
           "recovery quarantines it)"});
    }
  }
  span.attr("files_checked", report.files_checked);
  span.attr("issues", report.issues.size());
  span.attr("ok", report.ok);
  return report;
}

}  // namespace eppi::core
