// Durable, crash-safe persistence for the epoch lifecycle.
//
// The epoch design (core/epoch_manager.h) is only privacy-safe if its sticky
// decisions — provider publication-noise keys and the λ-mixing PRF key, both
// derived from the master key — survive a process restart. A crash that
// silently re-rolled them would rotate the published noise and re-enable the
// exact cross-epoch intersection attacks the EpochManager exists to prevent.
// EpochStore therefore persists, in one directory:
//
//   MANIFEST        an append-only journal: a magic header followed by
//                   CRC32C-framed records — the sticky state (written once,
//                   first record wins forever), one commit record per full
//                   epoch (id, file name, shape, λ), and delta records for
//                   incremental epochs (membership changes + spliced
//                   rows/columns + a checksum of the replayed result; no
//                   index file is written for a delta epoch). Delta records
//                   are written as type 4 (postings_checksum); legacy type-3
//                   records (matrix_checksum) are read and replayed only.
//                   The journal is the source of truth: an index file not
//                   referenced by a record was never committed.
//   epoch-<N>.idx   the published index of epoch N in the compressed
//                   sharded eppi-index-v3 format (core/index_io.h);
//                   v1/v2 files from older stores are still readable.
//   quarantine/     corrupt or orphaned files moved aside by recovery, kept
//                   for post-mortems instead of deleted.
//
// Commit protocol (all I/O via storage::Vfs, so it is fault-injectable):
//   1. write epoch-<N>.idx.tmp, fsync, rename to epoch-<N>.idx, fsync dir;
//   2. append the commit record to MANIFEST, fsync.
// A crash between 1 and 2 leaves an unreferenced index file that recovery
// quarantines; the epoch is simply not committed, and a re-run rebuild
// regenerates byte-identical content (sticky noise). A torn journal append
// is detected by the record CRC and truncated away.
//
// Opening a store runs recovery: scan the journal, stop at the first torn or
// corrupt record (physically truncating the tail so future appends land on a
// clean boundary), validate every referenced index file's checksums,
// quarantine corrupt ones, and open at the newest epoch whose file is fully
// intact.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/index_io.h"
#include "core/lexicon.h"
#include "core/posting_index.h"
#include "core/ppi_index.h"
#include "storage/vfs.h"

namespace eppi::core {

class EpochStore {
 public:
  // The restart-critical randomness: everything the EpochManager derives
  // noise and mixing coins from. Recorded once; later attempts to record a
  // *different* state throw (the first key wins for the store's lifetime).
  struct StickyState {
    std::uint64_t master_key = 0;
    bool enable_mixing = true;

    bool operator==(const StickyState&) const = default;
  };

  struct EpochRecord {
    std::uint64_t epoch = 0;
    std::string file;  // name within the store directory ("" for deltas)
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    double lambda = 0.0;  // the λ-history entry for this epoch
    // For a full epoch: the index file validated at open (or just
    // committed). For a delta epoch: the base+delta replay chain validated
    // against the record's checksum — either way, load_epoch(epoch) works.
    bool file_intact = false;
    bool is_delta = false;
    std::uint64_t base_epoch = 0;  // lineage predecessor (deltas only)
  };

  // An incremental epoch: everything needed to derive epoch `epoch` from its
  // lineage predecessor `base_epoch` without writing a full index file.
  // Cells not covered by `rows`/`columns`/`left` keep their base value;
  // covered sections carry FINAL values (replay order is insensitive).
  struct EpochDelta {
    struct Column {
      std::uint32_t identity = 0;
      std::vector<std::uint8_t> bits;  // packed column, LSB-first, ⌈rows/8⌉
    };
    struct Row {
      std::uint32_t provider = 0;
      std::vector<std::uint8_t> bits;  // packed row, LSB-first, ⌈cols/8⌉
    };
    std::uint64_t epoch = 0;
    std::uint64_t base_epoch = 0;
    std::uint64_t rows = 0;  // shape of the RESULT (>= base shape)
    std::uint64_t cols = 0;
    double lambda = 0.0;
    std::vector<std::uint32_t> joined;  // providers entering at this epoch
    std::vector<std::uint32_t> left;    // providers retired (rows zeroed)
    std::vector<Row> row_splices;       // full rows (joining providers)
    std::vector<Column> col_splices;    // recomputed identity columns
    // postings_checksum() of the replayed result; journaled as a type-4
    // record, which is the only delta record the store writes.
    std::uint32_t postings_crc = 0;
    // Set only when the record was read from a legacy type-3 journal entry,
    // which pins the replay to matrix_checksum() instead. Read-only: such a
    // delta cannot be committed. Both kinds verify in posting space.
    std::optional<std::uint32_t> legacy_matrix_crc;
  };

  struct RecoveryReport {
    std::vector<std::string> notes;   // human-readable recovery actions
    std::size_t quarantined = 0;      // files moved to quarantine/
    bool manifest_truncated = false;  // a torn journal tail was cut off
  };

  // Opens (creating if necessary) the store at `dir`, running recovery.
  // Throws storage::StorageError if the manifest is damaged beyond the torn
  // tail that recovery can repair (e.g. a corrupted header) — losing the
  // journal means losing the sticky-key lineage, which must never happen
  // silently.
  EpochStore(storage::Vfs& vfs, std::string dir);

  const RecoveryReport& recovery_report() const noexcept { return report_; }
  const std::string& dir() const noexcept { return dir_; }

  // --- sticky state -------------------------------------------------------
  bool has_sticky_state() const noexcept { return sticky_.has_value(); }
  const StickyState& sticky_state() const;  // requires has_sticky_state()
  // Durably records the sticky state. Idempotent for an equal state; throws
  // ConfigError if a different state is already recorded (replacing sticky
  // keys mid-lineage is a privacy violation, not a configuration change).
  void record_sticky_state(const StickyState& state);

  // --- epoch lineage ------------------------------------------------------
  const std::vector<EpochRecord>& lineage() const noexcept { return epochs_; }
  // λ per committed epoch, oldest first.
  std::vector<double> lambda_history() const;
  // Newest epoch whose index file is intact; nullopt for an empty store.
  std::optional<std::uint64_t> latest_epoch() const;

  // Loads a committed epoch in the compressed serving form, re-validating
  // its checksums and replaying any delta chain entirely in posting space —
  // the dense matrix is never materialized. The lexicon is whatever the
  // backing full-epoch file carries (null for v1/v2 files). Throws
  // ConfigError for an unknown epoch, CorruptIndexError if the file rotted
  // since recovery, storage::StorageError if it is missing.
  LoadedIndex load_epoch_postings(std::uint64_t epoch) const;

  // Construction-tier convenience: load_epoch_postings + to_matrix_index.
  PpiIndex load_epoch(std::uint64_t epoch) const;

  // Atomically commits the next epoch (must be greater than every committed
  // epoch) as an eppi-index-v3 file, carrying `lexicon` when non-null so a
  // recovered store can republish name lookups. On return the index and its
  // journal record are durable.
  void commit_epoch(std::uint64_t epoch, const PostingIndex& index,
                    double lambda, const Lexicon* lexicon = nullptr);
  // Dense-index convenience (compresses, then commits as v3).
  void commit_epoch(std::uint64_t epoch, const PpiIndex& index,
                    double lambda);

  // Commits an incremental epoch as a journal record only — no index file is
  // written, which is what makes delta commits cheap. Requires a committed
  // lineage whose head is `delta.base_epoch` and is itself loadable (a delta
  // over a quarantined epoch would be born orphaned). Throws ConfigError if
  // the encoded record would exceed the journal's record-size bound — the
  // caller should fall back to a full commit_epoch (delta_overflows() tells
  // it in advance).
  void commit_delta(const EpochDelta& delta);
  // Whether commit_delta(delta) would be refused for size.
  static bool delta_overflows(const EpochDelta& delta);
  // The retained delta record for a delta epoch (ConfigError otherwise).
  const EpochDelta& delta_record(std::uint64_t epoch) const;
  // Number of delta records since (and not counting) the newest full epoch.
  std::size_t deltas_since_full() const;

 private:
  std::string path_of(const std::string& name) const;
  void quarantine(const std::string& name, const std::string& why);
  void append_record(std::span<const std::uint8_t> payload);
  void recover();

  storage::Vfs& vfs_;
  std::string dir_;
  RecoveryReport report_;
  std::optional<StickyState> sticky_;
  std::vector<EpochRecord> epochs_;
  std::map<std::uint64_t, EpochDelta> deltas_;  // delta epochs by id
  // Journal length up to the last record known durable; a failed append is
  // rolled back to this boundary so a retry never lands after torn bytes.
  std::size_t journal_len_ = 0;
  // Set when rolling back a failed append itself failed: the journal tail
  // may hold garbage, so further appends are refused until the store is
  // reopened (recovery truncates the tail).
  bool journal_dirty_ = false;
};

// CRC32C fingerprint of the published matrix — u64 LE rows and cols, then
// every row's packed u64 LE words — that a legacy type-3 delta record pins
// its replayed result to. Computed from the compressed serving form: the
// postings are transposed back to per-provider rows and streamed through
// the CRC one provider at a time, never holding the m×n matrix. This is
// what lets recovery verify legacy delta chains in posting space.
std::uint32_t matrix_checksum(const PostingIndex& postings);

// Column-major fingerprint of the published postings (shape + per-identity
// count and sorted provider ids) — what a type-4 delta record pins its
// replay to. Both overloads produce the same value for the same content.
std::uint32_t postings_checksum(const eppi::BitMatrix& matrix);
std::uint32_t postings_checksum(const PostingIndex& postings);

// Applies one delta to its base epoch in posting space: the spliced
// columns take their FINAL values, and when the delta retires or re-rows a
// provider every other row drops it and grafts the spliced rows back in.
// Only those rows are re-encoded (PostingIndex's splice constructor), so a
// column-only delta shares or copies the rest of the base. Recovery and
// load_epoch_postings replay with this, with no dense intermediate; the
// differential suite pins it bit-identical to a dense splice of the same
// delta (tests/fixtures/publication.h).
PostingIndex apply_delta_postings(const PostingIndex& base,
                                  const EpochStore::EpochDelta& delta);

// --- fsck ------------------------------------------------------------------
// Offline validation with section-level reporting, used by `eppi_cli fsck`
// and CI. Unlike recovery, fsck never modifies anything: a crashed store
// that recovery *would* repair is reported as unclean.

struct FsckIssue {
  std::string file;     // file the issue is in
  std::string section;  // index section / "manifest" / "store"
  std::string message;
};

struct FsckReport {
  bool ok = true;
  std::vector<FsckIssue> issues;
  std::vector<std::string> notes;  // non-fatal observations
  std::size_t files_checked = 0;
};

// Validates a single index file (any format version).
FsckReport fsck_index_file(storage::Vfs& vfs, const std::string& path);

// Validates a whole store directory: manifest framing, sticky record
// presence, every referenced index file's checksums, and orphan detection.
FsckReport fsck_store(storage::Vfs& vfs, const std::string& dir);

}  // namespace eppi::core
