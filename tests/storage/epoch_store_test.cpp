// EpochStore behavior over the MemVfs crash model: commit/load/lineage,
// sticky-state durability, torn-journal repair, corruption quarantine, and
// the fsck report both before and after recovery.
#include "core/epoch_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/index_io.h"
#include "fixtures/legacy_formats.h"
#include "storage/mem_vfs.h"

namespace eppi::core {
namespace {

using eppi::storage::MemVfs;
using eppi::storage::StorageError;

PpiIndex sample_index(std::size_t m, std::size_t n, std::uint64_t seed) {
  eppi::Rng rng(seed);
  eppi::BitMatrix matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.35)) matrix.set(i, j, true);
    }
  }
  return PpiIndex(std::move(matrix));
}

constexpr char kDir[] = "store";

TEST(EpochStoreTest, FreshStoreIsEmptyAndClean) {
  MemVfs vfs;
  EpochStore store(vfs, kDir);
  EXPECT_FALSE(store.has_sticky_state());
  EXPECT_FALSE(store.latest_epoch().has_value());
  EXPECT_TRUE(store.lineage().empty());
  EXPECT_EQ(store.recovery_report().quarantined, 0u);

  const FsckReport fsck = fsck_store(vfs, kDir);
  EXPECT_TRUE(fsck.ok) << (fsck.issues.empty() ? ""
                                               : fsck.issues[0].message);
}

TEST(EpochStoreTest, StickyStateSurvivesReopen) {
  MemVfs vfs;
  {
    EpochStore store(vfs, kDir);
    store.record_sticky_state({0xFEEDFACE, true});
  }
  vfs.crash();  // the record must already be durable
  EpochStore reopened(vfs, kDir);
  ASSERT_TRUE(reopened.has_sticky_state());
  EXPECT_EQ(reopened.sticky_state().master_key, 0xFEEDFACEu);
  EXPECT_TRUE(reopened.sticky_state().enable_mixing);
}

TEST(EpochStoreTest, StickyStateFirstRecordWinsForever) {
  MemVfs vfs;
  EpochStore store(vfs, kDir);
  store.record_sticky_state({7, true});
  store.record_sticky_state({7, true});  // idempotent for an equal state
  EXPECT_THROW(store.record_sticky_state({8, true}), eppi::ConfigError);
  EXPECT_THROW(store.record_sticky_state({7, false}), eppi::ConfigError);
  EXPECT_EQ(store.sticky_state().master_key, 7u);
}

TEST(EpochStoreTest, CommitLoadAndLineage) {
  MemVfs vfs;
  EpochStore store(vfs, kDir);
  store.record_sticky_state({1, true});
  const PpiIndex e1 = sample_index(4, 20, 1);
  const PpiIndex e2 = sample_index(4, 20, 2);
  store.commit_epoch(1, e1, 0.25);
  store.commit_epoch(2, e2, 0.5);

  EXPECT_EQ(store.latest_epoch(), std::uint64_t{2});
  EXPECT_EQ(store.lambda_history(), (std::vector<double>{0.25, 0.5}));
  EXPECT_EQ(store.load_epoch(1).matrix(), e1.matrix());
  EXPECT_EQ(store.load_epoch(2).matrix(), e2.matrix());

  // Epochs must advance; reusing or rolling back an id would fork lineage.
  EXPECT_THROW(store.commit_epoch(2, e2, 0.5), eppi::ConfigError);
  EXPECT_THROW(store.load_epoch(9), eppi::ConfigError);
}

TEST(EpochStoreTest, CommittedEpochsSurvivePowerLoss) {
  MemVfs vfs;
  {
    EpochStore store(vfs, kDir);
    store.record_sticky_state({1, true});
    store.commit_epoch(1, sample_index(4, 20, 1), 0.1);
    store.commit_epoch(2, sample_index(4, 20, 2), 0.2);
  }
  vfs.crash();
  EpochStore reopened(vfs, kDir);
  EXPECT_EQ(reopened.latest_epoch(), std::uint64_t{2});
  EXPECT_EQ(reopened.load_epoch(2).matrix(), sample_index(4, 20, 2).matrix());
  EXPECT_TRUE(fsck_store(vfs, kDir).ok);
}

TEST(EpochStoreTest, BitRotIsQuarantinedAndServingFallsBack) {
  MemVfs vfs;
  {
    EpochStore store(vfs, kDir);
    store.record_sticky_state({1, true});
    store.commit_epoch(1, sample_index(4, 20, 1), 0.1);
    store.commit_epoch(2, sample_index(4, 20, 2), 0.2);
  }
  // Rot a payload byte of the newest epoch file.
  auto bytes = vfs.read_file("store/epoch-2.idx");
  bytes[30] ^= 0x40;
  vfs.write_file("store/epoch-2.idx", bytes);
  vfs.fsync_file("store/epoch-2.idx");

  // fsck (read-only) reports the damage...
  const FsckReport before = fsck_store(vfs, kDir);
  EXPECT_FALSE(before.ok);
  ASSERT_FALSE(before.issues.empty());
  EXPECT_EQ(before.issues[0].file, "epoch-2.idx");

  // ...recovery quarantines it and falls back to the previous epoch...
  EpochStore reopened(vfs, kDir);
  EXPECT_EQ(reopened.recovery_report().quarantined, 1u);
  EXPECT_EQ(reopened.latest_epoch(), std::uint64_t{1});
  EXPECT_TRUE(vfs.exists("store/quarantine/epoch-2.idx"));
  EXPECT_FALSE(vfs.exists("store/epoch-2.idx"));

  // ...after which the store is clean again and the lineage still advances.
  EXPECT_TRUE(fsck_store(vfs, kDir).ok);
  reopened.commit_epoch(3, sample_index(4, 20, 3), 0.3);
  EXPECT_EQ(reopened.latest_epoch(), std::uint64_t{3});
}

TEST(EpochStoreTest, OrphanFilesAreQuarantinedNotDeleted) {
  MemVfs vfs;
  {
    EpochStore store(vfs, kDir);
    store.record_sticky_state({1, true});
    store.commit_epoch(1, sample_index(3, 10, 1), 0.1);
  }
  // Crash artifacts: a tmp that never got renamed, an index whose journal
  // record never landed.
  const std::vector<std::uint8_t> junk{1, 2, 3};
  vfs.write_file("store/epoch-9.idx.tmp", junk);
  vfs.fsync_file("store/epoch-9.idx.tmp");
  const auto orphan =
      save_index_v3_bytes(PostingIndex(sample_index(3, 10, 9)), nullptr);
  vfs.write_file("store/epoch-9.idx", orphan);
  vfs.fsync_file("store/epoch-9.idx");
  vfs.fsync_dir("store");

  EXPECT_FALSE(fsck_store(vfs, kDir).ok);  // unclean until recovery runs

  EpochStore reopened(vfs, kDir);
  EXPECT_EQ(reopened.recovery_report().quarantined, 2u);
  EXPECT_TRUE(vfs.exists("store/quarantine/epoch-9.idx"));
  EXPECT_TRUE(vfs.exists("store/quarantine/epoch-9.idx.tmp"));
  EXPECT_EQ(reopened.latest_epoch(), std::uint64_t{1});
  EXPECT_TRUE(fsck_store(vfs, kDir).ok);
}

TEST(EpochStoreTest, TornJournalTailIsTruncatedRecordsKept) {
  MemVfs vfs;
  {
    EpochStore store(vfs, kDir);
    store.record_sticky_state({1, true});
    store.commit_epoch(1, sample_index(3, 10, 1), 0.1);
  }
  // A torn append: garbage after the last valid record.
  const std::vector<std::uint8_t> garbage{0x55, 0x66, 0x77};
  vfs.append_file("store/MANIFEST", garbage);
  vfs.fsync_file("store/MANIFEST");

  const FsckReport before = fsck_store(vfs, kDir);
  EXPECT_FALSE(before.ok);  // fsck reports, never repairs

  EpochStore reopened(vfs, kDir);
  EXPECT_TRUE(reopened.recovery_report().manifest_truncated);
  ASSERT_TRUE(reopened.has_sticky_state());
  EXPECT_EQ(reopened.latest_epoch(), std::uint64_t{1});
  EXPECT_TRUE(fsck_store(vfs, kDir).ok);

  // The truncated journal accepts new records cleanly.
  reopened.commit_epoch(2, sample_index(3, 10, 2), 0.2);
  vfs.crash();
  EpochStore again(vfs, kDir);
  EXPECT_EQ(again.latest_epoch(), std::uint64_t{2});
}

// Models an in-process partial append (ENOSPC mid-write / fsync failure):
// the armed append persists only a prefix of the data, then throws
// StorageError — the process survives and may retry, unlike FaultyVfs's
// torn writes, which always end in a simulated crash.
class PartialAppendVfs final : public storage::Vfs {
 public:
  explicit PartialAppendVfs(storage::Vfs& inner) : inner_(inner) {}

  // The next append persists `keep_bytes` bytes, then fails.
  void arm(std::size_t keep_bytes) {
    armed_ = true;
    keep_ = keep_bytes;
  }
  // The next write to the manifest (or its .tmp) fails outright — used to
  // make the store's own rollback rewrite fail.
  void fail_next_manifest_write() { fail_manifest_write_ = true; }

  bool exists(const std::string& path) const override {
    return inner_.exists(path);
  }
  std::vector<std::uint8_t> read_file(const std::string& path) const override {
    return inner_.read_file(path);
  }
  std::vector<std::string> list_dir(const std::string& dir) const override {
    return inner_.list_dir(dir);
  }
  void make_dir(const std::string& dir) override { inner_.make_dir(dir); }
  void write_file(const std::string& path,
                  std::span<const std::uint8_t> data) override {
    if (fail_manifest_write_ &&
        path.find("MANIFEST") != std::string::npos) {
      fail_manifest_write_ = false;
      throw StorageError("injected: manifest rewrite failure");
    }
    inner_.write_file(path, data);
  }
  void append_file(const std::string& path,
                   std::span<const std::uint8_t> data) override {
    if (armed_) {
      armed_ = false;
      inner_.append_file(path, data.subspan(0, std::min(keep_, data.size())));
      throw StorageError("injected: device full mid-append");
    }
    inner_.append_file(path, data);
  }
  void fsync_file(const std::string& path) override {
    inner_.fsync_file(path);
  }
  void fsync_dir(const std::string& dir) override { inner_.fsync_dir(dir); }
  void rename_file(const std::string& from, const std::string& to) override {
    inner_.rename_file(from, to);
  }
  void remove_file(const std::string& path) override {
    inner_.remove_file(path);
  }

 private:
  storage::Vfs& inner_;
  bool armed_ = false;
  std::size_t keep_ = 0;
  bool fail_manifest_write_ = false;
};

TEST(EpochStoreTest, PartialAppendIsRolledBackSoRetryCommitsDurably) {
  MemVfs disk;
  PartialAppendVfs vfs(disk);
  EpochStore store(vfs, kDir);
  store.record_sticky_state({1, true});
  store.commit_epoch(1, sample_index(3, 10, 1), 0.1);

  // The commit record for epoch 2 lands only partially before the append
  // fails; the store must cut the journal back to the last good boundary.
  vfs.arm(5);
  EXPECT_THROW(store.commit_epoch(2, sample_index(3, 10, 2), 0.2),
               StorageError);
  EXPECT_EQ(store.latest_epoch(), std::uint64_t{1});

  // The retry must land on a clean record boundary, not after garbage.
  store.commit_epoch(2, sample_index(3, 10, 2), 0.2);
  EXPECT_EQ(store.latest_epoch(), std::uint64_t{2});
  EXPECT_TRUE(fsck_store(vfs, kDir).ok);

  // The regression this pins: with torn bytes left in place, recovery
  // truncated the journal at the garbage and the retried "committed"
  // epoch 2 silently vanished across a restart.
  disk.crash();
  EpochStore reopened(disk, kDir);
  EXPECT_FALSE(reopened.recovery_report().manifest_truncated);
  EXPECT_EQ(reopened.latest_epoch(), std::uint64_t{2});
  EXPECT_EQ(reopened.load_epoch(2).matrix(), sample_index(3, 10, 2).matrix());
}

TEST(EpochStoreTest, UnrepairableTornTailRefusesAppendsUntilReopened) {
  MemVfs disk;
  PartialAppendVfs vfs(disk);
  EpochStore store(vfs, kDir);
  store.record_sticky_state({1, true});
  store.commit_epoch(1, sample_index(3, 10, 1), 0.1);

  // Both the append and the rollback rewrite fail: the journal tail may
  // hold garbage the store could not remove.
  vfs.arm(5);
  vfs.fail_next_manifest_write();
  EXPECT_THROW(store.commit_epoch(2, sample_index(3, 10, 2), 0.2),
               StorageError);

  // Appending after unremoved garbage would corrupt the next record, so
  // the store refuses until recovery has truncated the tail.
  EXPECT_THROW(store.commit_epoch(2, sample_index(3, 10, 2), 0.2),
               StorageError);

  EpochStore reopened(vfs, kDir);
  EXPECT_TRUE(reopened.recovery_report().manifest_truncated);
  EXPECT_EQ(reopened.latest_epoch(), std::uint64_t{1});
  reopened.commit_epoch(2, sample_index(3, 10, 2), 0.2);
  EXPECT_EQ(reopened.latest_epoch(), std::uint64_t{2});
  EXPECT_TRUE(fsck_store(vfs, kDir).ok);
}

TEST(EpochStoreTest, DamagedManifestHeaderRefusesToOpen) {
  MemVfs vfs;
  {
    EpochStore store(vfs, kDir);
    store.record_sticky_state({1, true});
  }
  auto bytes = vfs.read_file("store/MANIFEST");
  bytes[3] ^= 0xFF;  // corrupt the magic itself
  vfs.write_file("store/MANIFEST", bytes);
  vfs.fsync_file("store/MANIFEST");

  // Losing the journal header means losing the sticky lineage; opening
  // silently (and re-rolling keys) would be a privacy bug, so this throws.
  EXPECT_THROW(EpochStore(vfs, kDir), StorageError);
  EXPECT_FALSE(fsck_store(vfs, kDir).ok);
}

TEST(EpochStoreTest, FsckSingleIndexFile) {
  MemVfs vfs;
  vfs.make_dir("d");
  const auto good = fixtures::bytes_of(fixtures::kV2Index);
  vfs.write_file("d/good.idx", good);
  vfs.fsync_file("d/good.idx");
  EXPECT_TRUE(fsck_index_file(vfs, "d/good.idx").ok);

  auto bad = good;
  bad[32] ^= 0x04;
  vfs.write_file("d/bad.idx", bad);
  vfs.fsync_file("d/bad.idx");
  const FsckReport report = fsck_index_file(vfs, "d/bad.idx");
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.issues.empty());
  EXPECT_EQ(report.issues[0].section, std::string("payload"));

  EXPECT_FALSE(fsck_index_file(vfs, "d/missing.idx").ok);
}

TEST(EpochStoreTest, EpochsWithoutStickyRecordFailFsck) {
  // A journal that commits epochs but never recorded the sticky state could
  // not reproduce its own noise after a restart — fsck flags it.
  MemVfs vfs;
  {
    EpochStore store(vfs, kDir);
    store.commit_epoch(1, sample_index(3, 10, 1), 0.1);
  }
  const FsckReport report = fsck_store(vfs, kDir);
  EXPECT_FALSE(report.ok);
}

}  // namespace
}  // namespace eppi::core
