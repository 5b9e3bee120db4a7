// Delta-record durability: the MANIFEST journal is the only artifact of an
// incremental epoch, so every byte of it is a potential crash boundary. The
// suite drives a base + two deltas workload (the second one with membership
// churn and a grown shape), then proves:
//
//   * replayed loads are byte-identical to what was committed;
//   * truncating the journal at EVERY byte recovers to base or base+k intact
//     deltas — never a half-applied delta;
//   * killing the process at every storage operation leaves a store that
//     recovers, fscks clean, and resumes into a byte-identical rebuild;
//   * a delta whose base epoch file rots is quarantined (not served), and
//     the journaled membership (joined/left) survives a restart;
//   * a legacy type-3 journal over a v2 epoch file (golden bytes) still
//     recovers, replays and fscks, and quarantines a checksum mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/crc32c.h"
#include "core/epoch_manager.h"
#include "core/epoch_store.h"
#include "core/index_io.h"
#include "fixtures/legacy_formats.h"
#include "storage/faulty_vfs.h"
#include "storage/mem_vfs.h"

namespace eppi::core {
namespace {

using eppi::storage::FaultyVfs;
using eppi::storage::MemVfs;
using eppi::storage::SimulatedStorageCrash;
using eppi::storage::StorageFaultScenario;

constexpr char kDir[] = "store";
constexpr char kManifest[] = "store/MANIFEST";
constexpr std::uint64_t kMasterKey = 77;

eppi::BitMatrix truth_epoch1() {
  eppi::BitMatrix truth(4, 12);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if ((i * 7 + j * 3) % 5 == 0) truth.set(i, j, true);
    }
  }
  for (std::size_t i = 0; i < 4; ++i) truth.set(i, 0, true);  // a common id
  return truth;
}

eppi::BitMatrix truth_epoch2() {
  eppi::BitMatrix truth = truth_epoch1();
  truth.set(1, 5, true);  // only columns 5 and 7 change
  truth.set(2, 7, true);
  return truth;
}

// Provider 3 leaves (its row is withdrawn), provider 4 joins: the shape
// grows to 5x12 and the dirty set covers every identity either row held.
eppi::BitMatrix truth_epoch3() {
  const eppi::BitMatrix prev = truth_epoch2();
  eppi::BitMatrix truth(5, 12);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if (prev.get(i, j)) truth.set(i, j, true);
    }
  }
  truth.set(4, 1, true);
  truth.set(4, 6, true);
  return truth;
}

EpochManager::DeltaRequest request_epoch2() {
  EpochManager::DeltaRequest req;
  req.dirty = {5, 7};
  return req;
}

EpochManager::DeltaRequest request_epoch3() {
  EpochManager::DeltaRequest req;
  req.dirty = {0, 1, 3, 6, 8};  // former row-3 bits plus the joiner's bits
  req.joined = {4};
  req.left = {3};
  return req;
}

EpochManager::Options manager_options() {
  EpochManager::Options options;
  options.master_key = kMasterKey;
  return options;
}

void run_workload(eppi::storage::Vfs& vfs) {
  EpochStore store(vfs, kDir);
  EpochManager manager(manager_options());
  manager.attach_store(store);
  const std::vector<double> epsilons(12, 0.5);
  manager.rebuild(truth_epoch1(), epsilons);
  manager.rebuild_delta(truth_epoch2(), epsilons, request_epoch2());
  manager.rebuild_delta(truth_epoch3(), epsilons, request_epoch3());
}

// The three committed matrices of an uninterrupted run, by epoch id.
std::vector<eppi::BitMatrix> reference_epochs() {
  MemVfs vfs;
  run_workload(vfs);
  EpochStore store(vfs, kDir);
  std::vector<eppi::BitMatrix> matrices;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    matrices.push_back(store.load_epoch(e).matrix());
  }
  return matrices;
}

TEST(DeltaStoreTest, IncrementalEpochsAreJournaledAsDeltas) {
  MemVfs vfs;
  run_workload(vfs);
  EpochStore store(vfs, kDir);
  ASSERT_EQ(store.lineage().size(), 3u);
  EXPECT_FALSE(store.lineage()[0].is_delta);
  EXPECT_TRUE(store.lineage()[1].is_delta);   // the delta path engaged,
  EXPECT_TRUE(store.lineage()[2].is_delta);   // not a silent full fallback
  EXPECT_EQ(store.deltas_since_full(), 2u);
  // Only ONE index file exists: deltas live in the journal alone.
  std::size_t idx_files = 0;
  for (const auto& name : vfs.list_dir(kDir)) {
    if (name.ends_with(".idx")) ++idx_files;
  }
  EXPECT_EQ(idx_files, 1u);
  // The delta record carries the membership change durably.
  const EpochStore::EpochDelta& rec = store.delta_record(3);
  EXPECT_EQ(rec.joined, std::vector<std::uint32_t>{4});
  EXPECT_EQ(rec.left, std::vector<std::uint32_t>{3});
}

TEST(DeltaStoreTest, ReplayedLoadsMatchAcrossReopen) {
  const auto reference = reference_epochs();
  MemVfs vfs;
  run_workload(vfs);
  // A second open replays base+deltas from scratch; every epoch must load
  // byte-identically, including the intermediate delta epoch.
  EpochStore store(vfs, kDir);
  for (std::uint64_t e = 1; e <= 3; ++e) {
    EXPECT_EQ(store.load_epoch(e).matrix(), reference[e - 1])
        << "epoch " << e;
  }
}

TEST(DeltaStoreTest, TruncationAtEveryByteRecoversToWholeEpochs) {
  const auto reference = reference_epochs();
  MemVfs base_vfs;
  run_workload(base_vfs);
  const auto manifest = base_vfs.read_file(kManifest);
  ASSERT_GT(manifest.size(), 64u);

  for (std::size_t len = 0; len <= manifest.size(); ++len) {
    SCOPED_TRACE("manifest truncated to " + std::to_string(len) + " of " +
                 std::to_string(manifest.size()) + " bytes");
    MemVfs vfs;
    run_workload(vfs);
    std::vector<std::uint8_t> prefix(manifest.begin(),
                                     manifest.begin() + len);
    vfs.write_file(kManifest, prefix);

    // Recovery must open the store (or reject an unusable journal head —
    // never crash or serve garbage).
    try {
      EpochStore store(vfs, kDir);
      // Whatever survived must be WHOLE epochs: each intact record loads to
      // exactly the matrix committed for that epoch id — a half-applied
      // delta would produce bytes matching none of them.
      for (const auto& rec : store.lineage()) {
        if (!rec.file_intact) continue;
        ASSERT_GE(rec.epoch, 1u);
        ASSERT_LE(rec.epoch, 3u);
        EXPECT_EQ(store.load_epoch(rec.epoch).matrix(),
                  reference[rec.epoch - 1]);
      }
      // And the repaired store passes fsck.
      EXPECT_TRUE(fsck_store(vfs, kDir).ok);
    } catch (const eppi::storage::StorageError&) {
      // A truncation inside the magic header is damage recovery refuses to
      // repair silently (losing the journal loses the sticky lineage).
      EXPECT_LT(len, 16u);
    }
  }
}

TEST(DeltaStoreTest, CrashAtEveryOperationBoundary) {
  const auto reference = reference_epochs();
  MemVfs count_vfs;
  FaultyVfs counting(count_vfs);
  run_workload(counting);
  const std::uint64_t total = counting.ops();
  ASSERT_GE(total, 15u);

  const std::vector<double> epsilons(12, 0.5);
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k));
    MemVfs vfs;
    FaultyVfs faulty(vfs, StorageFaultScenario::crash_at(k));
    EXPECT_THROW(run_workload(faulty), SimulatedStorageCrash);
    vfs.crash();  // drop un-fsynced state

    EpochStore store(vfs, kDir);
    EXPECT_TRUE(fsck_store(vfs, kDir).ok);
    for (const auto& rec : store.lineage()) {
      if (rec.file_intact) {
        EXPECT_EQ(store.load_epoch(rec.epoch).matrix(),
                  reference[rec.epoch - 1]);
      }
    }

    // Resume: the first rebuild after a restart runs full (no in-memory
    // base), and must land on the exact bytes of the uninterrupted delta
    // run — sticky noise, mixing, and the journaled membership all
    // survived the crash.
    EpochManager manager(manager_options());
    manager.attach_store(store);
    const auto rebuilt =
        manager.rebuild_delta(truth_epoch3(), epsilons, request_epoch3());
    EXPECT_EQ(rebuilt.postings->to_matrix_index().matrix(), reference[2]);
  }
}

TEST(DeltaStoreTest, OrphanedDeltaIsQuarantinedNotServed) {
  MemVfs vfs;
  {
    EpochStore store(vfs, kDir);
    EpochManager manager(manager_options());
    manager.attach_store(store);
    const std::vector<double> epsilons(12, 0.5);
    manager.rebuild(truth_epoch1(), epsilons);
    manager.rebuild_delta(truth_epoch2(), epsilons, request_epoch2());
  }
  // Rot the base epoch's index file in place: epoch 1 gets quarantined, so
  // the delta at epoch 2 has no base to replay from.
  auto idx = vfs.read_file(std::string(kDir) + "/epoch-1.idx");
  idx[idx.size() / 2] ^= 0xFF;
  vfs.write_file(std::string(kDir) + "/epoch-1.idx", idx);

  EpochStore store(vfs, kDir);
  EXPECT_GE(store.recovery_report().quarantined, 2u);  // file + orphan delta
  EXPECT_FALSE(store.latest_epoch().has_value());
  EXPECT_THROW((void)store.load_epoch(2), eppi::ConfigError);
  // The orphaned record payload is preserved for post-mortems.
  bool kept = false;
  for (const auto& name : vfs.list_dir(std::string(kDir) + "/quarantine")) {
    if (name == "delta-2.rec") kept = true;
  }
  EXPECT_TRUE(kept);
  // The damaged store recovers into a usable one: epoch ids are not reused
  // and a fresh rebuild commits fine.
  EpochManager manager(manager_options());
  manager.attach_store(store);
  const std::vector<double> epsilons(12, 0.5);
  const auto rebuilt = manager.rebuild(truth_epoch2(), epsilons);
  EXPECT_EQ(rebuilt.epoch, 3u);
  EXPECT_TRUE(fsck_store(vfs, kDir).ok);
}

TEST(DeltaStoreTest, JournaledMembershipSurvivesRestart) {
  MemVfs vfs;
  run_workload(vfs);
  EpochStore store(vfs, kDir);
  EpochManager manager(manager_options());
  manager.attach_store(store);
  // Provider 3 retired at epoch 3; the restarted manager must know that
  // from the journal alone, or the next FULL rebuild would publish noise
  // in a retired row.
  EXPECT_EQ(manager.retired_count(), 1u);
  const std::vector<double> epsilons(12, 0.5);
  const auto rebuilt = manager.rebuild(truth_epoch3(), epsilons);
  const eppi::BitMatrix published =
      rebuilt.postings->to_matrix_index().matrix();
  for (std::size_t j = 0; j < 12; ++j) {
    EXPECT_FALSE(published.get(3, j)) << "col " << j;
  }
}

bool has_note(const std::vector<std::string>& notes, const std::string& note) {
  return std::find(notes.begin(), notes.end(), note) != notes.end();
}

// Nothing writes type-3 delta records or v2 epoch files any more, so this
// store is golden bytes: sticky + epoch-1 (v2 file) + a type-3 delta that
// grows the shape, retires provider 5, joins provider 6 and splices columns.
TEST(DeltaStoreTest, LegacyType3StoreRecoversAndFscks) {
  MemVfs vfs;
  fixtures::seed_type3_store(vfs, kDir);
  const FsckReport report = fsck_store(vfs, kDir);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(has_note(report.notes, "epoch-1.idx: v2 ok"));
  EXPECT_TRUE(has_note(report.notes, "delta 2: replay ok"));

  EpochStore store(vfs, kDir);
  EXPECT_EQ(store.recovery_report().quarantined, 0u);
  ASSERT_EQ(store.latest_epoch(), 2u);
  EXPECT_EQ(store.sticky_state().master_key, 0x5eedu);
  EXPECT_EQ(store.lambda_history(), (std::vector<double>{0.125, 0.25}));
  EXPECT_EQ(store.load_epoch(1).matrix(), fixtures::golden_matrix());
  EXPECT_EQ(store.load_epoch_postings(2).postings.to_matrix_index().matrix(),
            fixtures::golden_next_matrix());
}

// One flipped byte of the type-3 record's pinned matrix checksum, with the
// journal frame re-sealed so the record still reads whole: replay misses the
// checksum, so the delta is quarantined and its payload dumped verbatim.
TEST(DeltaStoreTest, LegacyType3ChecksumMismatchIsQuarantined) {
  MemVfs vfs;
  fixtures::seed_type3_store(vfs, kDir);
  auto manifest = vfs.read_file(kManifest);
  const auto u32_at = [&manifest](std::size_t at) {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<std::uint32_t>(manifest[at + b]) << (8 * b);
    }
    return v;
  };
  // Frames are [u32 len][u32 masked crc][payload]; the delta is the last.
  std::size_t frame = 8;  // past the manifest magic
  while (frame + 8 + u32_at(frame) < manifest.size()) {
    frame += 8 + u32_at(frame);
  }
  const std::size_t payload_at = frame + 8;
  const std::size_t len = u32_at(frame);
  ASSERT_EQ(payload_at + len, manifest.size());
  ASSERT_EQ(manifest[payload_at], 3);  // record type 3
  manifest[payload_at + 1 + 5 * 8] ^= 0x01;  // after type + 5 u64 fields
  const std::uint32_t seal = crc32c_mask(
      crc32c(std::span(manifest).subspan(payload_at, len)));
  for (int b = 0; b < 4; ++b) {
    manifest[frame + 4 + b] = static_cast<std::uint8_t>(seal >> (8 * b));
  }
  eppi::storage::atomic_write_file(vfs, kManifest, manifest);

  EXPECT_FALSE(fsck_store(vfs, kDir).ok);
  EpochStore store(vfs, kDir);
  EXPECT_EQ(store.recovery_report().quarantined, 1u);
  EXPECT_FALSE(store.recovery_report().manifest_truncated);
  EXPECT_EQ(store.latest_epoch(), 1u);
  EXPECT_EQ(store.load_epoch(1).matrix(), fixtures::golden_matrix());
  EXPECT_EQ(vfs.read_file(std::string(kDir) + "/quarantine/delta-2.rec"),
            std::vector<std::uint8_t>(manifest.begin() + payload_at,
                                      manifest.end()));
}

}  // namespace
}  // namespace eppi::core
