// Kill-at-every-boundary recovery matrix for the durable epoch store — the
// storage mirror of the network dropout matrix (tests/integration/
// fault_matrix_test.cpp). The workload opens a store, attaches an
// EpochManager, and commits two epochs. A fault-free run sizes the matrix;
// then, for every mutating storage operation k, the workload is re-run with
// a crash (or torn write, or transient fsync failure) injected at op k, the
// power is cut, and the invariants are checked:
//
//   * reopening the store always succeeds (recovery repairs or quarantines);
//   * fsck passes after recovery — no silent corruption survives;
//   * a post-recovery rebuild produces a byte-identical index, because the
//     sticky state (noise keys, mixing PRF) either was recorded durably or
//     the configured state is re-recorded — randomness never silently
//     re-rolls into a *different* lineage.
#include <gtest/gtest.h>

#include <vector>

#include "common/bit_matrix.h"
#include "core/epoch_manager.h"
#include "core/epoch_store.h"
#include "core/index_io.h"
#include "storage/faulty_vfs.h"
#include "storage/mem_vfs.h"
#include "fixtures/publication.h"

namespace eppi::core {
namespace {

using eppi::storage::FaultyVfs;
using eppi::storage::MemVfs;
using eppi::storage::SimulatedStorageCrash;
using eppi::storage::StorageError;
using eppi::storage::StorageFaultScenario;

constexpr char kDir[] = "store";
constexpr std::uint64_t kMasterKey = 42;

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
  truth.set(1, 5, true);  // the network changed between epochs
  truth.set(2, 7, true);
  return truth;
}

EpochManager::Options manager_options() {
  EpochManager::Options options;
  options.master_key = kMasterKey;
  return options;
}

// The workload under test: open (recover), resume, commit two epochs.
void run_workload(eppi::storage::Vfs& vfs) {
  EpochStore store(vfs, kDir);
  EpochManager manager(manager_options());
  manager.attach_store(store);
  const std::vector<double> epsilons(12, 0.5);
  manager.rebuild(truth_epoch1(), epsilons);
  manager.rebuild(truth_epoch2(), epsilons);
}

// Reference: the final epoch-2 matrix of an uninterrupted run.
eppi::BitMatrix reference_matrix() {
  MemVfs vfs;
  run_workload(vfs);
  EpochStore store(vfs, kDir);
  return store.load_epoch(*store.latest_epoch()).matrix();
}

// After any injected fault: power-cycle, recover, and prove the store is
// valid and the sticky decisions are unchanged.
void check_recovery(MemVfs& vfs, const eppi::BitMatrix& reference) {
  vfs.crash();

  // Recovery must always produce an openable store...
  EpochStore store(vfs, kDir);
  // ...that fsck then finds clean (quarantine repaired any damage).
  const FsckReport fsck = fsck_store(vfs, kDir);
  EXPECT_TRUE(fsck.ok) << (fsck.issues.empty()
                               ? "no issue recorded"
                               : fsck.issues[0].file + " [" +
                                     fsck.issues[0].section +
                                     "]: " + fsck.issues[0].message);

  // Every epoch file the recovered store still references must load.
  for (const auto& record : store.lineage()) {
    if (record.file_intact) {
      EXPECT_NO_THROW((void)store.load_epoch(record.epoch));
    }
  }

  // Resume with the SAME configured options (a restart reads its config
  // file again) and rebuild the current network state: the result must be
  // byte-identical to the uninterrupted run — sticky noise and mixing
  // decisions survived the crash no matter where it hit.
  EpochManager manager(manager_options());
  manager.attach_store(store);
  const std::vector<double> epsilons(12, 0.5);
  const auto rebuilt = manager.rebuild(truth_epoch2(), epsilons);
  EXPECT_EQ(fixtures::dense(*rebuilt.postings), reference);

  // And what was just committed is durable: power-cycle once more.
  vfs.crash();
  EpochStore after(vfs, kDir);
  ASSERT_TRUE(after.latest_epoch().has_value());
  EXPECT_EQ(after.load_epoch(*after.latest_epoch()).matrix(),
            reference);
}

std::uint64_t count_workload_ops() {
  MemVfs vfs;
  FaultyVfs counting(vfs);
  run_workload(counting);
  return counting.ops();
}

TEST(RecoveryMatrixTest, WorkloadTouchesEnoughBoundariesToMatter) {
  // Sanity: the matrix below must actually cover a multi-step protocol.
  EXPECT_GE(count_workload_ops(), 15u);
}

TEST(RecoveryMatrixTest, CrashAtEveryOperationBoundary) {
  const auto reference = reference_matrix();
  const std::uint64_t total = count_workload_ops();
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k));
    MemVfs vfs;
    FaultyVfs faulty(vfs, StorageFaultScenario::crash_at(k));
    EXPECT_THROW(run_workload(faulty), SimulatedStorageCrash);
    check_recovery(vfs, reference);
  }
}

TEST(RecoveryMatrixTest, TornWriteAtEveryOperationBoundary) {
  const auto reference = reference_matrix();
  const std::uint64_t total = count_workload_ops();
  for (const std::size_t torn_bytes : {std::size_t{0}, std::size_t{5}}) {
    for (std::uint64_t k = 0; k < total; ++k) {
      SCOPED_TRACE("torn write of " + std::to_string(torn_bytes) +
                   " bytes at op " + std::to_string(k));
      MemVfs vfs;
      FaultyVfs faulty(vfs, StorageFaultScenario::torn_at(k, torn_bytes));
      EXPECT_THROW(run_workload(faulty), SimulatedStorageCrash);
      check_recovery(vfs, reference);
    }
  }
}

TEST(RecoveryMatrixTest, TransientFailureLeavesManagerConsistent) {
  const auto reference = reference_matrix();
  const std::uint64_t total = count_workload_ops();
  const std::vector<double> epsilons(12, 0.5);
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE("transient failure at op " + std::to_string(k));
    MemVfs vfs;
    FaultyVfs faulty(vfs, StorageFaultScenario::fail_at(k));

    // No power loss here: the process survives the failed syscall, must
    // surface it as StorageError, and must stay consistent enough that
    // simply retrying the interrupted step converges to the same state.
    try {
      run_workload(faulty);
    } catch (const StorageError&) {
      EpochStore store(faulty, kDir);
      EpochManager manager(manager_options());
      manager.attach_store(store);
      (void)manager.rebuild(truth_epoch1(), epsilons);  // retry path
      (void)manager.rebuild(truth_epoch2(), epsilons);
    }

    EXPECT_TRUE(fsck_store(vfs, kDir).ok);
    EpochStore store(vfs, kDir);
    ASSERT_TRUE(store.latest_epoch().has_value());
    EXPECT_EQ(store.load_epoch(*store.latest_epoch()).matrix(),
              reference);
  }
}

}  // namespace
}  // namespace eppi::core
