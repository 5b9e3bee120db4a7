// Epoch manager: reconstruction over time without leaking through churn.
//
// The paper's index is static (§III-C) — that is what makes repeated attacks
// no stronger than a single one. Real networks change, so the index must be
// rebuilt; naive rebuilding leaks twice:
//
//  * fresh publication noise rotates between epochs, so intersecting
//    snapshots strips false positives (solved by core/sticky_publisher);
//  * fresh λ-mixing coins rotate the *decoy* set while true common
//    identities stay mixed in every epoch — intersecting the apparent-
//    common sets across epochs isolates exactly the identities the mixing
//    is meant to hide.
//
// EpochManager makes both decisions sticky: publication noise is keyed per
// provider, and the mixing coin for identity j is a fixed PRF draw compared
// against the current λ. Both decisions are *monotone* (raising β or λ only
// adds noise/decoys), so an epoch's snapshot differs from the previous one
// only where the data or the privacy requirements actually changed.
//
// The served epoch is one immutable PostingIndex behind a shared_ptr: the
// delta splice's base, what the store commits and what a snapshot serves.
//
// Concurrency: EpochManager is the build/commit side of the serving tier
// and is single-threaded by contract — one writer at a time calls
// rebuild*/attach_store. Concurrent readers never touch it; they read the
// immutable EpochSnapshot a LocatorService publishes after each successful
// rebuild (core/epoch_snapshot.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "core/beta_plan.h"
#include "core/beta_policy.h"
#include "core/distributed_constructor.h"
#include "core/epoch_store.h"
#include "core/owner_truth.h"
#include "core/posting_index.h"

namespace eppi::core {

// Identities per task of a full epoch build (EpochManager::rebuild). A
// divisor of the shard span, so a task never straddles two shards.
inline constexpr std::size_t kEpochBuildBlock = 1024;
static_assert(kDefaultShardSpan % kEpochBuildBlock == 0,
              "a build block must not straddle two shards");

class EpochManager {
 public:
  struct Options {
    BetaPolicy policy;
    bool enable_mixing = true;
    std::uint64_t master_key = 1;  // derives provider keys + mixing PRF
    // With a store attached, at most this many consecutive incremental
    // epochs are journaled as delta records before the next one is written
    // as a full index file again (bounds recovery replay chains). 0 means
    // every epoch is committed full.
    std::size_t delta_base_interval = 16;

    Options() : policy(BetaPolicy::chernoff(0.9)) {}
  };

  EpochManager() : EpochManager(Options{}) {}
  explicit EpochManager(Options options) : options_(options) {}

  // How an epoch was produced, for callers that care whether the delta path
  // actually engaged (benches, the locator service's status surface).
  struct DeltaStats {
    bool delta = false;            // false: a full rebuild ran instead
    std::size_t recomputed = 0;    // identity columns recomputed (λ-widened)
    std::size_t spliced_rows = 0;  // joined provider rows published whole
  };

  struct EpochResult {
    // The epoch as served: the pointer the manager holds, the store
    // committed and a serving snapshot shares. Never null.
    std::shared_ptr<const PostingIndex> postings;
    std::uint64_t epoch = 0;
    // Cells that differ from the previous published epoch (0 when data and
    // requirements are unchanged); the full m×n size on the first epoch or
    // after a shape change.
    std::size_t churn = 0;
    DeltaStats delta;
  };

  // Builds the next epoch's index for the current network state: a fresh
  // BetaPlan over list lengths (span serve.rebuild.beta), then the sticky
  // emitter and the encoder over blocks of kEpochBuildBlock identities,
  // spread over min(blocks, CPUs in the affinity mask) workers, the caller
  // among them (span serve.rebuild.emit). The index is byte-identical to a
  // serial identity-by-identity emit and encode.
  EpochResult rebuild(const OwnerTruth& truth,
                      std::span<const double> epsilons);
  // The same over a dense truth, converted once with owner_truth().
  EpochResult rebuild(const eppi::BitMatrix& truth,
                      std::span<const double> epsilons) {
    return rebuild(owner_truth(truth), epsilons);
  }

  // Input to an incremental rebuild. Contract: `dirty` must name every
  // identity whose global frequency or ε could have changed since the
  // previous epoch — including every identity appearing in a joined or
  // leaving provider's row (the locator service derives this set from
  // provider-reported diffs). The manager updates its BetaPlan over that
  // set (over every identity when the provider count changed, since σ_j is
  // a share of m); when λ's coin threshold moves the plan widens it to the
  // identities whose λ-mixing decision flipped, so the published epoch is
  // bit-identical to a full rebuild() over the same truth.
  struct DeltaRequest {
    std::vector<IdentityId> dirty;
    std::vector<ProviderId> joined;  // provider rows entering this epoch
    std::vector<ProviderId> left;    // provider rows retiring this epoch
  };

  // Incremental rebuild: re-emits the affected identity columns (every one
  // when a provider joins or leaves) and splices the changed rows over the
  // served epoch. Falls back to a full rebuild (same result, more work)
  // when there is no in-memory base to splice over — first epoch, right
  // after attach_store, or a shrinking shape. With a store attached the
  // epoch is journaled as a delta record unless the record would overflow
  // or the replay chain hit delta_base_interval, in which case a full index
  // file is committed (the published epoch is identical either way).
  EpochResult rebuild_delta(const OwnerTruth& truth,
                            std::span<const double> epsilons,
                            const DeltaRequest& request);
  EpochResult rebuild_delta(const eppi::BitMatrix& truth,
                            std::span<const double> epsilons,
                            const DeltaRequest& request) {
    return rebuild_delta(owner_truth(truth), epsilons, request);
  }

  struct DistributedEpochResult {
    // Fresh on success; the served (previous) epoch when degraded.
    std::shared_ptr<const PostingIndex> postings;
    DistributedReport report;   // meaningful only when !degraded
    std::uint64_t epoch = 0;    // advances only on success
    // On success: as EpochResult::churn. On a degraded rebuild: the number
    // of cells the stale index is known to be behind by — true postings it
    // does not serve yet plus retired rows it still shows — so dashboards
    // can tell a quiet epoch (0 churn, fresh) from a degraded one (stale
    // with pending changes).
    std::size_t churn = 0;
    bool degraded = false;
    std::string failure;        // what() of the aborting error when degraded
    DeltaStats delta;
  };

  // Builds the next epoch via the secure distributed constructor, degrading
  // gracefully on protocol failure: if a rebuild aborts (PartyFailure or any
  // ProtocolError) and a previous epoch exists, the previous index is
  // kept with `degraded` set and the failure recorded. A failure with no
  // previous epoch to fall back to propagates.
  DistributedEpochResult rebuild_distributed(const eppi::BitMatrix& truth,
                                             std::span<const double> epsilons,
                                             const DistributedOptions& options);

  // Incremental distributed rebuild: runs SecSumShare/CountBelow only over
  // the dirty identities (an m×d submatrix job among the surviving active
  // providers) and splices the resulting columns over the served epoch,
  // dropping retired providers from the other columns that still hold
  // them.
  // λ only ever widens (max of the previous and the sub-run's λ), so the
  // decoy set stays monotone; non-dirty columns keep their previous bits
  // until the next full rebuild. Degrades exactly like
  // rebuild_distributed — and additionally when there is no previous epoch
  // to splice over, the request falls back to a full distributed rebuild.
  DistributedEpochResult rebuild_delta_distributed(
      const eppi::BitMatrix& truth, std::span<const double> epsilons,
      const DeltaRequest& request, const DistributedOptions& options);

  // Providers currently retired (rows forced to zero in every published
  // epoch until the id rejoins). Maintained by rebuild_delta*'s
  // joined/left lists; also applied by full rebuilds.
  std::size_t retired_count() const noexcept;

  std::uint64_t epochs_built() const noexcept { return epoch_; }
  std::size_t failed_rebuilds() const noexcept { return failed_rebuilds_; }
  const std::string& last_failure() const noexcept { return last_failure_; }

  // Attaches a durable store (core/epoch_store.h) and resumes from it.
  //
  // The store's recorded sticky state WINS over the configured options: after
  // a restart the manager must derive the exact same provider noise keys and
  // mixing coins as before, even if the process was relaunched with a
  // different configured master key (re-rolling sticky randomness is the
  // cross-epoch leak this class exists to prevent). A fresh store records the
  // configured state instead. The last committed epoch (if any) is loaded,
  // as postings, so serving resumes where the previous process stopped, and
  // every subsequent successful rebuild is committed durably before it
  // takes effect. Returns the owner lexicon that epoch's file carries (null
  // when the store holds no epoch or the file carries none).
  std::shared_ptr<const Lexicon> attach_store(EpochStore& store);

  // Owner-name lexicon persisted alongside each full-epoch commit (omitted
  // when null), so a recovered store can republish name lookups without
  // re-running registration. The serving tier refreshes it before every
  // rebuild; the manager only forwards the pointer to the store.
  void set_commit_lexicon(std::shared_ptr<const Lexicon> lexicon) {
    commit_lexicon_ = std::move(lexicon);
  }

  // What the manager is currently serving, for staleness-aware callers.
  struct ServingStatus {
    std::uint64_t epoch = 0;      // epoch of the index being served
    bool serving = false;         // an index is available at all
    bool degraded = false;        // most recent rebuild attempt failed
    std::size_t rebuilds_behind = 0;  // consecutive failed rebuilds since
                                      // the served epoch was built
    double age_seconds = 0.0;     // time since the served epoch was built
                                  // (or restored from the store)
  };
  ServingStatus serving_status() const;

  bool serving() const noexcept { return served_ != nullptr; }
  // The β derivation (β, commonness, ξ, λ, mixing) of the served epoch,
  // read from the plan the manager keeps for the next delta: no copy per
  // epoch. Valid until the next rebuild. Throws ConfigError when the
  // served epoch was not built in this process by rebuild or rebuild_delta
  // (none yet, recovered by attach_store, or built distributed).
  const ConstructionInfo& construction_info() const;
  // The served epoch (null until one is built or recovered); the next
  // successful rebuild or attach_store replaces the pointer.
  const std::shared_ptr<const PostingIndex>& served_postings() const noexcept {
    return served_;
  }

  // Provider `provider`'s sticky publication key under the master key
  // (public so tests can replay the publication rule cell by cell).
  std::uint64_t provider_key(std::size_t provider) const noexcept;

 private:
  std::vector<std::uint64_t> provider_keys(std::size_t m) const;
  // retired_ clipped to the first m providers (the emitter's view).
  std::span<const std::uint8_t> retired_prefix(std::size_t m) const noexcept;
  bool retired(std::size_t provider) const noexcept {
    return provider < retired_.size() && retired_[provider] != 0;
  }
  // Cells `next` differs from the served epoch by (all, on a new shape).
  std::size_t churn_since_served(const PostingIndex& next) const;
  // Whether the next commit may be a delta record (store attached, chain
  // below delta_base_interval, lineage head the intact served epoch).
  bool delta_commit_possible() const;
  // The delta record of `next`: its identity `columns` read off it, the
  // membership lists and the postings checksum. Joined rows are the
  // caller's to add.
  EpochStore::EpochDelta delta_record(
      const PostingIndex& next, double lambda, const DeltaRequest& request,
      std::span<const IdentityId> columns) const;
  // Commits (store attached) and starts serving `next`, journaled as
  // `delta_rec` instead of a full index file when that is non-null and fits.
  void adopt_epoch(std::shared_ptr<const PostingIndex> next, double lambda,
                   const EpochStore::EpochDelta* delta_rec = nullptr);
  void apply_membership(const DeltaRequest& request, std::size_t m);
  // Cells the served epoch is behind by relative to `truth`: true postings
  // not yet published plus bits still shown in retired rows.
  std::size_t pending_churn(const eppi::BitMatrix& truth) const;
  void record_churn_metrics(std::size_t churn, bool delta) const;

  Options options_;
  // uint64_t to match EpochStore::EpochRecord::epoch — size_t would
  // truncate restored epoch ids on 32-bit builds and could then break the
  // monotone-lineage invariant in commit_epoch.
  std::uint64_t epoch_ = 0;         // newest *committed* epoch id (never
                                    // reused)
  std::uint64_t served_epoch_ = 0;  // epoch of served_ — older than epoch_
                                    // when recovery quarantined newer files
  std::shared_ptr<const PostingIndex> served_;
  // The β derivation of the served epoch, the base the delta path updates.
  // Present only when that epoch was built in-process (attach_store
  // restores the postings but not this, so the first rebuild after a
  // restart runs full).
  std::optional<BetaPlan> plan_;
  // retired_[p] != 0: provider p has left; its row publishes as all-zero in
  // every epoch until the same id rejoins.
  std::vector<std::uint8_t> retired_;
  double last_lambda_ = 0.0;  // λ of the currently served epoch
  std::size_t failed_rebuilds_ = 0;
  std::string last_failure_;
  EpochStore* store_ = nullptr;
  std::shared_ptr<const Lexicon> commit_lexicon_;
  std::size_t failed_since_commit_ = 0;
  bool has_epoch_time_ = false;
  std::chrono::steady_clock::time_point epoch_time_{};
};

}  // namespace eppi::core
