#include "core/epoch_manager.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "common/parallel.h"
#include "core/beta_plan.h"
#include "core/epoch_store.h"
#include "core/sticky_publisher.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace eppi::core {

namespace {

// Frequencies are the truth lists' lengths.
BetaPlan::Frequency list_lengths(const OwnerTruth& truth) {
  return [&truth](std::size_t j) -> std::uint64_t {
    return truth.owners[j].size();
  };
}

// Rows re-emitted over the served epoch. Each row is appended to
// rows.entries and then closed: it is counted against its served row and
// kept for the splice only when it differs or is new, so a shard with no
// changed row stays shared with the served epoch.
struct RowSplice {
  explicit RowSplice(const PostingIndex& base) : served(base) {}

  const PostingIndex& served;
  std::vector<IdentityId> ids;
  PostingLists rows;
  std::size_t churn = 0;  // cells in which the closed rows differ
  std::vector<ProviderId> old;

  void close(IdentityId j) {
    old.clear();
    if (j < served.identities()) served.append_postings(j, old);
    const std::size_t diff = symmetric_difference_size(
        old, std::span<const ProviderId>(rows.entries).subspan(
                 rows.start.back()));
    churn += diff;
    if (diff == 0 && j < served.identities()) {
      rows.entries.resize(rows.start.back());  // the served row stands
      return;
    }
    ids.push_back(j);
    rows.end_row();
  }
};

}  // namespace

std::uint64_t EpochManager::provider_key(std::size_t provider) const noexcept {
  return mix64(options_.master_key ^ (0xA5A5A5A5A5A5A5A5ULL + provider));
}

std::vector<std::uint64_t> EpochManager::provider_keys(std::size_t m) const {
  std::vector<std::uint64_t> keys(m);
  for (std::size_t i = 0; i < m; ++i) keys[i] = provider_key(i);
  return keys;
}

std::span<const std::uint8_t> EpochManager::retired_prefix(
    std::size_t m) const noexcept {
  return std::span<const std::uint8_t>(retired_).first(
      std::min(retired_.size(), m));
}

EpochManager::EpochResult EpochManager::rebuild(
    const OwnerTruth& truth, std::span<const double> epsilons) {
  const std::size_t m = truth.providers;
  const std::size_t n = truth.identities();
  require(epsilons.size() == n, "EpochManager: epsilon count mismatch");
  require(m >= 1, "EpochManager: need at least one provider");

  obs::Span span("serve.rebuild");
  span.attr("providers", m);
  span.attr("identities", n);
  span.attr("distributed", false);

  // β calculation with deterministic, monotone mixing: identity j is mixed
  // iff its fixed PRF draw under the master key falls below λ's threshold.
  std::optional<obs::Span> beta_span(std::in_place, "serve.rebuild.beta");
  BetaPlan plan(
      options_.policy, options_.enable_mixing,
      BetaPlan::keyed_coin(mix64(options_.master_key ^ 0x5bd1e995ULL)),
      list_lengths(truth), epsilons, m);
  beta_span->attr("common", plan.common_count());
  beta_span.reset();

  // Sticky publication and encoding, block by block across the CPUs: a
  // task emits kEpochBuildBlock identities into its worker's lists and
  // encodes them as one piece, and each shard then lays its pieces end to
  // end. No list of the whole epoch is ever held.
  std::shared_ptr<const PostingIndex> postings;
  {
    obs::Span emit_span("serve.rebuild.emit");
    const StickyEmitter emitter(provider_keys(m), plan.info().betas,
                                retired_prefix(m));
    const std::size_t blocks = (n + kEpochBuildBlock - 1) / kEpochBuildBlock;
    std::vector<EncodedRows> pieces(blocks);
    std::vector<std::size_t> entries(blocks, 0);
    std::vector<PostingLists> lists(parallel_workers(blocks));
    parallel_for(blocks, [&](std::size_t worker, std::size_t b) {
      PostingLists& rows = lists[worker];
      rows.start.assign(1, 0);
      rows.entries.clear();
      const std::size_t last = std::min(n, (b + 1) * kEpochBuildBlock);
      for (std::size_t j = b * kEpochBuildBlock; j < last; ++j) {
        emitter.emit(static_cast<IdentityId>(j), truth.owners[j],
                     rows.entries);
        rows.end_row();
      }
      pieces[b].encode(rows, m);
      entries[b] = rows.entries.size();
    });
    lists.clear();

    constexpr std::size_t kPiecesPerShard = kDefaultShardSpan / kEpochBuildBlock;
    std::vector<std::shared_ptr<const PostingShard>> shards(
        (blocks + kPiecesPerShard - 1) / kPiecesPerShard);
    parallel_for(shards.size(), [&](std::size_t, std::size_t k) {
      const std::span<EncodedRows> mine =
          std::span<EncodedRows>(pieces).subspan(
              k * kPiecesPerShard,
              std::min(kPiecesPerShard, blocks - k * kPiecesPerShard));
      shards[k] = std::make_shared<const PostingShard>(
          static_cast<IdentityId>(k * kDefaultShardSpan), m,
          std::span<const EncodedRows>(mine));
      for (EncodedRows& piece : mine) piece.release();
    });
    postings = std::make_shared<const PostingIndex>(m, n, kDefaultShardSpan,
                                                    std::move(shards));
    std::size_t total = 0;
    for (const std::size_t e : entries) total += e;
    emit_span.attr("identities", n);
    emit_span.attr("cells_hashed", emitter.cells_hashed());
    emit_span.attr("full_columns", emitter.full_columns());
    emit_span.attr("entries", total);
  }

  const std::size_t churn = churn_since_served(*postings);
  // Commit first (durable), then mutate: if the store throws, the manager
  // keeps serving the old epoch unchanged and a retry is safe.
  adopt_epoch(postings, plan.info().lambda);
  span.attr("epoch", epoch_);
  span.attr("churn", churn);
  // Retained so the next rebuild_delta re-derives only what changed.
  plan_ = std::move(plan);
  record_churn_metrics(churn, /*delta=*/false);

  EpochResult result;
  result.epoch = epoch_;
  result.churn = churn;
  result.postings = std::move(postings);
  return result;
}

EpochManager::EpochResult EpochManager::rebuild_delta(
    const OwnerTruth& truth, std::span<const double> epsilons,
    const DeltaRequest& request) {
  const std::size_t m = truth.providers;
  const std::size_t n = truth.identities();
  require(epsilons.size() == n, "EpochManager: epsilon count mismatch");
  require(m >= 1, "EpochManager: need at least one provider");
  apply_membership(request, m);

  if (!served_ || !plan_ || served_->providers() > m ||
      served_->identities() > n) {
    // No base to splice over (first epoch, fresh restart, or a shrinking
    // shape): run the full path — same result, more work.
    EpochResult result = rebuild(truth, epsilons);
    result.delta = DeltaStats{};
    return result;
  }

  obs::Span span("serve.rebuild_delta");
  span.attr("providers", m);
  span.attr("identities", n);

  const bool shape_changed =
      served_->providers() != m || served_->identities() != n;
  // A joined row's noise and a leaving row's bits land in any column, so a
  // membership epoch re-emits every column: a full rebuild's work and
  // result, still journaled as a delta.
  const bool membership = !request.joined.empty() || !request.left.empty() ||
                          served_->providers() != m;

  // The plan is taken out until the epoch is adopted: if anything below
  // throws, the next rebuild runs full instead of updating a plan that is
  // ahead of the served epoch.
  BetaPlan plan = std::move(*plan_);
  plan_.reset();
  const std::vector<IdentityId> affected =
      plan.update(request.dirty, list_lengths(truth), epsilons, m);

  // Re-emit the affected columns (every column in a membership epoch) with
  // the same emitter, thresholds and PRF draws as the full path.
  const StickyEmitter emitter(provider_keys(m), plan.info().betas,
                              retired_prefix(m));
  RowSplice splice(*served_);
  const auto emit = [&](std::size_t j) {
    const auto id = static_cast<IdentityId>(j);
    emitter.emit(id, truth.owners[j], splice.rows.entries);
    splice.close(id);
  };
  if (membership) {
    for (std::size_t j = 0; j < n; ++j) emit(j);
  } else {
    for (const IdentityId j : affected) emit(j);
  }
  const std::size_t churn = shape_changed ? m * n : splice.churn;
  auto next = std::make_shared<const PostingIndex>(*served_, m, n, splice.ids,
                                                   splice.rows);

  EpochStore::EpochDelta rec;
  const bool journal = delta_commit_possible();
  const double lambda = plan.info().lambda;
  if (journal) {
    rec = delta_record(*next, lambda, request, affected);
    // A joined provider's row, cell by cell from the emitter that just
    // published every column of this membership epoch.
    for (const ProviderId p : request.joined) {
      EpochStore::EpochDelta::Row& row = rec.row_splices.emplace_back();
      row.provider = p;
      row.bits.assign((n + 7) / 8, 0);
      for (std::size_t j = 0; j < n; ++j) {
        const auto id = static_cast<IdentityId>(j);
        if (emitter.publishes(p, id, truth.holds(p, id))) {
          row.bits[j >> 3] |= 1u << (j & 7);
        }
      }
    }
  }

  adopt_epoch(next, lambda, journal ? &rec : nullptr);
  plan_ = std::move(plan);
  span.attr("epoch", epoch_);
  span.attr("churn", churn);
  span.attr("recomputed", affected.size());
  record_churn_metrics(churn, /*delta=*/true);

  EpochResult result;
  result.postings = std::move(next);
  result.epoch = epoch_;
  result.churn = churn;
  result.delta.delta = true;
  result.delta.recomputed = affected.size();
  result.delta.spliced_rows = request.joined.size();
  return result;
}

std::size_t EpochManager::churn_since_served(const PostingIndex& next) const {
  if (!served_ || served_->providers() != next.providers() ||
      served_->identities() != next.identities()) {
    return next.providers() * next.identities();
  }
  return hamming_distance(*served_, next);
}

bool EpochManager::delta_commit_possible() const {
  if (store_ == nullptr || options_.delta_base_interval == 0 ||
      store_->lineage().empty() ||
      store_->deltas_since_full() + 1 >= options_.delta_base_interval) {
    return false;
  }
  const EpochStore::EpochRecord& head = store_->lineage().back();
  return head.epoch == epoch_ && head.file_intact;
}

EpochStore::EpochDelta EpochManager::delta_record(
    const PostingIndex& next, double lambda, const DeltaRequest& request,
    std::span<const IdentityId> columns) const {
  EpochStore::EpochDelta rec;
  rec.epoch = epoch_ + 1;
  rec.base_epoch = epoch_;
  rec.rows = next.providers();
  rec.cols = next.identities();
  rec.lambda = lambda;
  rec.joined = request.joined;
  rec.left = request.left;
  std::vector<ProviderId> list;
  for (const IdentityId j : columns) {
    EpochStore::EpochDelta::Column col;
    col.identity = j;
    col.bits.assign((rec.rows + 7) / 8, 0);
    next.query_into(j, list);
    for (const ProviderId p : list) col.bits[p >> 3] |= 1u << (p & 7);
    rec.col_splices.push_back(std::move(col));
  }
  rec.postings_crc = postings_checksum(next);
  return rec;
}

void EpochManager::adopt_epoch(std::shared_ptr<const PostingIndex> next,
                               double lambda,
                               const EpochStore::EpochDelta* delta_rec) {
  if (store_ != nullptr) {
    // A record past the journal's bound is committed as a full index file
    // instead — the published epoch is identical either way.
    if (delta_rec != nullptr && !EpochStore::delta_overflows(*delta_rec)) {
      store_->commit_delta(*delta_rec);
    } else {
      store_->commit_epoch(epoch_ + 1, *next, lambda, commit_lexicon_.get());
    }
  }
  served_ = std::move(next);
  last_lambda_ = lambda;
  ++epoch_;
  served_epoch_ = epoch_;
  failed_since_commit_ = 0;
  epoch_time_ = std::chrono::steady_clock::now();
  has_epoch_time_ = true;
}

void EpochManager::apply_membership(const DeltaRequest& request,
                                    std::size_t m) {
  if (retired_.size() < m) retired_.resize(m, 0);
  for (const ProviderId p : request.joined) {
    require(p < m, "EpochManager: joined provider row out of range");
    retired_[p] = 0;
  }
  for (const ProviderId p : request.left) {
    require(p < m, "EpochManager: leaving provider row out of range");
    retired_[p] = 1;
  }
}

std::size_t EpochManager::retired_count() const noexcept {
  std::size_t count = 0;
  for (const std::uint8_t r : retired_) count += r ? 1 : 0;
  return count;
}

std::size_t EpochManager::pending_churn(const eppi::BitMatrix& truth) const {
  if (!served_) return truth.rows() * truth.cols();
  std::size_t pending = 0;
  std::vector<ProviderId> row;
  for (std::size_t j = 0; j < truth.cols(); ++j) {
    row.clear();
    if (j < served_->identities()) {
      served_->append_postings(static_cast<IdentityId>(j), row);
    }
    for (std::size_t i = 0; i < truth.rows(); ++i) {
      const bool served = std::binary_search(row.begin(), row.end(), i);
      if (retired(i) ? served : (truth.get(i, j) && !served)) ++pending;
    }
  }
  return pending;
}

void EpochManager::record_churn_metrics(std::size_t churn, bool delta) const {
  auto& registry = obs::Registry::global();
  registry
      .counter("eppi_epoch_churn", {},
               "Cells changed between consecutive published epochs")
      .add(churn);
  registry
      .gauge("eppi_epoch_churn_last", {},
             "Churn of the most recent rebuild attempt (pending cells when "
             "degraded)")
      .set(static_cast<std::int64_t>(churn));
  if (delta) {
    registry
        .counter("eppi_delta_rebuilds_total", {},
                 "Epochs produced via the incremental delta path")
        .add();
  }
}

std::shared_ptr<const Lexicon> EpochManager::attach_store(EpochStore& store) {
  store_ = &store;
  if (store.has_sticky_state()) {
    // The recorded lineage wins: deriving noise from a *new* key would
    // rotate every sticky decision and reopen the intersection attacks.
    options_.master_key = store.sticky_state().master_key;
    options_.enable_mixing = store.sticky_state().enable_mixing;
  } else {
    store.record_sticky_state(
        {options_.master_key, options_.enable_mixing});
  }
  if (!store.lineage().empty()) {
    // Never reuse an epoch number, even one whose file was quarantined.
    epoch_ = store.lineage().back().epoch;
  }
  // Membership survives restarts through the journaled delta records:
  // replaying every intact delta's joined/left lists in lineage order
  // reproduces the retired set as of the newest epoch (full epochs never
  // change membership). Changes riding on quarantined deltas are lost with
  // the epochs themselves — consistent with recovery's rollback semantics.
  retired_.clear();
  for (const auto& rec : store.lineage()) {
    if (!rec.is_delta || !rec.file_intact) continue;
    const EpochStore::EpochDelta& delta = store.delta_record(rec.epoch);
    DeltaRequest membership;
    membership.joined.assign(delta.joined.begin(), delta.joined.end());
    membership.left.assign(delta.left.begin(), delta.left.end());
    apply_membership(membership, delta.rows);
  }
  std::shared_ptr<const Lexicon> lexicon;
  if (const auto latest = store.latest_epoch()) {
    // The epoch *served* is the newest intact one, which can be older than
    // the newest committed id when recovery quarantined a rotted file.
    LoadedIndex loaded = store.load_epoch_postings(*latest);
    served_ = std::make_shared<const PostingIndex>(std::move(loaded.postings));
    plan_.reset();  // no plan derived that epoch
    lexicon = std::move(loaded.lexicon);
    served_epoch_ = *latest;
    epoch_time_ = std::chrono::steady_clock::now();
    has_epoch_time_ = true;
    for (const auto& rec : store.lineage()) {
      if (rec.epoch == *latest) last_lambda_ = rec.lambda;
    }
  }
  return lexicon;
}

const ConstructionInfo& EpochManager::construction_info() const {
  require(plan_.has_value(),
          "EpochManager: the served epoch has no in-process construction info");
  return plan_->info();
}

EpochManager::ServingStatus EpochManager::serving_status() const {
  ServingStatus status;
  status.epoch = served_epoch_;
  status.serving = served_ != nullptr;
  status.degraded = failed_since_commit_ > 0;
  status.rebuilds_behind = failed_since_commit_;
  if (has_epoch_time_) {
    status.age_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - epoch_time_)
                             .count();
  }
  return status;
}

EpochManager::DistributedEpochResult EpochManager::rebuild_distributed(
    const eppi::BitMatrix& truth, std::span<const double> epsilons,
    const DistributedOptions& options) {
  obs::Span span("serve.rebuild");
  span.attr("providers", truth.rows());
  span.attr("identities", truth.cols());
  span.attr("distributed", true);

  DistributedEpochResult result;
  DistributedResult built;
  try {
    built = construct_distributed(truth, epsilons, options);
  } catch (const eppi::ProtocolError& failure) {
    // Degraded mode: the rebuild aborted (a PartyFailure names the dead
    // party). Keep serving the last good epoch rather than going dark; the
    // stale index is correct for the previous network state and strictly
    // better than no locator service.
    if (!served_) throw;  // nothing to fall back to
    ++failed_rebuilds_;
    ++failed_since_commit_;
    last_failure_ = failure.what();
    span.event("serve.rebuild_failed");
    obs::Registry::global()
        .counter("eppi_serving_failed_rebuilds_total", {},
                 "Distributed rebuilds that aborted into degraded serving")
        .add();
    result.postings = served_;
    result.epoch = served_epoch_;
    result.degraded = true;
    result.failure = last_failure_;
    // Not zero (the old hardwired value): the stale index is behind the new
    // network state by this many known cells, which is what distinguishes a
    // degraded epoch from a genuinely quiet one on a dashboard.
    result.churn = pending_churn(truth);
    record_churn_metrics(result.churn, /*delta=*/false);
    return result;
  }

  // The constructor answers with a dense matrix; retired rows go dark (the
  // centralized emitter skips them itself) and it is inverted once.
  eppi::BitMatrix published = built.index.matrix();
  for (std::size_t p = 0; p < published.rows(); ++p) {
    if (!retired(p)) continue;
    for (std::size_t j = 0; j < published.cols(); ++j) {
      published.set(p, j, false);
    }
  }
  auto next = std::make_shared<const PostingIndex>(published);
  const std::size_t churn = churn_since_served(*next);
  adopt_epoch(next, built.report.lambda);
  // The distributed constructor derives β inside the MPC, so the retained
  // centralized plan no longer matches what is being served.
  plan_.reset();
  span.attr("epoch", epoch_);
  span.attr("churn", churn);
  record_churn_metrics(churn, /*delta=*/false);
  result.postings = std::move(next);
  result.epoch = epoch_;
  result.churn = churn;
  result.report = std::move(built.report);
  return result;
}

EpochManager::DistributedEpochResult EpochManager::rebuild_delta_distributed(
    const eppi::BitMatrix& truth, std::span<const double> epsilons,
    const DeltaRequest& request, const DistributedOptions& options) {
  const std::size_t m = truth.rows();
  const std::size_t n = truth.cols();
  require(epsilons.size() == n, "EpochManager: epsilon count mismatch");
  apply_membership(request, m);

  if (!served_ || served_->providers() > m || served_->identities() > n) {
    DistributedEpochResult result = rebuild_distributed(truth, epsilons,
                                                        options);
    result.delta = DeltaStats{};
    return result;
  }

  obs::Span span("serve.rebuild_delta");
  span.attr("providers", m);
  span.attr("identities", n);
  span.attr("distributed", true);

  const bool shape_changed =
      served_->providers() != m || served_->identities() != n;
  const std::vector<IdentityId> dirty_ids =
      dirty_identities(request.dirty, served_->identities(), n);

  // The sub-run is an active-providers × dirty-identities job: retired rows
  // never participate again, and a joining party enters here — after having
  // synced the sticky master key from the manifest via attach_store on its
  // own replica.
  std::vector<ProviderId> active;
  for (std::size_t i = 0; i < m; ++i) {
    if (!retired(i)) active.push_back(static_cast<ProviderId>(i));
  }
  require(active.size() >= 2,
          "EpochManager: delta rebuild needs at least two active providers");

  DistributedEpochResult result;
  result.delta.delta = true;
  result.delta.recomputed = dirty_ids.size();
  result.delta.spliced_rows = request.joined.size();

  DistributedResult built;
  if (!dirty_ids.empty()) {
    eppi::BitMatrix sub(active.size(), dirty_ids.size());
    for (std::size_t a = 0; a < active.size(); ++a) {
      for (std::size_t d = 0; d < dirty_ids.size(); ++d) {
        if (truth.get(active[a], dirty_ids[d])) sub.set(a, d, true);
      }
    }
    std::vector<double> sub_epsilons(dirty_ids.size());
    for (std::size_t d = 0; d < dirty_ids.size(); ++d) {
      sub_epsilons[d] = epsilons[dirty_ids[d]];
    }
    DistributedOptions sub_options = options;
    sub_options.c = std::min<std::size_t>(options.c, active.size());
    try {
      built = construct_distributed(sub, sub_epsilons, sub_options);
    } catch (const eppi::ProtocolError& failure) {
      ++failed_rebuilds_;
      ++failed_since_commit_;
      last_failure_ = failure.what();
      span.event("serve.rebuild_failed");
      obs::Registry::global()
          .counter("eppi_serving_failed_rebuilds_total", {},
                   "Distributed rebuilds that aborted into degraded serving")
          .add();
      result.postings = served_;
      result.epoch = served_epoch_;
      result.degraded = true;
      result.failure = last_failure_;
      result.churn = pending_churn(truth);
      record_churn_metrics(result.churn, /*delta=*/true);
      return result;
    }
  }

  // Splice over the served epoch: each dirty column is the sub-run's
  // answer over the active providers, and every other served column that
  // still holds a retired provider (a leaving row's bits) drops it. λ only
  // widens (max of previous and sub-run) so the decoy set stays monotone
  // across partial recomputes.
  RowSplice splice(*served_);
  std::vector<ProviderId> held;
  for (std::size_t j = 0, d = 0; j < n; ++j) {
    const auto id = static_cast<IdentityId>(j);
    if (d < dirty_ids.size() && dirty_ids[d] == j) {
      const eppi::BitMatrix& sub_published = built.index.matrix();
      for (std::size_t a = 0; a < active.size(); ++a) {
        if (sub_published.get(a, d)) splice.rows.entries.push_back(active[a]);
      }
      ++d;
    } else {
      held.clear();
      served_->append_postings(id, held);
      for (const ProviderId p : held) {
        if (!retired(p)) splice.rows.entries.push_back(p);
      }
    }
    splice.close(id);
  }
  const std::size_t churn = shape_changed ? m * n : splice.churn;
  auto next = std::make_shared<const PostingIndex>(*served_, m, n, splice.ids,
                                                   splice.rows);
  const double lambda =
      std::max(last_lambda_, dirty_ids.empty() ? 0.0 : built.report.lambda);

  EpochStore::EpochDelta rec;
  const bool journal = delta_commit_possible();
  if (journal) rec = delta_record(*next, lambda, request, dirty_ids);

  adopt_epoch(next, lambda, journal ? &rec : nullptr);
  plan_.reset();
  span.attr("epoch", epoch_);
  span.attr("churn", churn);
  span.attr("recomputed", dirty_ids.size());
  record_churn_metrics(churn, /*delta=*/true);

  result.postings = std::move(next);
  result.epoch = epoch_;
  result.churn = churn;
  if (!dirty_ids.empty()) result.report = std::move(built.report);
  return result;
}

}  // namespace eppi::core
