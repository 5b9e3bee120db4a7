#include "core/epoch_manager.h"

#include <algorithm>

#include "common/error.h"
#include "core/epoch_store.h"
#include "core/mixing.h"
#include "core/sticky_publisher.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace eppi::core {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t EpochManager::provider_key(std::size_t provider) const noexcept {
  return mix64(options_.master_key ^ (0xA5A5A5A5A5A5A5A5ULL + provider));
}

bool EpochManager::sticky_mix_coin(std::size_t identity,
                                   double lambda) const noexcept {
  if (lambda <= 0.0) return false;
  if (lambda >= 1.0) return true;
  const std::uint64_t draw =
      mix64(mix64(options_.master_key ^ 0x5bd1e995ULL) + identity);
  const long double scaled =
      static_cast<long double>(lambda) * 18446744073709551616.0L;
  const std::uint64_t threshold =
      scaled >= 18446744073709551615.0L ? ~std::uint64_t{0}
                                        : static_cast<std::uint64_t>(scaled);
  return draw < threshold;
}

EpochManager::EpochResult EpochManager::rebuild(
    const eppi::BitMatrix& truth, std::span<const double> epsilons) {
  const std::size_t m = truth.rows();
  const std::size_t n = truth.cols();
  require(epsilons.size() == n, "EpochManager: epsilon count mismatch");
  require(m >= 1, "EpochManager: need at least one provider");

  obs::Span span("serve.rebuild");
  span.attr("providers", m);
  span.attr("identities", n);
  span.attr("distributed", false);

  // β calculation with deterministic, monotone mixing.
  ConstructionInfo info;
  info.betas.resize(n);
  info.is_common.assign(n, false);
  info.is_apparent_common.assign(n, false);
  info.thresholds.resize(n);
  std::vector<double> raw(n);
  for (std::size_t j = 0; j < n; ++j) {
    require(epsilons[j] >= 0.0 && epsilons[j] <= 1.0,
            "EpochManager: epsilon out of [0,1]");
    const double sigma =
        static_cast<double>(truth.col_count(j)) / static_cast<double>(m);
    raw[j] = beta_raw(options_.policy, sigma, epsilons[j], m);
    info.is_common[j] = raw[j] >= 1.0;
    info.thresholds[j] = common_threshold(options_.policy, epsilons[j], m);
  }
  std::size_t n_common = 0;
  for (std::size_t j = 0; j < n; ++j) n_common += info.is_common[j] ? 1 : 0;
  info.xi = xi_for(info.is_common, epsilons);
  info.lambda =
      options_.enable_mixing ? lambda_for(info.xi, n_common, n) : 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (info.is_common[j] ||
        (options_.enable_mixing && sticky_mix_coin(j, info.lambda))) {
      info.betas[j] = 1.0;
      info.is_apparent_common[j] = true;
    } else {
      info.betas[j] = raw[j] < 0.0 ? 0.0 : raw[j];
    }
  }

  // Sticky publication.
  std::vector<std::uint64_t> keys(m);
  for (std::size_t i = 0; i < m; ++i) keys[i] = provider_key(i);
  eppi::BitMatrix published =
      sticky_publish_matrix(truth, info.betas, keys);
  zero_retired_rows(published);

  const std::size_t churn = churn_against_previous(published);
  // Commit first (durable), then mutate: if the store throws, the manager
  // keeps serving the old epoch unchanged and a retry is safe.
  adopt_epoch(published, info.lambda);
  span.attr("epoch", epoch_);
  span.attr("churn", churn);

  // Retain the per-identity derivation state so the next rebuild_delta can
  // recompute only what changed.
  last_raw_ = std::move(raw);
  last_info_ = info;
  has_last_info_ = true;
  record_churn_metrics(churn, /*delta=*/false);

  EpochResult result;
  result.info = std::move(info);
  result.epoch = epoch_;
  result.churn = churn;
  result.index = PpiIndex(std::move(published));
  return result;
}

EpochManager::EpochResult EpochManager::rebuild_delta(
    const eppi::BitMatrix& truth, std::span<const double> epsilons,
    const DeltaRequest& request) {
  const std::size_t m = truth.rows();
  const std::size_t n = truth.cols();
  require(epsilons.size() == n, "EpochManager: epsilon count mismatch");
  require(m >= 1, "EpochManager: need at least one provider");
  apply_membership(request, m);

  if (!has_previous_ || !has_last_info_ || previous_.rows() > m ||
      previous_.cols() > n) {
    // No base to splice over (first epoch, fresh restart, or a shrinking
    // shape): run the full path — same result, more work.
    EpochResult result = rebuild(truth, epsilons);
    result.delta = DeltaStats{};
    return result;
  }

  obs::Span span("serve.rebuild_delta");
  span.attr("providers", m);
  span.attr("identities", n);

  const bool shape_changed = previous_.rows() != m || previous_.cols() != n;

  // Grow the retained derivation state; new identities are implicitly
  // dirty, so the placeholder values below are always overwritten.
  last_raw_.resize(n, 0.0);
  last_info_.betas.resize(n, 0.0);
  last_info_.is_common.resize(n, false);
  last_info_.is_apparent_common.resize(n, false);
  last_info_.thresholds.resize(n, 0.0);

  std::vector<std::uint8_t> dirty(n, 0);
  for (const IdentityId j : request.dirty) {
    require(j < n, "EpochManager: dirty identity out of range");
    dirty[j] = 1;
  }
  for (std::size_t j = previous_.cols(); j < n; ++j) dirty[j] = 1;

  // Re-derive β*/commonness only where the global frequency or ε could have
  // moved; everything else keeps the previous epoch's values verbatim.
  for (std::size_t j = 0; j < n; ++j) {
    if (!dirty[j]) continue;
    require(epsilons[j] >= 0.0 && epsilons[j] <= 1.0,
            "EpochManager: epsilon out of [0,1]");
    const double sigma =
        static_cast<double>(truth.col_count(j)) / static_cast<double>(m);
    last_raw_[j] = beta_raw(options_.policy, sigma, epsilons[j], m);
    last_info_.is_common[j] = last_raw_[j] >= 1.0;
    last_info_.thresholds[j] = common_threshold(options_.policy, epsilons[j], m);
  }

  // ξ and λ are global functions of the (updated) common set, recomputed
  // with the same formulas as the full path — so they land on the same
  // values a full rebuild would.
  std::size_t n_common = 0;
  for (std::size_t j = 0; j < n; ++j) {
    n_common += last_info_.is_common[j] ? 1 : 0;
  }
  last_info_.xi = xi_for(last_info_.is_common, epsilons);
  const double lambda =
      options_.enable_mixing ? lambda_for(last_info_.xi, n_common, n) : 0.0;
  last_info_.lambda = lambda;

  // λ moving can flip any identity's sticky mixing decision, so the dirty
  // set widens to every identity whose β or apparent-common bit changed.
  std::vector<std::uint8_t> affected = dirty;
  for (std::size_t j = 0; j < n; ++j) {
    const bool apparent =
        last_info_.is_common[j] ||
        (options_.enable_mixing && sticky_mix_coin(j, lambda));
    const double beta =
        apparent ? 1.0 : (last_raw_[j] < 0.0 ? 0.0 : last_raw_[j]);
    if (apparent != last_info_.is_apparent_common[j] ||
        beta != last_info_.betas[j]) {
      affected[j] = 1;
    }
    last_info_.is_apparent_common[j] = apparent;
    last_info_.betas[j] = beta;
  }

  // Splice over the previous epoch's published matrix.
  eppi::BitMatrix published(m, n);
  if (!shape_changed) {
    published = previous_;
  } else {
    for (std::size_t i = 0; i < previous_.rows(); ++i) {
      for (std::size_t j = 0; j < previous_.cols(); ++j) {
        if (previous_.get(i, j)) published.set(i, j, true);
      }
    }
  }

  std::vector<StickyPublisher> publishers;
  publishers.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    publishers.emplace_back(provider_key(i));
  }
  const auto publish_cell = [&](std::size_t i, std::size_t j) {
    if (i < retired_.size() && retired_[i]) return false;
    return truth.get(i, j) ||
           publishers[i].noise_bit(j, last_info_.betas[j]);
  };
  // Every write below stores the cell's FINAL value, so overlaps (a joined
  // row crossing an affected column) are written twice with the same bit
  // and the flip count stays exact.
  std::size_t flips = 0;
  const auto write_cell = [&](std::size_t i, std::size_t j, bool bit) {
    if (published.get(i, j) != bit) {
      ++flips;
      published.set(i, j, bit);
    }
  };

  for (std::size_t p = 0; p < m; ++p) {
    if (p < retired_.size() && retired_[p]) {
      for (std::size_t j = 0; j < n; ++j) write_cell(p, j, false);
    }
  }
  std::size_t recomputed = 0;
  std::vector<IdentityId> affected_ids;
  for (std::size_t j = 0; j < n; ++j) {
    if (!affected[j]) continue;
    ++recomputed;
    affected_ids.push_back(static_cast<IdentityId>(j));
    for (std::size_t i = 0; i < m; ++i) write_cell(i, j, publish_cell(i, j));
  }
  for (const ProviderId p : request.joined) {
    for (std::size_t j = 0; j < n; ++j) write_cell(p, j, publish_cell(p, j));
  }

  const std::size_t churn = shape_changed ? m * n : flips;

  // Journal as a delta record when the store's lineage head can base one.
  EpochStore::EpochDelta rec;
  rec.epoch = epoch_ + 1;
  rec.base_epoch = epoch_;
  rec.rows = m;
  rec.cols = n;
  rec.lambda = lambda;
  rec.joined = request.joined;
  rec.left = request.left;
  for (const ProviderId p : request.joined) {
    EpochStore::EpochDelta::Row row;
    row.provider = p;
    row.bits.assign((n + 7) / 8, 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (published.get(p, j)) row.bits[j >> 3] |= 1u << (j & 7);
    }
    rec.row_splices.push_back(std::move(row));
  }
  for (const IdentityId j : affected_ids) {
    EpochStore::EpochDelta::Column col;
    col.identity = j;
    col.bits.assign((m + 7) / 8, 0);
    for (std::size_t i = 0; i < m; ++i) {
      if (published.get(i, j)) col.bits[i >> 3] |= 1u << (i & 7);
    }
    rec.col_splices.push_back(std::move(col));
  }
  rec.postings_crc = postings_checksum(published);

  adopt_epoch(published, lambda, &rec);
  has_last_info_ = true;
  span.attr("epoch", epoch_);
  span.attr("churn", churn);
  span.attr("recomputed", recomputed);
  record_churn_metrics(churn, /*delta=*/true);

  EpochResult result;
  result.info = last_info_;
  result.epoch = epoch_;
  result.churn = churn;
  result.delta.delta = true;
  result.delta.recomputed = recomputed;
  result.delta.spliced_rows = request.joined.size();
  result.delta.affected_ids = std::move(affected_ids);
  result.index = PpiIndex(std::move(published));
  return result;
}

std::size_t EpochManager::churn_against_previous(
    const eppi::BitMatrix& published) const {
  if (!has_previous_ || previous_.rows() != published.rows() ||
      previous_.cols() != published.cols()) {
    return published.rows() * published.cols();
  }
  std::size_t churn = 0;
  for (std::size_t i = 0; i < published.rows(); ++i) {
    for (std::size_t j = 0; j < published.cols(); ++j) {
      if (previous_.get(i, j) != published.get(i, j)) ++churn;
    }
  }
  return churn;
}

void EpochManager::adopt_epoch(const eppi::BitMatrix& published,
                               double lambda,
                               const EpochStore::EpochDelta* delta_rec) {
  if (store_ != nullptr) {
    bool as_delta = false;
    if (delta_rec != nullptr && options_.delta_base_interval > 0 &&
        store_->deltas_since_full() + 1 < options_.delta_base_interval &&
        !store_->lineage().empty()) {
      // The journal-only commit needs a loadable lineage head of the same
      // id and a non-shrinking shape; anything else (quarantined head,
      // record too large) falls back to a full index file — the published
      // matrix is identical either way.
      const EpochStore::EpochRecord& head = store_->lineage().back();
      as_delta = head.epoch == epoch_ && head.file_intact &&
                 head.rows <= delta_rec->rows &&
                 head.cols <= delta_rec->cols &&
                 !EpochStore::delta_overflows(*delta_rec);
    }
    if (as_delta) {
      store_->commit_delta(*delta_rec);
    } else {
      store_->commit_epoch(epoch_ + 1, PostingIndex(published), lambda,
                           commit_lexicon_.get());
    }
  }
  previous_ = published;
  has_previous_ = true;
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

void EpochManager::zero_retired_rows(eppi::BitMatrix& published) const {
  const std::size_t rows = std::min(retired_.size(), published.rows());
  for (std::size_t p = 0; p < rows; ++p) {
    if (!retired_[p]) continue;
    for (std::size_t j = 0; j < published.cols(); ++j) {
      published.set(p, j, false);
    }
  }
}

std::size_t EpochManager::retired_count() const noexcept {
  std::size_t count = 0;
  for (const std::uint8_t r : retired_) count += r ? 1 : 0;
  return count;
}

std::size_t EpochManager::pending_churn(const eppi::BitMatrix& truth) const {
  if (!has_previous_) return truth.rows() * truth.cols();
  std::size_t pending = 0;
  for (std::size_t i = 0; i < truth.rows(); ++i) {
    const bool retired = i < retired_.size() && retired_[i];
    for (std::size_t j = 0; j < truth.cols(); ++j) {
      const bool served = i < previous_.rows() && j < previous_.cols() &&
                          previous_.get(i, j);
      if (retired ? served : (truth.get(i, j) && !served)) ++pending;
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

void EpochManager::attach_store(EpochStore& store) {
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
  if (const auto latest = store.latest_epoch()) {
    // The epoch *served* is the newest intact one, which can be older than
    // the newest committed id when recovery quarantined a rotted file.
    previous_ = store.load_epoch(*latest).matrix();
    has_previous_ = true;
    served_epoch_ = *latest;
    epoch_time_ = std::chrono::steady_clock::now();
    has_epoch_time_ = true;
    for (const auto& rec : store.lineage()) {
      if (rec.epoch == *latest) last_lambda_ = rec.lambda;
    }
  }
}

EpochManager::ServingStatus EpochManager::serving_status() const {
  ServingStatus status;
  status.epoch = served_epoch_;
  status.serving = has_previous_;
  status.degraded = failed_since_commit_ > 0;
  status.rebuilds_behind = failed_since_commit_;
  if (has_epoch_time_) {
    status.age_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - epoch_time_)
                             .count();
  }
  return status;
}

PpiIndex EpochManager::current_index() const {
  require(has_previous_, "EpochManager: no epoch has been built yet");
  return PpiIndex(previous_);
}

const eppi::BitMatrix& EpochManager::current_matrix() const {
  require(has_previous_, "EpochManager: no epoch has been built yet");
  return previous_;
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
    if (!has_previous_) throw;  // nothing to fall back to
    ++failed_rebuilds_;
    ++failed_since_commit_;
    last_failure_ = failure.what();
    span.event("serve.rebuild_failed");
    obs::Registry::global()
        .counter("eppi_serving_failed_rebuilds_total", {},
                 "Distributed rebuilds that aborted into degraded serving")
        .add();
    result.index = PpiIndex(previous_);
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

  eppi::BitMatrix published = built.index.matrix();
  zero_retired_rows(published);
  const std::size_t churn = churn_against_previous(published);
  adopt_epoch(published, built.report.lambda);
  // The distributed constructor derives β inside the MPC, so the retained
  // centralized derivation state no longer matches what is being served.
  has_last_info_ = false;
  span.attr("epoch", epoch_);
  span.attr("churn", churn);
  record_churn_metrics(churn, /*delta=*/false);
  result.epoch = epoch_;
  result.churn = churn;
  result.report = std::move(built.report);
  result.index = PpiIndex(std::move(published));
  return result;
}

EpochManager::DistributedEpochResult EpochManager::rebuild_delta_distributed(
    const eppi::BitMatrix& truth, std::span<const double> epsilons,
    const DeltaRequest& request, const DistributedOptions& options) {
  const std::size_t m = truth.rows();
  const std::size_t n = truth.cols();
  require(epsilons.size() == n, "EpochManager: epsilon count mismatch");
  apply_membership(request, m);

  if (!has_previous_ || previous_.rows() > m || previous_.cols() > n) {
    DistributedEpochResult result = rebuild_distributed(truth, epsilons,
                                                        options);
    result.delta = DeltaStats{};
    return result;
  }

  obs::Span span("serve.rebuild_delta");
  span.attr("providers", m);
  span.attr("identities", n);
  span.attr("distributed", true);

  const bool shape_changed = previous_.rows() != m || previous_.cols() != n;

  std::vector<std::uint8_t> dirty(n, 0);
  for (const IdentityId j : request.dirty) {
    require(j < n, "EpochManager: dirty identity out of range");
    dirty[j] = 1;
  }
  for (std::size_t j = previous_.cols(); j < n; ++j) dirty[j] = 1;
  std::vector<IdentityId> dirty_ids;
  for (std::size_t j = 0; j < n; ++j) {
    if (dirty[j]) dirty_ids.push_back(static_cast<IdentityId>(j));
  }

  // The sub-run is an active-providers × dirty-identities job: retired rows
  // never participate again, and a joining party enters here — after having
  // synced the sticky master key from the manifest via attach_store on its
  // own replica.
  std::vector<ProviderId> active;
  for (std::size_t i = 0; i < m; ++i) {
    if (!(i < retired_.size() && retired_[i])) {
      active.push_back(static_cast<ProviderId>(i));
    }
  }
  require(active.size() >= 2,
          "EpochManager: delta rebuild needs at least two active providers");

  DistributedEpochResult result;
  result.delta.delta = true;
  result.delta.recomputed = dirty_ids.size();
  result.delta.spliced_rows = request.joined.size();

  DistributedResult built;
  bool ran_sub = false;
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
      ran_sub = true;
    } catch (const eppi::ProtocolError& failure) {
      ++failed_rebuilds_;
      ++failed_since_commit_;
      last_failure_ = failure.what();
      span.event("serve.rebuild_failed");
      obs::Registry::global()
          .counter("eppi_serving_failed_rebuilds_total", {},
                   "Distributed rebuilds that aborted into degraded serving")
          .add();
      result.index = PpiIndex(previous_);
      result.epoch = served_epoch_;
      result.degraded = true;
      result.failure = last_failure_;
      result.churn = pending_churn(truth);
      record_churn_metrics(result.churn, /*delta=*/true);
      return result;
    }
  }

  // Splice the recomputed columns over the previous epoch. λ only widens
  // (max of previous and sub-run) so the decoy set stays monotone across
  // partial recomputes.
  eppi::BitMatrix published(m, n);
  if (!shape_changed) {
    published = previous_;
  } else {
    for (std::size_t i = 0; i < previous_.rows(); ++i) {
      for (std::size_t j = 0; j < previous_.cols(); ++j) {
        if (previous_.get(i, j)) published.set(i, j, true);
      }
    }
  }
  std::size_t flips = 0;
  const auto write_cell = [&](std::size_t i, std::size_t j, bool bit) {
    if (published.get(i, j) != bit) {
      ++flips;
      published.set(i, j, bit);
    }
  };
  for (std::size_t p = 0; p < m; ++p) {
    if (p < retired_.size() && retired_[p]) {
      for (std::size_t j = 0; j < n; ++j) write_cell(p, j, false);
    }
  }
  if (ran_sub) {
    const eppi::BitMatrix& sub_published = built.index.matrix();
    for (std::size_t d = 0; d < dirty_ids.size(); ++d) {
      const std::size_t j = dirty_ids[d];
      for (std::size_t a = 0; a < active.size(); ++a) {
        write_cell(active[a], j, sub_published.get(a, d));
      }
      // Retired rows in a recomputed column stay zero — handled above.
    }
  }
  const std::size_t churn = shape_changed ? m * n : flips;
  const double lambda =
      std::max(last_lambda_, ran_sub ? built.report.lambda : 0.0);

  EpochStore::EpochDelta rec;
  rec.epoch = epoch_ + 1;
  rec.base_epoch = epoch_;
  rec.rows = m;
  rec.cols = n;
  rec.lambda = lambda;
  rec.joined = request.joined;
  rec.left = request.left;
  for (const IdentityId j : dirty_ids) {
    EpochStore::EpochDelta::Column col;
    col.identity = j;
    col.bits.assign((m + 7) / 8, 0);
    for (std::size_t i = 0; i < m; ++i) {
      if (published.get(i, j)) col.bits[i >> 3] |= 1u << (i & 7);
    }
    rec.col_splices.push_back(std::move(col));
  }
  rec.postings_crc = postings_checksum(published);

  adopt_epoch(published, lambda, &rec);
  has_last_info_ = false;
  span.attr("epoch", epoch_);
  span.attr("churn", churn);
  span.attr("recomputed", dirty_ids.size());
  record_churn_metrics(churn, /*delta=*/true);

  result.epoch = epoch_;
  result.churn = churn;
  result.delta.affected_ids = std::move(dirty_ids);
  if (ran_sub) result.report = std::move(built.report);
  result.index = PpiIndex(std::move(published));
  return result;
}

}  // namespace eppi::core
