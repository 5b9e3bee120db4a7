#include "core/locator_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>

#include "common/clock.h"

#include "common/error.h"
#include "core/constructor.h"
#include "core/epoch_store.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace eppi::core {

namespace {

EpochManager::Options manager_options(const LocatorService::Options& o) {
  EpochManager::Options mo;
  mo.policy = o.policy;
  mo.enable_mixing = o.enable_mixing;
  mo.master_key = o.seed;
  mo.delta_base_interval = o.delta_base_interval;
  return mo;
}

void sort_unique(std::vector<ProviderId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

double elapsed_us(std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Provider ids as the by-name query entry points return them.
std::vector<std::string> names_of(const EpochSnapshot& snap,
                                  std::span<const ProviderId> ids) {
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (const ProviderId p : ids) names.emplace_back((*snap.provider_names)[p]);
  return names;
}

obs::Labels next_instance_labels() {
  static std::atomic<std::uint64_t> next{0};
  return obs::Labels{}.add(
      "instance", std::to_string(next.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

LocatorService::LocatorService() : LocatorService(Options{}) {}

LocatorService::LocatorService(Options options)
    : LocatorService(std::move(options), next_instance_labels()) {}

LocatorService::LocatorService(Options options, const obs::Labels& instance)
    : options_(std::move(options)),
      manager_(manager_options(options_)),
      queries_(obs::Registry::global().counter(
          "eppi_serving_queries_total", instance,
          "Single-owner QueryPPI calls resolved")),
      batches_(obs::Registry::global().counter(
          "eppi_serving_batches_total", instance,
          "query_ppi_many calls resolved")),
      owners_resolved_(obs::Registry::global().counter(
          "eppi_serving_owners_resolved_total", instance,
          "Owners answered, single + batched")),
      unknown_owners_(obs::Registry::global().counter(
          "eppi_serving_unknown_owners_total", instance,
          "Lookups for owners absent from the served epoch")),
      epoch_swaps_(obs::Registry::global().counter(
          "eppi_serving_epoch_swaps_total", instance,
          "Epoch snapshot publications (swaps and staleness updates)")),
      degraded_serves_(obs::Registry::global().counter(
          "eppi_serving_degraded_serves_total", instance,
          "Queries answered from a stale (degraded) epoch")),
      latency_us_(obs::Registry::global().histogram(
          "eppi_serving_latency_us", instance,
          "Query latency in microseconds, log2 buckets")) {}

LocatorService::Metrics LocatorService::metrics() const {
  Metrics m;
  m.queries = queries_.value();
  m.batches = batches_.value();
  m.owners_resolved = owners_resolved_.value();
  m.unknown_owners = unknown_owners_.value();
  m.epoch_swaps = epoch_swaps_.value();
  m.degraded_serves = degraded_serves_.value();
  m.latency = latency_us_.snapshot();
  return m;
}

ProviderId LocatorService::register_provider(const std::string& name) {
  const auto [it, inserted] = provider_ids_.try_emplace(
      name, static_cast<ProviderId>(provider_names_.size()));
  if (inserted) {
    provider_names_.push_back(name);
    retired_providers_.push_back(0);
    truth_.providers = provider_names_.size();
    // A provider appearing after an epoch is already served enters through
    // the join protocol at the next construction round.
    if (manager_.serving()) pending_joined_.push_back(it->second);
  } else if (it->second < retired_providers_.size() &&
             retired_providers_[it->second] != 0) {
    // A retired name registering again is a rejoin: the id (and with it the
    // sticky noise key) is reused, and the row re-enters at the next round.
    retired_providers_[it->second] = 0;
    std::erase(pending_left_, it->second);
    pending_joined_.push_back(it->second);
  }
  return it->second;
}

IdentityId LocatorService::register_owner(const std::string& name) {
  const auto [it, inserted] = owner_ids_.try_emplace(
      name, static_cast<IdentityId>(owner_names_.size()));
  if (inserted) {
    owner_names_.push_back(name);
    epsilons_.push_back(options_.default_epsilon);
    dirty_owners_.push_back(1);  // a new column is dirty by definition
    truth_.owners.emplace_back();
    lexicon_dirty_ = true;
  }
  return it->second;
}

const std::string& LocatorService::provider_name(ProviderId p) const {
  require(p < provider_names_.size(), "LocatorService: unknown provider id");
  return provider_names_[p];
}

const std::string& LocatorService::owner_name(IdentityId t) const {
  require(t < owner_names_.size(), "LocatorService: unknown owner id");
  return owner_names_[t];
}

void LocatorService::delegate(const std::string& owner, double epsilon,
                              const std::string& provider) {
  require(epsilon >= 0.0 && epsilon <= 1.0,
          "LocatorService: epsilon must be in [0,1]");
  const IdentityId t = register_owner(owner);
  const ProviderId p = register_provider(provider);
  epsilons_[t] = epsilon;
  // Keep the owner's list ascending: loaders delegate provider by provider,
  // so the common case is an append; a repeated fact is a no-op.
  std::vector<ProviderId>& holders = truth_.owners[t];
  if (holders.empty() || holders.back() < p) {
    holders.push_back(p);
  } else {
    const auto at = std::lower_bound(holders.begin(), holders.end(), p);
    if (*at != p) holders.insert(at, p);
  }
  mark_owner_dirty(t);
  // The builder's index no longer reflects the data; the *published*
  // snapshot stays up for readers until the next construct_ppi() swap.
  built_ = false;
  index_.reset();
  report_.reset();
}

void LocatorService::delegate_facts(
    std::span<const std::string> owner_names,
    std::span<const std::string> provider_names,
    std::span<const eppi::MembershipFact> facts, double epsilon) {
  require(epsilon >= 0.0 && epsilon <= 1.0,
          "LocatorService: epsilon must be in [0,1]");
  for (const auto& f : facts) {
    require(f.identity < owner_names.size() &&
                f.provider < provider_names.size(),
            "LocatorService: fact names an owner or provider out of range");
  }
  if (facts.empty()) return;

  // Ids in the per-fact loop's order: a name is registered at its first
  // fact (the tables are sized for every name up front). Then each touched
  // owner's list is sized once for its new facts.
  owner_ids_.reserve(owner_ids_.size() + owner_names.size());
  owner_names_.reserve(owner_names_.size() + owner_names.size());
  epsilons_.reserve(owner_names_.capacity());
  dirty_owners_.reserve(owner_names_.capacity());
  truth_.owners.reserve(owner_names_.capacity());
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  std::vector<IdentityId> owner_id(owner_names.size(), kUnseen);
  std::vector<ProviderId> provider_id(provider_names.size(), kUnseen);
  for (const auto& f : facts) {
    if (owner_id[f.identity] == kUnseen) {
      owner_id[f.identity] = register_owner(owner_names[f.identity]);
    }
    if (provider_id[f.provider] == kUnseen) {
      provider_id[f.provider] = register_provider(provider_names[f.provider]);
    }
  }
  std::vector<std::uint32_t> added(truth_.owners.size(), 0);
  for (const auto& f : facts) ++added[owner_id[f.identity]];
  for (std::size_t t = 0; t < added.size(); ++t) {
    if (added[t] != 0) truth_.owners[t].reserve(truth_.owners[t].size() + added[t]);
  }

  // Facts in provider-major order append to every list in ascending order;
  // a list that received a smaller id (an older owner, or facts in another
  // order) is sorted once at the end. A repeated fact is a no-op.
  std::vector<std::uint8_t> unsorted(added.size(), 0);
  for (const auto& f : facts) {
    const IdentityId t = owner_id[f.identity];
    const ProviderId p = provider_id[f.provider];
    std::vector<ProviderId>& holders = truth_.owners[t];
    if (!holders.empty() && holders.back() >= p) {
      if (holders.back() == p) continue;
      unsorted[t] = 1;
    }
    holders.push_back(p);
  }
  for (std::size_t t = 0; t < added.size(); ++t) {
    if (added[t] == 0) continue;
    if (unsorted[t] != 0) sort_unique(truth_.owners[t]);
    epsilons_[t] = epsilon;
    mark_owner_dirty(static_cast<IdentityId>(t));
  }
  built_ = false;
  index_.reset();
  report_.reset();
}

double LocatorService::owner_epsilon(IdentityId t) const {
  require(t < epsilons_.size(), "LocatorService: unknown owner id");
  return epsilons_[t];
}

void LocatorService::mark_owner_dirty(IdentityId t) {
  if (t >= dirty_owners_.size()) dirty_owners_.resize(t + 1, 0);
  dirty_owners_[t] = 1;
}

void LocatorService::retire_provider(const std::string& name) {
  const auto it = provider_ids_.find(name);
  require(it != provider_ids_.end(), "LocatorService: unknown provider");
  const ProviderId p = it->second;
  if (retired_providers_[p] != 0) return;
  retired_providers_[p] = 1;
  // Joined-then-left within one round nets out to staying retired.
  std::erase(pending_joined_, p);
  pending_left_.push_back(p);
  // Withdraw its delegated facts; every identity it held changes global
  // frequency, so those columns must be recomputed.
  for (std::size_t t = 0; t < truth_.owners.size(); ++t) {
    std::vector<ProviderId>& holders = truth_.owners[t];
    const auto at = std::lower_bound(holders.begin(), holders.end(), p);
    if (at == holders.end() || *at != p) continue;
    holders.erase(at);
    mark_owner_dirty(static_cast<IdentityId>(t));
  }
  built_ = false;
  index_.reset();
  report_.reset();
}

bool LocatorService::provider_retired(ProviderId p) const {
  return p < retired_providers_.size() && retired_providers_[p] != 0;
}

void LocatorService::construct_ppi() {
  require(std::any_of(truth_.owners.begin(), truth_.owners.end(),
                      [](const auto& holders) { return !holders.empty(); }),
          "LocatorService: nothing delegated yet");
  obs::Span span("serve.build");
  span.attr("providers", provider_names_.size());
  span.attr("owners", owner_names_.size());
  span.attr("distributed", options_.distributed);
  const std::size_t n = owner_names_.size();
  dirty_owners_.resize(n, 0);
  // Freeze the owner catalog the epoch is built against; a store-attached
  // manager persists it with the full-epoch commit (eppi-index-v3 lexicon
  // section) so a recovered store answers by name too.
  manager_.set_commit_lexicon(serving_lexicon());

  EpochManager::DeltaRequest req;
  sort_unique(pending_joined_);
  sort_unique(pending_left_);
  req.joined = pending_joined_;
  req.left = pending_left_;
  const bool membership_pending = !req.joined.empty() || !req.left.empty();
  // The incremental path needs an in-memory base epoch to splice over.
  // Membership churn must route through it even with enable_delta off —
  // retirement and joins only take effect in the delta protocol — so in
  // that case everything is marked dirty instead (a full recompute carried
  // by the delta machinery).
  const bool may_delta =
      manager_.serving() && (options_.enable_delta || membership_pending);
  if (may_delta) {
    if (options_.enable_delta) {
      for (std::size_t j = 0; j < n; ++j) {
        if (dirty_owners_[j] != 0) req.dirty.push_back(static_cast<IdentityId>(j));
      }
    } else {
      req.dirty.resize(n);
      for (std::size_t j = 0; j < n; ++j) req.dirty[j] = static_cast<IdentityId>(j);
    }
  }
  // A partial distributed run reseeds the sub-protocol differently from a
  // full one; without membership churn forcing the delta protocol, prefer
  // the full rebuild (identical output to the pre-churn path).
  const bool use_delta =
      may_delta && (membership_pending || !options_.distributed);
  span.attr("delta", use_delta);

  last_rebuild_ = RebuildInfo{};
  last_rebuild_.dirty = req.dirty.size();
  last_rebuild_.joined = req.joined.size();
  last_rebuild_.left = req.left.size();
  std::shared_ptr<const PostingIndex> postings;
  const auto take = [&](const auto& result) {
    built_ = true;
    index_.reset();
    last_rebuild_.epoch = result.epoch;
    last_rebuild_.churn = result.churn;
    last_rebuild_.delta = result.delta.delta;
    last_rebuild_.recomputed = result.delta.recomputed;
    postings = result.postings;
  };

  if (options_.distributed) {
    DistributedOptions dopt;
    dopt.policy = options_.policy;
    dopt.enable_mixing = options_.enable_mixing;
    dopt.c = options_.c;
    dopt.seed = options_.seed;
    dopt.fault_tolerance = options_.fault_tolerance;
    // The MPC inputs are provider rows: the one place the service needs
    // the dense truth.
    const eppi::BitMatrix truth = dense_truth(truth_);
    auto result =
        use_delta ? manager_.rebuild_delta_distributed(truth, epsilons_, req, dopt)
                  : manager_.rebuild_distributed(truth, epsilons_, dopt);
    take(result);
    if (result.degraded) {
      // The rebuild aborted; we are serving the last committed epoch.
      // serving_status() carries the failure — the stale report (if any)
      // still describes the epoch actually being served. Readers get the
      // updated staleness accounting without an index copy. Dirty owners
      // and pending membership are KEPT so the next round retries them.
      last_rebuild_.degraded = true;
      publish_staleness_update();
      return;
    }
    report_ = std::move(result.report);
  } else {
    take(use_delta ? manager_.rebuild_delta(truth_, epsilons_, req)
                   : manager_.rebuild(truth_, epsilons_));
    report_.reset();
  }

  // The published epoch now reflects every pending change.
  std::fill(dirty_owners_.begin(), dirty_owners_.end(), 0);
  pending_joined_.clear();
  pending_left_.clear();
  publish_with(std::move(postings));  // the epoch the manager now serves
}

void LocatorService::attach_store(EpochStore& store) {
  std::shared_ptr<const Lexicon> lexicon = manager_.attach_store(store);
  if (!manager_.serving()) return;
  // Resume answering from the recovered epoch right away (the manager has
  // adopted the store's lineage); a later construct_ppi() replaces it with
  // a fresh one.
  built_ = true;
  index_.reset();
  if (lexicon != nullptr && !lexicon->empty() && owner_names_.empty()) {
    // A fresh process attaching a populated store has no in-memory owner
    // catalog; the committed epoch carries one (v3 lexicon section).
    // Restore it so the recovered epoch answers by name immediately — the
    // restored owners are dirty-by-definition, like any new registration,
    // and re-delegate their facts before the next rebuild. The persisted
    // ids must survive verbatim — they are the index's column numbers — so
    // names are seated at their id, not re-assigned in registration order.
    owner_names_.resize(lexicon->size());
    for (auto& [name, id] : lexicon->entries()) {
      owner_ids_.emplace(name, id);
      owner_names_[id] = std::move(name);
    }
    epsilons_.assign(owner_names_.size(), options_.default_epsilon);
    dirty_owners_.assign(owner_names_.size(), 1);
    truth_.owners.resize(owner_names_.size());
    lexicon_cache_ = std::move(lexicon);
    lexicon_dirty_ = false;
  }
  publish_with(manager_.served_postings());
}

std::shared_ptr<const Lexicon> LocatorService::serving_lexicon() {
  if (lexicon_dirty_ || lexicon_cache_ == nullptr) {
    std::vector<std::pair<std::string, IdentityId>> entries;
    entries.reserve(owner_names_.size());
    for (std::size_t t = 0; t < owner_names_.size(); ++t) {
      entries.emplace_back(owner_names_[t], static_cast<IdentityId>(t));
    }
    lexicon_cache_ = std::make_shared<const Lexicon>(std::move(entries));
    lexicon_dirty_ = false;
  }
  return lexicon_cache_;
}

void LocatorService::publish_with(
    std::shared_ptr<const PostingIndex> postings) {
  obs::Span span("serve.publish");
  auto snap = std::make_shared<EpochSnapshot>();
  snap->postings = std::move(postings);
  snap->owners = serving_lexicon();
  snap->provider_names =
      std::make_shared<const ProviderNameTable>(provider_names_);
  // Surface the compression story per publish: encoded payload by codec,
  // what the process actually holds, and the shard topology.
  {
    const PostingIndex::MemoryFootprint fp =
        snap->postings->memory_footprint();
    auto& reg = obs::Registry::global();
    for (std::size_t c = 0; c < kPostingCodecCount; ++c) {
      reg.gauge("eppi_index_bytes",
                {{"codec", to_string(static_cast<PostingCodec>(c))}},
                "Encoded posting payload bytes of the served index, by codec")
          .set(static_cast<std::int64_t>(fp.by_codec[c].payload_bytes));
    }
    reg.gauge("eppi_index_resident_bytes", {},
              "Resident bytes of the served posting index (arenas, offsets, "
              "presence bitmaps, shard structures)")
        .set(static_cast<std::int64_t>(fp.resident_bytes));
    reg.gauge("eppi_index_shards", {},
              "Shard count of the served posting index")
        .set(static_cast<std::int64_t>(fp.shards));
    reg.gauge("eppi_lexicon_bytes", {},
              "Heap bytes of the served owner-name lexicon")
        .set(static_cast<std::int64_t>(snap->owners->memory_bytes()));
  }
  const auto status = manager_.serving_status();
  snap->epoch = status.epoch;
  snap->degraded = status.degraded;
  snap->rebuilds_behind = status.rebuilds_behind;
  snap->built_at = std::chrono::steady_clock::now();
  span.attr("epoch", snap->epoch);
  span.attr("degraded", snap->degraded);
  snapshot_.publish(std::move(snap));
  epoch_swaps_.add();
}

void LocatorService::publish_staleness_update() {
  const auto prev = snapshot_.acquire();
  if (prev == nullptr) return;  // nothing published to re-label
  obs::Span span("serve.publish");
  span.attr("staleness_update", true);
  auto snap = std::make_shared<EpochSnapshot>(*prev);
  const auto status = manager_.serving_status();
  snap->epoch = status.epoch;
  snap->degraded = status.degraded;
  snap->rebuilds_behind = status.rebuilds_behind;
  span.attr("epoch", snap->epoch);
  span.attr("degraded", snap->degraded);
  // built_at is kept: the served content is unchanged and keeps aging.
  snapshot_.publish(std::move(snap));
  epoch_swaps_.add();
}

std::shared_ptr<const EpochSnapshot> LocatorService::acquire_serving() const {
  auto snap = snapshot_.acquire();
  require(snap != nullptr, "LocatorService: ConstructPPI has not been run");
  return snap;
}

void LocatorService::resolve_ids(const EpochSnapshot& snap,
                                 std::span<const std::string> owners,
                                 BatchIds& out) const {
  // Resolve every name first (ends[k] holds owners[k]'s id meanwhile), so
  // the answer is sized once from the rows' count peeks and each row is
  // decoded straight into it.
  out.ids.clear();
  out.ends.clear();
  out.ends.reserve(owners.size());
  std::size_t total = 0;
  for (const auto& owner : owners) {
    const std::optional<IdentityId> id = snap.owners->find(owner);
    if (!id.has_value()) {
      unknown_owners_.add();
      throw UnknownOwnerError("LocatorService: unknown owner");
    }
    out.ends.push_back(*id);
    total += snap.postings->apparent_frequency(*id);
  }
  out.ids.reserve(total);
  for (std::size_t& end : out.ends) {
    snap.postings->append_postings(static_cast<IdentityId>(end), out.ids);
    end = out.ids.size();
  }
}

std::vector<std::string> LocatorService::resolve(
    const EpochSnapshot& snap, const std::string& owner) const {
  BatchIds answer;
  resolve_ids(snap, std::span<const std::string>(&owner, 1), answer);
  return names_of(snap, answer.ids);
}

EpochManager::ServingStatus LocatorService::serving_status() const {
  const auto snap = snapshot_.acquire();
  EpochManager::ServingStatus status;
  if (snap == nullptr) return status;  // serving = false
  status.epoch = snap->epoch;
  status.serving = true;
  status.degraded = snap->degraded;
  status.rebuilds_behind = snap->rebuilds_behind;
  status.age_seconds = snap->age_seconds();
  return status;
}

std::vector<std::string> LocatorService::query_ppi(
    const std::string& owner) const {
  const auto start = std::chrono::steady_clock::now();
  const auto snap = acquire_serving();
  std::vector<std::string> result = resolve(*snap, owner);
  if (snap->degraded) degraded_serves_.add();
  queries_.add();
  owners_resolved_.add();
  latency_us_.record(elapsed_us(start));
  return result;
}

LocatorService::QueryResult LocatorService::query_ppi_with_status(
    const std::string& owner) const {
  const auto start = std::chrono::steady_clock::now();
  const auto snap = acquire_serving();
  QueryResult result;
  result.providers = resolve(*snap, owner);
  result.epoch = snap->epoch;
  result.degraded = snap->degraded;
  result.rebuilds_behind = snap->rebuilds_behind;
  result.age_seconds = snap->age_seconds();
  if (snap->degraded) degraded_serves_.add();
  queries_.add();
  owners_resolved_.add();
  latency_us_.record(elapsed_us(start));
  return result;
}

void LocatorService::query_ppi_ids(std::span<const std::string> owners,
                                   BatchIds& out) const {
  obs::Span span("query.ppi_many");
  span.attr("batch", static_cast<std::uint64_t>(owners.size()));
  const auto start = std::chrono::steady_clock::now();
  out.snapshot = acquire_serving();
  const EpochSnapshot& snap = *out.snapshot;
  resolve_ids(snap, owners, out);
  std::size_t resolved = 0;
  for (std::size_t k = 0; k < owners.size(); ++k) {
    if (!out.providers(k).empty()) ++resolved;
  }
  if (snap.degraded) degraded_serves_.add();
  const std::uint64_t us = elapsed_us(start);
  batches_.add();
  owners_resolved_.add(owners.size());
  latency_us_.record(us);
  span.attr("resolved", static_cast<std::uint64_t>(resolved));
  span.attr("epoch", snap.epoch);
  // Sizes, timings, and trace ids only — never owner names (the slow log is
  // exported over /slowlog, and query contents are exactly what the paper's
  // privacy model hides).
  obs::SlowQueryLog::Entry entry;
  const obs::SpanContext ctx = span.context();
  entry.trace_id = ctx.trace_id;
  entry.span_id = ctx.span_id;
  entry.at_ns = monotonic_ns();
  entry.duration_us = us;
  entry.batch = owners.size();
  entry.resolved = resolved;
  entry.epoch = snap.epoch;
  obs::SlowQueryLog::global().offer(entry);
}

LocatorService::BatchQueryResult LocatorService::query_ppi_many(
    std::span<const std::string> owners) const {
  BatchIds answer;
  query_ppi_ids(owners, answer);
  const EpochSnapshot& snap = *answer.snapshot;
  BatchQueryResult result;
  result.providers.reserve(owners.size());
  for (std::size_t k = 0; k < owners.size(); ++k) {
    result.providers.push_back(names_of(snap, answer.providers(k)));
  }
  result.epoch = snap.epoch;
  result.degraded = snap.degraded;
  result.rebuilds_behind = snap.rebuilds_behind;
  result.age_seconds = snap.age_seconds();
  return result;
}

const PpiIndex& LocatorService::index() const {
  require(built_, "LocatorService: ConstructPPI has not been run");
  if (!index_.has_value()) {
    index_.emplace(manager_.served_postings()->to_matrix_index());
  }
  return *index_;
}

LocatorService::SearchResult LocatorService::search(
    const std::string& searcher, const std::string& owner,
    const Authorizer& authorize) const {
  const auto it = owner_ids_.find(owner);
  require(it != owner_ids_.end(), "LocatorService: unknown owner");
  require(built_, "LocatorService: ConstructPPI has not been run");

  SearchResult result;
  for (const ProviderId p : acquire_serving()->postings->query(it->second)) {
    const std::string& name = provider_names_[p];
    result.contacted.push_back(name);
    if (authorize && !authorize(searcher, name)) {
      result.denied.push_back(name);
      continue;
    }
    if (truth_.holds(p, it->second)) result.matched.push_back(name);
  }
  return result;
}

}  // namespace eppi::core
