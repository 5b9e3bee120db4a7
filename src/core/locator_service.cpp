#include "core/locator_service.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <span>
#include <string>
#include <utility>

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

// `facts` with each identity's facts in one run: the facts themselves when
// they ascend by identity (a collection file grouped by owner loads that
// way), else a stable counting sort of them by identity into `sorted`.
std::span<const eppi::MembershipFact> group_by_identity(
    std::span<const eppi::MembershipFact> facts, std::size_t identities,
    std::vector<eppi::MembershipFact>& sorted) {
  const auto identity = [](const eppi::MembershipFact& f) {
    return f.identity;
  };
  if (std::ranges::is_sorted(facts, {}, identity)) return facts;
  std::vector<std::size_t> start(identities + 1, 0);
  for (const auto& f : facts) ++start[f.identity + 1];
  for (std::size_t x = 0; x < identities; ++x) start[x + 1] += start[x];
  sorted.resize(facts.size());
  for (const auto& f : facts) sorted[start[f.identity]++] = f;
  return sorted;
}

// Adds the providers of one owner's facts to its list, which stays
// ascending and distinct. With fewer providers (list and run together)
// than the bitmap `seen` has words, the run is appended and the list
// sorted only if the run does not extend it in order. Otherwise they are
// set in `seen` (one bit per provider, all clear between calls) and read
// back in order: m/64 words, no more than the k providers themselves,
// where a sort costs k log k. On the daemon benchmark's collection
// (m = 1000) the 2% of owners past 16 facts hold 70% of the facts.
void add_run(std::vector<ProviderId>& holders,
             std::span<const eppi::MembershipFact> run,
             std::span<const ProviderId> provider_id,
             std::vector<std::uint64_t>& seen) {
  if (holders.size() + run.size() < seen.size()) {
    holders.reserve(holders.size() + run.size());
    for (const auto& f : run) holders.push_back(provider_id[f.provider]);
    if (std::adjacent_find(holders.begin(), holders.end(),
                           std::greater_equal<>()) != holders.end()) {
      sort_unique(holders);
    }
    return;
  }
  const auto mark = [&seen](ProviderId p) {
    seen[p >> 6] |= std::uint64_t{1} << (p & 63);
  };
  for (const ProviderId p : holders) mark(p);
  for (const auto& f : run) mark(provider_id[f.provider]);
  holders.clear();
  holders.reserve(run.size());
  for (std::size_t w = 0; w < seen.size(); ++w) {
    for (std::uint64_t bits = std::exchange(seen[w], 0); bits != 0;
         bits &= bits - 1) {
      holders.push_back(
          static_cast<ProviderId>(64 * w + std::countr_zero(bits)));
    }
  }
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
  const IdentityId t = owners_.insert(name);
  if (t == epsilons_.size()) {
    epsilons_.push_back(options_.default_epsilon);
    dirty_owners_.push_back(1);  // a new column is dirty by definition
    truth_.owners.emplace_back();
  }
  return t;
}

const std::string& LocatorService::provider_name(ProviderId p) const {
  require(p < provider_names_.size(), "LocatorService: unknown provider id");
  return provider_names_[p];
}

std::string LocatorService::owner_name(IdentityId t) const {
  require(t < owners_.size(), "LocatorService: unknown owner id");
  return owners_.name_of(t);
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
  // Ids as a per-fact loop over the facts in provider-major order gives
  // them, whatever order they arrive in: new providers by index, new
  // owners by (smallest provider index among their facts, identity index).
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  std::vector<std::uint32_t> first_provider(owner_names.size(), kUnseen);
  std::vector<ProviderId> provider_id(provider_names.size(), kUnseen);
  for (const auto& f : facts) {
    require(f.identity < owner_names.size() &&
                f.provider < provider_names.size(),
            "LocatorService: fact names an owner or provider out of range");
    first_provider[f.identity] = std::min(first_provider[f.identity],
                                          f.provider);
    provider_id[f.provider] = 0;  // named by a fact: registered below
  }
  if (facts.empty()) return;
  obs::Span span("serve.delegate");
  span.attr("facts", facts.size());

  for (std::size_t p = 0; p < provider_id.size(); ++p) {
    if (provider_id[p] != kUnseen) {
      provider_id[p] = register_provider(provider_names[p]);
    }
  }
  // The owners a fact names, counting-sorted by first provider; a scan in
  // identity order keeps each bucket in identity order.
  std::vector<std::uint32_t> start(provider_names.size() + 1, 0);
  for (const std::uint32_t p : first_provider) {
    if (p != kUnseen) ++start[p + 1];
  }
  for (std::size_t p = 0; p < provider_names.size(); ++p) {
    start[p + 1] += start[p];
  }
  std::vector<std::uint32_t> order(start.back());
  for (std::uint32_t x = 0; x < first_provider.size(); ++x) {
    if (first_provider[x] != kUnseen) order[start[first_provider[x]]++] = x;
  }
  std::vector<IdentityId> owner_id(owner_names.size(), kUnseen);
  for (const std::uint32_t x : order) {
    owner_id[x] = owners_.insert(owner_names[x]);
  }
  merge_lexicon();
  const std::size_t n = owners_.size();
  epsilons_.resize(n, options_.default_epsilon);
  dirty_owners_.resize(n, 1);  // a new column is dirty by definition
  truth_.owners.resize(n);
  span.attr("owners", n);

  // Each owner's facts are one run, added to its list in one step.
  std::vector<eppi::MembershipFact> sorted;
  const std::span<const eppi::MembershipFact> runs =
      group_by_identity(facts, owner_names.size(), sorted);
  std::vector<std::uint64_t> seen((provider_names_.size() + 63) / 64, 0);
  for (std::size_t at = 0, end = 0; at < runs.size(); at = end) {
    while (end < runs.size() && runs[end].identity == runs[at].identity) {
      ++end;
    }
    const IdentityId t = owner_id[runs[at].identity];
    add_run(truth_.owners[t], runs.subspan(at, end - at), provider_id, seen);
    epsilons_[t] = epsilon;
    dirty_owners_[t] = 1;
  }
  built_ = false;
  index_.reset();
  report_.reset();
}

double LocatorService::owner_epsilon(IdentityId t) const {
  require(t < epsilons_.size(), "LocatorService: unknown owner id");
  return epsilons_[t];
}

void LocatorService::merge_lexicon() {
  if (owners_.pending_size() == 0) return;
  obs::Span span("serve.lexicon");
  span.attr("names", owners_.pending_size());
  owners_.merge();
  span.attr("owners", owners_.size());
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
  span.attr("owners", owners_.size());
  span.attr("distributed", options_.distributed);
  const std::size_t n = owners_.size();
  dirty_owners_.resize(n, 0);

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
  // Freeze the owner catalog the epoch is built against, every owner
  // registered since the last epoch merged in; a store-attached manager
  // persists it with a full-epoch commit (eppi-index-v3 lexicon section)
  // so a recovered store answers by name too.
  merge_lexicon();
  manager_.set_commit_lexicon(std::make_shared<const Lexicon>(owners_));

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
  if (lexicon != nullptr && !lexicon->empty() && owners_.empty()) {
    // A fresh process attaching a populated store has no in-memory owner
    // catalog; the committed epoch carries one (v3 lexicon section).
    // Adopt it (the copy shares its base) so the recovered epoch answers by
    // name immediately — the restored owners are dirty-by-definition, like
    // any new registration, and re-delegate their facts before the next
    // rebuild. The persisted ids are the index's column numbers and stay
    // as they are; new owners are numbered after them.
    owners_ = *lexicon;
    epsilons_.assign(owners_.size(), options_.default_epsilon);
    dirty_owners_.assign(owners_.size(), 1);
    truth_.owners.resize(owners_.size());
  }
  publish_with(manager_.served_postings());
}

void LocatorService::publish_with(
    std::shared_ptr<const PostingIndex> postings) {
  obs::Span span("serve.publish");
  auto snap = std::make_shared<EpochSnapshot>();
  snap->postings = std::move(postings);
  snap->owners = std::make_shared<const Lexicon>(owners_);
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
              "Heap bytes of the served owner-name lexicon: front-coded "
              "base, its rank hash table and the names pending a merge")
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
  const std::optional<IdentityId> t = owners_.find(owner);
  require(t.has_value(), "LocatorService: unknown owner");
  require(built_, "LocatorService: ConstructPPI has not been run");

  SearchResult result;
  for (const ProviderId p : acquire_serving()->postings->query(*t)) {
    const std::string& name = provider_names_[p];
    result.contacted.push_back(name);
    if (authorize && !authorize(searcher, name)) {
      result.denied.push_back(name);
      continue;
    }
    if (truth_.holds(p, *t)) result.matched.push_back(name);
  }
  return result;
}

}  // namespace eppi::core
