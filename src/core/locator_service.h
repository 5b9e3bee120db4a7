// The four-operation system facade (paper §II-A).
//
// The paper formulates the system as four interactions between owners,
// providers, the PPI server and searchers:
//
//   Delegate(<t_j, ε_j>, p_i)   — an owner places records at a provider and
//                                 states a personal privacy degree;
//   ConstructPPI({ε_j})         — all providers jointly build the index;
//   QueryPPI(t_j) -> {p_i}      — a searcher asks the locator service;
//   AuthSearch(s, {p_i}, t_j)   — the searcher authenticates at each
//                                 candidate provider and searches locally.
//
// LocatorService packages the library's pieces behind exactly that surface:
// registration by name, delegation with an ε knob, construction via either
// the centralized reference path or the trust-free distributed protocol,
// and the two-phase search with pluggable per-provider access control.
//
// Concurrency model (single writer / wait-free readers):
//
//   * The QUERY tier — query_ppi, query_ppi_with_status, query_ppi_many,
//     serving_status, metrics — is safe from any number of threads,
//     concurrently with the mutation tier. Readers resolve against an
//     immutable EpochSnapshot acquired with one atomic load
//     (core/epoch_snapshot.h); a rebuild never invalidates an answer in
//     flight, and an epoch stays alive until its last reader drops it.
//   * The MUTATION tier — register_*, delegate, construct_ppi,
//     attach_store, set_fault_tolerance — plus the builder-state accessors
//     (index, last_report, search, membership_for_testing) is
//     single-threaded: callers serialize writers externally, as everywhere
//     else in the library. A successful rebuild is committed to readers by
//     a single snapshot-pointer swap; until that instant they keep
//     answering from the previous epoch.
//   * Delegating does NOT unpublish: readers keep getting the last built
//     epoch (with its honest epoch/staleness labels) until the next
//     construct_ppi() swaps the fresh one in. constructed()/index() still
//     describe the builder's view, where a delegation invalidates the
//     index until it is rebuilt.
#pragma once

#include <cstdint>
#include <utility>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bit_matrix.h"
#include "common/membership_fact.h"
#include "common/rng.h"
#include "core/beta_policy.h"
#include "core/distributed_constructor.h"
#include "core/epoch_manager.h"
#include "core/epoch_snapshot.h"
#include "core/owner_truth.h"
#include "core/ppi_index.h"
#include "obs/registry.h"

namespace eppi::core {

class EpochStore;

// Every QueryPPI entry point throws this for an owner the served epoch does
// not know. A ConfigError, so callers that treat bad input alike still can;
// the daemon answers it 404, not 500.
class UnknownOwnerError : public eppi::ConfigError {
 public:
  using eppi::ConfigError::ConfigError;
};

class LocatorService {
 public:
  struct Options {
    BetaPolicy policy = BetaPolicy::chernoff(0.9);
    bool enable_mixing = true;
    // Construction mode: the distributed secure protocol (the paper's
    // realization; requires >= c providers) or the centralized reference.
    bool distributed = true;
    std::size_t c = 3;
    std::uint64_t seed = 1;
    // If an owner never stated a degree, this one applies.
    double default_epsilon = 0.5;
    // Dropout tolerance for distributed construction (timeouts, reliable
    // delivery, injected fault scenarios for tests).
    FaultToleranceOptions fault_tolerance;
    // Incremental epochs: when a previous epoch exists, construct_ppi()
    // recomputes only the owners touched since the last build and splices
    // their rows over it (centralized mode: bit-identical to a full
    // rebuild; with every owner dirty it costs about one).
    // Membership churn (joins/retirements) always routes through the delta
    // protocol regardless of this flag — retirement only takes effect
    // there.
    bool enable_delta = true;
    // Journal bound: see EpochManager::Options::delta_base_interval.
    std::size_t delta_base_interval = 16;
  };

  LocatorService();  // default options
  explicit LocatorService(Options options);

  // --- registration -----------------------------------------------------
  // Registering is idempotent; both return the stable numeric id.
  ProviderId register_provider(const std::string& name);
  IdentityId register_owner(const std::string& name);

  std::size_t n_providers() const noexcept { return provider_names_.size(); }
  std::size_t n_owners() const noexcept { return owner_names_.size(); }
  const std::string& provider_name(ProviderId p) const;
  const std::string& owner_name(IdentityId t) const;

  // --- Delegate(<t, eps>, p) ---------------------------------------------
  // Records the membership fact and the owner's privacy degree. Repeating a
  // delegation updates ε. Unknown names auto-register. Throws ConfigError
  // for ε outside [0,1]. Concurrent readers keep being served from the last
  // published epoch, which does not yet reflect this delegation.
  void delegate(const std::string& owner, double epsilon,
                const std::string& provider);

  // Bulk Delegate: every fact of a loaded collection at one ε. Fact k
  // says provider_names[facts[k].provider] holds owner_names[facts[k].
  // identity]'s records. The result — ids, truth lists, ε, dirty owners and
  // pending joins — equals calling delegate() fact by fact in `facts`'
  // order, but each name is registered once and each owner's list is sized
  // once, with no hashing per fact. Names no fact refers to are not
  // registered. Throws ConfigError (before changing anything) for ε
  // outside [0,1] or a fact indexing past either name table.
  void delegate_facts(std::span<const std::string> owner_names,
                      std::span<const std::string> provider_names,
                      std::span<const eppi::MembershipFact> facts,
                      double epsilon);
  // The privacy degree owner t last delegated with (the default before).
  double owner_epsilon(IdentityId t) const;

  // --- membership churn ---------------------------------------------------
  // Retires a provider: its delegated facts are withdrawn, the identities it
  // held become dirty, and from the next construct_ppi() on its published
  // row is zeroed in every epoch (a deliberate leave, not a crash — crashes
  // are the fault-tolerance layer's job). The numeric id is never reused; a
  // later registration or delegation under the same name rejoins the
  // provider at the next construction round with its sticky noise key
  // intact. Idempotent; throws ConfigError for an unknown name.
  void retire_provider(const std::string& name);
  bool provider_retired(ProviderId p) const;

  // --- ConstructPPI -------------------------------------------------------
  // (Re)builds the index over everything delegated so far and publishes it
  // to concurrent readers with one atomic snapshot swap. Throws ConfigError
  // if nothing was delegated or the distributed mode lacks providers for
  // the chosen c.
  //
  // Construction runs through an internal EpochManager, so repeated rebuilds
  // keep publication noise and mixing decisions sticky, and a distributed
  // rebuild that aborts mid-protocol degrades gracefully: the service keeps
  // answering from the last successful epoch (see serving_status()) instead
  // of going dark.
  void construct_ppi();

  bool constructed() const noexcept { return built_; }
  // The builder's view of the served epoch as a dense index, materialized
  // from its postings (to_matrix_index) on first use after each
  // construction. Nothing in the service calls it.
  const PpiIndex& index() const;

  // How the most recent construct_ppi() ran — whether the incremental path
  // engaged, how much it recomputed, and what it cost in published-cell
  // churn. Builder-side (mutation tier).
  struct RebuildInfo {
    bool delta = false;      // the incremental path actually engaged
    bool degraded = false;   // the rebuild aborted; serving the stale epoch
    std::size_t dirty = 0;   // owner columns requested dirty
    std::size_t recomputed = 0;  // columns actually republished (λ-widened)
    std::size_t joined = 0;
    std::size_t left = 0;
    std::size_t churn = 0;   // published cells that changed
    std::uint64_t epoch = 0;
  };
  const RebuildInfo& last_rebuild() const noexcept { return last_rebuild_; }

  // Adjusts the dropout-tolerance knobs for subsequent construct_ppi()
  // runs (epoch state and sticky randomness are untouched).
  void set_fault_tolerance(const FaultToleranceOptions& ft) {
    options_.fault_tolerance = ft;
  }
  // Construction diagnostics of the last distributed run (nullopt in
  // centralized mode).
  const std::optional<DistributedReport>& last_report() const noexcept {
    return report_;
  }

  // --- durability ----------------------------------------------------------
  // Attaches a durable epoch store (core/epoch_store.h). The store's
  // recorded sticky state overrides the configured seed-derived one, every
  // successful construction is committed before it is served, and if the
  // store holds a committed epoch the service resumes serving it immediately
  // (degraded-mode answers survive a process restart): the recovered epoch
  // is published to readers the same way a rebuilt one is.
  void attach_store(EpochStore& store);

  // Epoch/staleness of what queries are currently answered from. Reader-
  // safe: derived from the published snapshot, so it describes exactly what
  // a concurrent query_ppi would be answered from.
  EpochManager::ServingStatus serving_status() const;

  // --- QueryPPI(t) ---------------------------------------------------------
  // Provider names that may hold the owner's records. Throws ConfigError if
  // nothing has been published yet, UnknownOwnerError if the owner is
  // unknown to the served epoch. Wait-free with respect to concurrent
  // rebuilds.
  std::vector<std::string> query_ppi(const std::string& owner) const;

  // query_ppi plus the staleness of the answer: which epoch served it,
  // whether the service is degraded (a rebuild failed since), how many
  // rebuilds behind the answer is, and its age.
  struct QueryResult {
    std::vector<std::string> providers;
    std::uint64_t epoch = 0;
    bool degraded = false;
    std::size_t rebuilds_behind = 0;
    double age_seconds = 0.0;
  };
  QueryResult query_ppi_with_status(const std::string& owner) const;

  // Batched QueryPPI in provider ids — the one resolve path every query
  // entry point wraps. Pins ONE snapshot, so the whole batch is answered
  // from a single consistent epoch even while a rebuild swaps snapshots
  // mid-flight; resolves each owner with Lexicon::find and decodes its
  // posting list with PostingIndex::append_postings straight into `ids`. No
  // per-provider string is made: a caller that wants names reads them from
  // snapshot->provider_names. Throws UnknownOwnerError if any owner is
  // unknown to the served epoch (`out` is then unspecified). Records the
  // batch in the serving counters, the latency histogram, a
  // `query.ppi_many` span and the slow-query log.
  struct BatchIds {
    // The epoch that answered, with its name table and staleness labels.
    std::shared_ptr<const EpochSnapshot> snapshot;
    // Every answer in request order, each ascending; owners[k]'s providers
    // are ids[ends[k-1] .. ends[k]) (from 0 for k = 0).
    std::vector<ProviderId> ids;
    std::vector<std::size_t> ends;

    std::span<const ProviderId> providers(std::size_t k) const {
      const std::size_t begin = k == 0 ? 0 : ends[k - 1];
      return std::span<const ProviderId>(ids).subspan(begin,
                                                      ends[k] - begin);
    }
  };
  void query_ppi_ids(std::span<const std::string> owners,
                     BatchIds& out) const;

  // Batched QueryPPI by name: query_ppi_ids with every id turned into its
  // provider name. providers[k] answers owners[k]. Throws UnknownOwnerError
  // (before returning any answers) if any owner is unknown to the served
  // epoch.
  struct BatchQueryResult {
    std::vector<std::vector<std::string>> providers;
    std::uint64_t epoch = 0;
    bool degraded = false;
    std::size_t rebuilds_behind = 0;
    double age_seconds = 0.0;
  };
  BatchQueryResult query_ppi_many(std::span<const std::string> owners) const;

  // Serving-tier counters and latency distribution (lock-free; safe from
  // any thread). The same instruments are exported by the global
  // obs::Registry as eppi_serving_* under this service's `instance` label.
  struct Metrics {
    std::uint64_t queries = 0;          // single-owner query calls
    std::uint64_t batches = 0;          // query_ppi_many calls
    std::uint64_t owners_resolved = 0;  // owners answered, single + batched
    std::uint64_t unknown_owners = 0;
    std::uint64_t epoch_swaps = 0;      // snapshot publications
    std::uint64_t degraded_serves = 0;
    obs::Histogram::Snapshot latency;   // microseconds per call
  };
  Metrics metrics() const;

  // --- AuthSearch(s, {p}, t) -----------------------------------------------
  struct SearchResult {
    std::vector<std::string> contacted;
    std::vector<std::string> denied;   // authorization failed
    std::vector<std::string> matched;  // records found
  };

  using Authorizer =
      std::function<bool(const std::string& searcher,
                         const std::string& provider)>;

  // Runs the full two-phase search: the owner's posting row in the served
  // snapshot, then each candidate. The default authorizer grants access.
  // Builder-side (consults the ground-truth membership): not safe
  // concurrently with mutations.
  SearchResult search(const std::string& searcher, const std::string& owner,
                      const Authorizer& authorize = {}) const;

  // Ground-truth membership (the union of providers' private repositories)
  // as a dense matrix built from the per-owner truth; exposed for
  // experiments and tests, not part of the public protocol.
  eppi::BitMatrix membership_for_testing() const {
    return dense_truth(truth_);
  }

 private:
  // All seven serving instruments share one freshly minted `instance` label,
  // so services in one process (common in tests) never share counters.
  LocatorService(Options options, const obs::Labels& instance);

  void mark_owner_dirty(IdentityId t);
  // Writer side: freeze `postings` (the manager's served epoch), the owner
  // catalog and the manager's staleness into a new immutable snapshot and
  // swap it in.
  void publish_with(std::shared_ptr<const PostingIndex> postings);
  // Writer side, degraded rebuild: republish the already-served epoch with
  // updated staleness accounting (shares the served postings; no copy).
  void publish_staleness_update();
  // Writer side: the frozen owner-name catalog for the next snapshot —
  // rebuilt from the registration state only when an owner was added since
  // the last publication, shared (two refcounts) otherwise.
  std::shared_ptr<const Lexicon> serving_lexicon();
  // Reader side: the served snapshot, or ConfigError if none is published.
  std::shared_ptr<const EpochSnapshot> acquire_serving() const;
  // The resolve loop under every query entry point: appends each owner's
  // posting list to out.ids/out.ends. Counts and throws UnknownOwnerError
  // for an owner the snapshot does not know.
  void resolve_ids(const EpochSnapshot& snap,
                   std::span<const std::string> owners, BatchIds& out) const;
  // One owner's answer as names (the single-owner entry points).
  std::vector<std::string> resolve(const EpochSnapshot& snap,
                                   const std::string& owner) const;

  Options options_;
  EpochManager manager_;
  std::vector<std::string> provider_names_;
  std::vector<std::string> owner_names_;
  std::unordered_map<std::string, ProviderId> provider_ids_;
  std::unordered_map<std::string, IdentityId> owner_ids_;
  std::vector<double> epsilons_;                 // per owner
  // Delegated facts, per owner: the truth the epochs are built from.
  // delegate() inserts into one list, retire_provider() erases a provider
  // from every list.
  OwnerTruth truth_;
  // Churn bookkeeping between constructions: which owner columns changed
  // (delegations, ε updates, withdrawn facts) and which provider rows are
  // entering/leaving at the next round. Cleared only on a successful
  // rebuild, so a degraded round retries the same delta.
  std::vector<std::uint8_t> dirty_owners_;       // per owner
  std::vector<std::uint8_t> retired_providers_;  // per provider
  std::vector<ProviderId> pending_joined_;
  std::vector<ProviderId> pending_left_;
  RebuildInfo last_rebuild_;
  // The builder's index is current: an epoch was built (or recovered) and
  // nothing was delegated or retired since.
  bool built_ = false;
  mutable std::optional<PpiIndex> index_;  // index()'s lazily built copy
  std::optional<DistributedReport> report_;
  // Cached frozen owner catalog; rebuilt lazily when registrations dirtied
  // it (front-coding a million names on every republish would make the
  // staleness-only path quadratic).
  std::shared_ptr<const Lexicon> lexicon_cache_;
  bool lexicon_dirty_ = true;
  SnapshotSlot snapshot_;
  // Serving instruments on obs::Registry::global(), registered once at
  // construction; recording is one relaxed fetch_add each, so the wait-free
  // read path stays lock-free.
  obs::Counter& queries_;
  obs::Counter& batches_;
  obs::Counter& owners_resolved_;
  obs::Counter& unknown_owners_;
  obs::Counter& epoch_swaps_;
  obs::Counter& degraded_serves_;
  obs::Histogram& latency_us_;
};

}  // namespace eppi::core
