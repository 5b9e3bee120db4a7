#include "secret/sec_sum_share.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "common/serialize.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace eppi::secret {

namespace {

// Wire path: shares leave the taint only to be serialized toward the party
// that is supposed to hold them, and are re-tainted on arrival.
std::vector<std::uint8_t> encode_vector(std::span<const SecretU64> values) {
  eppi::BinaryWriter writer;
  writer.write_varint(values.size());
  for (const SecretU64& v : values) writer.write_varint(v.unwrap_for_wire());
  return writer.take();
}

// Adds the share vector encoded in `bytes` into `sum` element by element,
// without materializing it. The vector must have sum.size() elements.
void add_decoded(std::span<const std::uint8_t> bytes,
                 std::vector<SecretU64>& sum, const ModRing& ring) {
  eppi::BinaryReader reader(bytes);
  if (reader.read_varint() != sum.size()) {
    throw eppi::ProtocolError("SecSumShare: share vector length mismatch");
  }
  for (SecretU64& s : sum) s = s.add(SecretU64(reader.read_varint()), ring);
}

// Step 1 for all n inputs in one pass: hops[k][j] is identity j's share for
// the k-th ring successor (hop 0 stays local). Per identity it draws what
// split_additive draws — c-1 uniform residues, then the balancing share —
// so every seed splits exactly as the per-identity form does.
std::vector<std::vector<SecretU64>> split_inputs(
    std::span<const std::uint8_t> inputs, std::size_t c, const ModRing& ring,
    eppi::Rng& rng) {
  const std::size_t n = inputs.size();
  std::vector<std::vector<SecretU64>> hops(c, std::vector<SecretU64>(n));
  for (std::size_t j = 0; j < n; ++j) {
    require(inputs[j] <= 1, "SecSumShare: inputs must be Boolean");
    SecretU64 partial;
    for (std::size_t k = 0; k + 1 < c; ++k) {
      hops[k][j] = SecretU64(rng.next_below(ring.q()));
      partial = partial.add(hops[k][j], ring);
    }
    hops[c - 1][j] = SecretU64(inputs[j]).sub(partial, ring);
  }
  return hops;
}

}  // namespace

ModRing resolve_ring(const SecSumShareParams& params, std::size_t m) {
  if (params.q != 0) return ModRing(params.q);
  return ModRing::power_of_two_for(m);
}

std::vector<std::uint64_t> plain_frequency_sums(
    std::span<const std::vector<std::uint8_t>> provider_inputs,
    std::size_t n) {
  std::vector<std::uint64_t> sums(n, 0);
  for (const auto& row : provider_inputs) {
    require(row.size() == n, "plain_frequency_sums: row length mismatch");
    for (std::size_t j = 0; j < n; ++j) sums[j] += row[j];
  }
  return sums;
}

std::optional<std::vector<SecretU64>> run_sec_sum_share_party(
    eppi::net::PartyContext& ctx, const SecSumShareParams& params,
    std::span<const std::uint8_t> inputs) {
  using eppi::net::MessageTag;
  using eppi::net::PartyId;

  const std::size_t m = ctx.n_parties();
  const std::size_t c = params.c;
  const std::size_t n = params.n;
  require(c >= 2, "SecSumShare: c must be at least 2");
  require(c <= m, "SecSumShare: c cannot exceed the number of providers");
  require(inputs.size() == n, "SecSumShare: input vector length mismatch");

  const ModRing ring = resolve_ring(params, m);
  const PartyId me = ctx.id();

  // Step 1: split every input bit into c shares, one buffer per hop.
  auto shares_by_hop = split_inputs(inputs, c, ring, ctx.rng());

  std::vector<SecretU64> super_share;
  {
    // One round trip: shares out to ring successors, predecessors' shares in.
    eppi::obs::Span rt("secsum.distribute");
    rt.attr("party", static_cast<std::uint64_t>(me));

    // Step 2: share k -> k-th ring successor (k = 1..c-1); share 0 stays
    // local.
    for (std::size_t k = 1; k < c; ++k) {
      const auto to = static_cast<PartyId>((me + k) % m);
      ctx.send(to, MessageTag::kShareDistribute, k,
               encode_vector(shares_by_hop[k]));
    }
    if (me == 0) ctx.mark_round();

    // Step 3: super-share = own share 0 + the k-th share of each k-th ring
    // predecessor.
    super_share = std::move(shares_by_hop[0]);
    for (std::size_t k = 1; k < c; ++k) {
      const auto from = static_cast<PartyId>((me + m - k) % m);
      add_decoded(ctx.recv(from, MessageTag::kShareDistribute, k),
                  super_share, ring);
    }
  }

  // Second round trip: super-shares converge on the coordinators.
  eppi::obs::Span rt("secsum.aggregate");
  rt.attr("party", static_cast<std::uint64_t>(me));

  // Step 4: super-share -> coordinator p_{i mod c}; coordinators aggregate.
  const auto coordinator = static_cast<PartyId>(me % c);
  ctx.send(coordinator, MessageTag::kSuperShare, 0, encode_vector(super_share));
  if (me == 0) ctx.mark_round();

  if (me >= c) return std::nullopt;

  std::vector<SecretU64> aggregated(n);
  for (std::size_t i = me; i < m; i += c) {
    add_decoded(ctx.recv(static_cast<PartyId>(i), MessageTag::kSuperShare, 0),
                aggregated, ring);
  }
  return aggregated;
}

// --- Dropout-tolerant variant -------------------------------------------

namespace {

using eppi::net::MessageTag;
using eppi::net::PartyId;

// Each restart attempt gets a disjoint seq range so stale frames from an
// abandoned attempt can never satisfy a later attempt's selective receive.
constexpr std::uint64_t kAttemptStride = std::uint64_t{1} << 20;

enum class ViewDecision : std::uint8_t { kCommit = 0, kRestart = 1, kAbort = 2 };

std::vector<std::uint8_t> encode_ids(const std::set<PartyId>& ids) {
  eppi::BinaryWriter w;
  w.write_varint(ids.size());
  for (const PartyId id : ids) w.write_varint(id);
  return w.take();
}

std::set<PartyId> decode_ids(eppi::BinaryReader& r) {
  const std::uint64_t count = r.read_varint();
  std::set<PartyId> ids;
  for (std::uint64_t i = 0; i < count; ++i) {
    ids.insert(static_cast<PartyId>(r.read_varint()));
  }
  return ids;
}

struct ViewMessage {
  ViewDecision decision = ViewDecision::kCommit;
  std::vector<PartyId> alive;
  PartyId blamed = eppi::PartyFailure::kUnknownParty;
};

std::vector<std::uint8_t> encode_view(const ViewMessage& view) {
  eppi::BinaryWriter w;
  w.write_u8(static_cast<std::uint8_t>(view.decision));
  w.write_varint(view.blamed);
  w.write_varint(view.alive.size());
  for (const PartyId id : view.alive) w.write_varint(id);
  return w.take();
}

ViewMessage decode_view(std::span<const std::uint8_t> payload) {
  eppi::BinaryReader r(payload);
  ViewMessage view;
  const std::uint8_t code = r.read_u8();
  if (code > static_cast<std::uint8_t>(ViewDecision::kAbort)) {
    throw eppi::ProtocolError("SecSumShare: malformed view decision");
  }
  view.decision = static_cast<ViewDecision>(code);
  view.blamed = static_cast<PartyId>(r.read_varint());
  const std::uint64_t count = r.read_varint();
  view.alive.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    view.alive.push_back(static_cast<PartyId>(r.read_varint()));
  }
  return view;
}

}  // namespace

SecSumShareOutcome run_sec_sum_share_party_ft(
    eppi::net::PartyContext& ctx, const SecSumShareParams& params,
    std::span<const std::uint8_t> inputs,
    const SecSumShareFtOptions& options) {
  const std::size_t m0 = ctx.n_parties();
  const std::size_t c = params.c;
  const std::size_t n = params.n;
  require(c >= 2, "SecSumShare: c must be at least 2");
  require(c <= m0, "SecSumShare: c cannot exceed the number of providers");
  require(inputs.size() == n, "SecSumShare: input vector length mismatch");
  require(options.max_attempts >= 1, "SecSumShare: need at least one attempt");
  const PartyId me = ctx.id();

  // Derived waits: the control plane must not produce false suspicions just
  // because a peer is itself sitting out data-plane timeouts. A survivor can
  // lag by up to c stage timeouts (steps 3-4), and party 0 collects reports
  // sequentially, so the view broadcast can trail the fastest party by the
  // whole collection budget.
  const auto report_timeout = options.stage_timeout * (c + 2);
  const auto view_timeout = options.stage_timeout * (m0 + c + 4);

  std::vector<PartyId> alive(m0);
  for (std::size_t i = 0; i < m0; ++i) alive[i] = static_cast<PartyId>(i);

  // Protocol-level outcomes count once (party 0 decides restart/abort);
  // attempt spans below are per party so traces show every restart's cost.
  auto& restarts = eppi::obs::Registry::global().counter(
      "eppi_secsum_restarts_total", {},
      "SecSumShare view-change restarts decided by party 0");
  auto& aborts = eppi::obs::Registry::global().counter(
      "eppi_secsum_aborts_total", {},
      "SecSumShare runs abandoned as unrecoverable");

  for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    eppi::obs::Span attempt_span("secsum.attempt");
    attempt_span.attr("party", static_cast<std::uint64_t>(me));
    attempt_span.attr("attempt", attempt + 1);
    attempt_span.attr("alive", alive.size());
    const std::uint64_t seqb = kAttemptStride * attempt;
    const std::size_t m = alive.size();
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(alive.begin(), alive.end(), me) - alive.begin());
    const ModRing ring = resolve_ring(params, m);
    std::set<PartyId> suspects;

    // Steps 1-2: fresh shares (new randomness per attempt — shares from an
    // abandoned attempt reveal nothing on their own) to survivor-relative
    // ring successors.
    auto shares_by_hop = split_inputs(inputs, c, ring, ctx.rng());
    for (std::size_t k = 1; k < c; ++k) {
      const PartyId to = alive[(pos + k) % m];
      ctx.send(to, MessageTag::kShareDistribute, seqb + k,
               encode_vector(shares_by_hop[k]));
    }
    if (me == 0) ctx.mark_round();

    // Step 3: bounded receives from ring predecessors; silence = suspicion.
    std::vector<SecretU64> super_share = std::move(shares_by_hop[0]);
    for (std::size_t k = 1; k < c; ++k) {
      const PartyId from = alive[(pos + m - k) % m];
      auto payload = ctx.recv_for(from, MessageTag::kShareDistribute,
                                  seqb + k, options.stage_timeout);
      if (!payload) {
        suspects.insert(from);
        continue;
      }
      add_decoded(*payload, super_share, ring);
    }

    // Step 4: super-share to the survivor-relative coordinator. The first c
    // survivors are always ids 0..c-1 (a lost coordinator aborts), so
    // coordinators keep their identities across restarts.
    ctx.send(alive[pos % c], MessageTag::kSuperShare, seqb,
             encode_vector(super_share));
    if (me == 0) ctx.mark_round();

    std::vector<SecretU64> aggregated;
    if (me < c) {
      aggregated.assign(n, SecretU64());
      for (std::size_t i = pos; i < m; i += c) {
        const PartyId from = alive[i];
        auto payload = ctx.recv_for(from, MessageTag::kSuperShare, seqb,
                                    options.stage_timeout);
        if (!payload) {
          suspects.insert(from);
          continue;
        }
        add_decoded(*payload, aggregated, ring);
      }
    }

    // Failure-detection round: suspects converge on party 0, which decides
    // and broadcasts the view for the next attempt.
    ViewMessage view;
    if (me == 0) {
      for (const PartyId p : alive) {
        if (p == 0) continue;
        auto payload = ctx.recv_for(p, MessageTag::kFailureReport, seqb,
                                    report_timeout);
        if (!payload) {
          suspects.insert(p);
          continue;
        }
        eppi::BinaryReader r(*payload);
        const auto reported = decode_ids(r);
        suspects.insert(reported.begin(), reported.end());
      }

      if (suspects.empty()) {
        view.decision = ViewDecision::kCommit;
        view.alive = alive;
      } else {
        view.blamed = *suspects.begin();
        std::vector<PartyId> next_alive;
        for (const PartyId p : alive) {
          if (suspects.count(p) == 0) next_alive.push_back(p);
        }
        const bool coordinator_lost = *suspects.begin() < c;
        const bool too_few = next_alive.size() < c;
        const bool out_of_attempts = attempt + 1 >= options.max_attempts;
        view.decision = (coordinator_lost || too_few || out_of_attempts)
                            ? ViewDecision::kAbort
                            : ViewDecision::kRestart;
        view.alive = std::move(next_alive);
      }
      // Broadcast to every member of the old view — including suspects, so
      // a falsely-suspected live party learns its eviction instead of
      // hanging.
      const auto payload = encode_view(view);
      for (const PartyId p : alive) {
        if (p != 0) ctx.send(p, MessageTag::kViewChange, seqb, payload);
      }
      ctx.mark_round();
    } else {
      ctx.send(0, MessageTag::kFailureReport, seqb, encode_ids(suspects));
      auto payload =
          ctx.recv_for(0, MessageTag::kViewChange, seqb, view_timeout);
      if (!payload) {
        throw eppi::PartyFailure(
            "SecSumShare: coordinator 0 went silent during view change", 0);
      }
      view = decode_view(*payload);
    }

    switch (view.decision) {
      case ViewDecision::kCommit: {
        SecSumShareOutcome outcome;
        if (me < c) outcome.shares = std::move(aggregated);
        outcome.survivors = std::move(view.alive);
        outcome.q = ring.q();
        outcome.attempts = attempt + 1;
        return outcome;
      }
      case ViewDecision::kAbort:
        attempt_span.event("secsum.abort");
        if (me == 0) aborts.add();
        throw eppi::PartyFailure(
            "SecSumShare: unrecoverable dropout (coordinator lost, fewer "
            "than c survivors, or attempts exhausted); first failed party " +
                std::to_string(view.blamed),
            view.blamed);
      case ViewDecision::kRestart:
        attempt_span.event("secsum.restart");
        if (me == 0) restarts.add();
        if (!std::binary_search(view.alive.begin(), view.alive.end(), me)) {
          throw eppi::PartyFailure(
              "SecSumShare: this party was evicted from the view on a "
              "false suspicion",
              me);
        }
        alive = std::move(view.alive);
        break;
    }
  }
  // Party 0 converts attempt exhaustion into kAbort above; reaching here
  // means a decode produced an inconsistent view.
  throw eppi::ProtocolError("SecSumShare: view protocol did not converge");
}

}  // namespace eppi::secret
