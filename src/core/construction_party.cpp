#include "core/construction_party.h"

#include <numeric>

#include "common/error.h"
#include "common/serialize.h"
#include "core/beta_plan.h"
#include "core/publisher.h"
#include "mpc/eppi_circuits.h"
#include "mpc/gmw.h"
#include "net/phase_span.h"
#include "obs/trace.h"
#include "secret/sec_sum_share.h"

namespace eppi::core {

namespace {

using eppi::net::MessageTag;
using eppi::net::PartyContext;
using eppi::net::PartyId;

// Distinct ε values, ascending; rank 0 is reserved for "no common identity",
// so identity j gets rank index+1 of its ε.
struct EpsilonRanks {
  std::vector<double> unique_values;
  std::vector<std::uint64_t> ranks;

  double value_of_rank(std::uint64_t rank) const {
    if (rank == 0) return 0.0;
    require(rank <= unique_values.size(), "EpsilonRanks: bad rank");
    return unique_values[rank - 1];
  }
};

// `order` = epsilon_order(epsilons), shared with common_thresholds.
EpsilonRanks rank_epsilons(std::span<const double> epsilons,
                           std::span<const std::uint32_t> order) {
  EpsilonRanks er;
  er.ranks.resize(epsilons.size());
  for (const std::uint32_t j : order) {
    if (er.unique_values.empty() || epsilons[j] != er.unique_values.back()) {
      er.unique_values.push_back(epsilons[j]);
    }
    er.ranks[j] = er.unique_values.size();
  }
  return er;
}

struct OpenedMix {
  std::vector<bool> mixed;
  std::vector<std::uint64_t> frequencies;
};

std::vector<std::uint8_t> encode_opened(const OpenedMix& opened) {
  eppi::BinaryWriter w;
  w.write_varint(opened.mixed.size());
  for (std::size_t j = 0; j < opened.mixed.size(); ++j) {
    w.write_u8(opened.mixed[j] ? 1 : 0);
  }
  w.write_u64_vector(opened.frequencies);
  return w.take();
}

OpenedMix decode_opened(std::span<const std::uint8_t> payload,
                        std::size_t n) {
  eppi::BinaryReader r(payload);
  const std::uint64_t count = r.read_varint();
  if (count != n) throw eppi::ProtocolError("broadcast: size mismatch");
  OpenedMix opened;
  opened.mixed.resize(n);
  for (std::size_t j = 0; j < n; ++j) opened.mixed[j] = r.read_u8() != 0;
  opened.frequencies = r.read_u64_vector();
  if (opened.frequencies.size() != n) {
    throw eppi::ProtocolError("broadcast: frequency vector size mismatch");
  }
  return opened;
}

}  // namespace

ConstructionPartyResult run_construction_party(
    PartyContext& ctx, std::span<const std::uint8_t> my_row,
    std::span<const double> epsilons, const DistributedOptions& options) {
  const std::size_t m = ctx.n_parties();
  const std::size_t n = my_row.size();
  require(n >= 1, "construction party: need at least one identity");
  require(epsilons.size() == n, "construction party: epsilon count");
  require(options.c >= 2 && options.c <= m,
          "construction party: need 2 <= c <= m");

  const eppi::secret::SecSumShareParams ss_params{options.c, options.q, n};

  const PartyId me = ctx.id();
  const bool coordinator = me < options.c;
  const FaultToleranceOptions& ft = options.fault_tolerance;

  ConstructionPartyResult result;

  // Phase 1.1: SecSumShare over all m providers. In fault-tolerant mode the
  // commit may cover fewer providers; every public parameter that depends on
  // the provider count (ring, thresholds, β denominator) is derived from the
  // committed survivor set so all survivors still agree on it.
  std::optional<std::vector<eppi::SecretU64>> my_shares;
  std::uint64_t committed_q = 0;
  {
    eppi::net::PhaseSpan phase(ctx, "phase:secsum");
    if (ft.enabled) {
      eppi::secret::SecSumShareFtOptions ss_ft;
      ss_ft.stage_timeout = ft.stage_timeout;
      ss_ft.max_attempts = ft.max_attempts;
      auto outcome = eppi::secret::run_sec_sum_share_party_ft(ctx, ss_params,
                                                              my_row, ss_ft);
      my_shares = std::move(outcome.shares);
      result.survivors = std::move(outcome.survivors);
      result.secsum_attempts = outcome.attempts;
      committed_q = outcome.q;
      phase.span().attr("attempts", result.secsum_attempts);
    } else {
      my_shares = eppi::secret::run_sec_sum_share_party(ctx, ss_params, my_row);
      result.survivors.resize(m);
      std::iota(result.survivors.begin(), result.survivors.end(),
                PartyId{0});
      committed_q = eppi::secret::resolve_ring(ss_params, m).q();
    }
    phase.span().attr("survivors", result.survivors.size());
  }
  const std::size_t m_eff = result.survivors.size();
  const eppi::secret::ModRing ring(committed_q);
  const unsigned width = ring.bit_width();

  OpenedMix opened;
  if (coordinator) {
    // Public, deterministic pre-computation (identical on every
    // coordinator): ε ranks, thresholds and the CountBelow template.
    std::optional<eppi::obs::Span> prepare;
    prepare.emplace("mpc.prepare");
    const std::vector<std::uint32_t> order = epsilon_order(epsilons);
    const EpsilonRanks er = rank_epsilons(epsilons, order);
    const auto thresholds =
        common_thresholds(options.policy, epsilons, order, m_eff);
    eppi::mpc::CountBelowSpec cb_spec;
    cb_spec.c = options.c;
    cb_spec.q = ring.q();
    cb_spec.thresholds.assign(thresholds.begin(), thresholds.end());
    cb_spec.xi_ranks = er.ranks;
    const auto cb_circuit = eppi::mpc::build_count_below_circuit(cb_spec);
    prepare.reset();

    eppi::mpc::GmwSession session;
    for (std::size_t i = 0; i < options.c; ++i) {
      session.parties.push_back(static_cast<PartyId>(i));
    }

    // Phase 1.2a: CountBelow.
    std::optional<eppi::net::PhaseSpan> phase;
    phase.emplace(ctx, "phase:count_below");
    // Both circuits take this party's shares as their first inputs.
    const auto share_inputs = eppi::mpc::bitslice_inputs(*my_shares, width);
    const auto cb_out =
        eppi::mpc::run_gmw_party(ctx, session, cb_circuit, share_inputs);
    const auto counted = eppi::mpc::decode_count_below(
        cb_spec, eppi::mpc::opened_bits(cb_circuit, cb_out));
    phase->span().attr("common_count", counted.common_count);
    phase.reset();

    const double xi = er.value_of_rank(counted.max_xi_rank);
    const double lambda = BetaPlan::lambda(
        xi, static_cast<std::size_t>(counted.common_count), n,
        options.enable_mixing);

    // Phase 1.2b: MixAndReveal.
    prepare.emplace("mpc.prepare");
    eppi::mpc::MixRevealSpec mr_spec;
    mr_spec.c = options.c;
    mr_spec.q = ring.q();
    mr_spec.thresholds = cb_spec.thresholds;
    mr_spec.lambda = lambda;
    mr_spec.coin_bits = options.coin_bits;
    const auto mr_circuit = eppi::mpc::build_mix_reveal_circuit(mr_spec);
    prepare.reset();

    phase.emplace(ctx, "phase:mix_reveal");
    phase->span().attr("lambda", lambda);
    // λ-coins: one fair bit per coin bit, identity after identity.
    auto mr_inputs = share_inputs;
    const auto coin_inputs =
        eppi::mpc::draw_coin_planes(n, options.coin_bits, ctx.rng());
    mr_inputs.insert(mr_inputs.end(), coin_inputs.begin(), coin_inputs.end());
    session.seq_base = eppi::mpc::GmwSession::kSeqStride;
    const auto mr_out =
        eppi::mpc::run_gmw_party(ctx, session, mr_circuit, mr_inputs);
    const auto results = eppi::mpc::decode_mix_reveal(
        mr_spec, eppi::mpc::opened_bits(mr_circuit, mr_out));
    phase.reset();

    opened.mixed.resize(n);
    opened.frequencies.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      opened.mixed[j] = results[j].mixed;
      opened.frequencies[j] = results[j].frequency;
    }

    CoordinatorView view;
    view.mixed = opened.mixed;
    view.revealed_frequencies = opened.frequencies;
    view.common_count = counted.common_count;
    view.xi = xi;
    view.lambda = lambda;
    view.count_below_stats = cb_circuit.stats();
    view.mix_reveal_stats = mr_circuit.stats();
    result.coordinator = std::move(view);

    if (me == 0) {
      // Phase 2 prologue: broadcast the opened vector to the surviving
      // non-coordinators (in the plain path, survivors == all m parties).
      eppi::net::PhaseSpan phase(ctx, "phase:broadcast");
      const auto payload = encode_opened(opened);
      for (const PartyId p : result.survivors) {
        if (p < options.c) continue;
        ctx.send(p, MessageTag::kBroadcast, 0, payload);
      }
      ctx.mark_round();
    }
  } else {
    eppi::net::PhaseSpan phase(ctx, "phase:broadcast");
    const auto payload = ctx.recv(0, MessageTag::kBroadcast, 0);
    opened = decode_opened(payload, n);
  }

  // Phase 2: local β computation (Eq. 9) and randomized publication.
  eppi::net::PhaseSpan phase(ctx, "phase:publish");
  result.betas.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    result.betas[j] =
        BetaPlan::opened_beta(options.policy, opened.mixed[j],
                              opened.frequencies[j], epsilons[j], m_eff);
  }
  result.published_row = publish_row(my_row, result.betas, ctx.rng());
  return result;
}

}  // namespace eppi::core
