#include "mpc/gmw.h"

#include <algorithm>

#include "common/error.h"
#include "common/serialize.h"
#include "mpc/beaver.h"
#include "mpc/plain_eval.h"
#include "obs/trace.h"
#include "secret/xor_share.h"

namespace eppi::mpc {

namespace {

using eppi::SecretU64;
using eppi::net::MessageTag;
using eppi::net::PartyContext;
using eppi::net::PartyId;

// Sequence-number layout within a session's namespace.
constexpr std::uint64_t kSeqTriples = 0;
constexpr std::uint64_t kSeqInputs = 1;
constexpr std::uint64_t kSeqLayerBase = 2;  // + layer index (1-based)

using Shares = std::vector<SecretU64>;

std::size_t session_index(const GmwSession& session, PartyId id) {
  const auto it =
      std::find(session.parties.begin(), session.parties.end(), id);
  require(it != session.parties.end(),
          "GMW: calling party is not a session member");
  return static_cast<std::size_t>(it - session.parties.begin());
}

// Frame packing: shares travel as fixed-width u64 words to the party meant
// to hold them, or into a masked/output opening.
void put_shares(eppi::BinaryWriter& out, const Shares& words) {
  for (const SecretU64& w : words) out.write_u64(w.unwrap_for_wire());
}

Shares get_shares(eppi::BinaryReader& in, std::size_t count) {
  Shares words;
  words.reserve(count);
  for (std::size_t i = 0; i < count; ++i) words.emplace_back(in.read_u64());
  return words;
}

// Receives one frame of exactly `words` u64s.
std::vector<std::uint8_t> recv_words(PartyContext& ctx, PartyId from,
                                     std::uint32_t tag, std::uint64_t seq,
                                     std::size_t words) {
  auto payload = ctx.recv(from, tag, seq);
  if (payload.size() != 8 * words) {
    throw eppi::ProtocolError("GMW: bad payload size");
  }
  return payload;
}

// Sends my shares to every other session party and returns the XOR of all
// parties' shares (a full opening of the shared words).
LaneWords open_words(PartyContext& ctx, const GmwSession& session,
                     std::size_t me, std::uint32_t tag, std::uint64_t seq,
                     eppi::BinaryWriter mine) {
  const std::vector<std::uint8_t> payload = mine.take();
  const std::size_t words = payload.size() / 8;
  for (std::size_t p = 0; p < session.parties.size(); ++p) {
    if (p != me) ctx.send(session.parties[p], tag, seq, payload);
  }
  LaneWords opened(words, 0);
  for (std::size_t p = 0; p < session.parties.size(); ++p) {
    const auto frame =
        p == me ? payload
                : recv_words(ctx, session.parties[p], tag, seq, words);
    eppi::BinaryReader in(frame);
    for (auto& word : opened) word ^= in.read_u64();
  }
  return opened;
}

// Per-party wire state: secret wires hold this party's XOR shares, public
// wires their plain lanes (identical on every party).
struct WireValues {
  std::vector<Shares> share;
  std::vector<LaneWords> pub;
};

LaneWords ones(std::size_t lanes) {
  LaneWords words(lane_words(lanes), ~std::uint64_t{0});
  if (!words.empty()) words.back() &= tail_mask(lanes);
  return words;
}

// Evaluates one gate that needs no communication.
void eval_local(const Circuit& circuit, Wire w, bool lead, WireValues& v) {
  if (circuit.is_public(w)) {
    v.pub[w] = evaluate_gate(circuit, w, v.pub);
    return;
  }
  const Gate& g = circuit.gates()[w];
  const std::size_t lanes = circuit.lanes_of(w);
  // A public word enters a secret wire through party 0's share only.
  const auto mix_public = [lead](const Shares& s, const LaneWords& p) {
    Shares out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = lead ? s[i] ^ p[i] : s[i];
    return out;
  };
  switch (g.op) {
    case GateOp::kNot:
      v.share[w] = mix_public(v.share[g.a], ones(lanes));
      return;
    case GateOp::kHalve:
      v.share[w] = take_lanes(v.share[g.a], g.b != 0 ? lanes : 0, lanes);
      return;
    case GateOp::kXor:
    case GateOp::kAnd:
      break;
    default:
      throw eppi::ProtocolError("GMW: unshared input wire");
  }
  const bool pub_a = circuit.is_public(g.a);
  const bool pub_b = circuit.is_public(g.b);
  if (!pub_a && !pub_b) {
    require(g.op == GateOp::kXor, "GMW: secret AND evaluated locally");
    Shares out(v.share[g.a].size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = v.share[g.a][i] ^ v.share[g.b][i];
    }
    v.share[w] = std::move(out);
    return;
  }
  const Shares& s = pub_a ? v.share[g.b] : v.share[g.a];
  const LaneWords& p = pub_a ? v.pub[g.a] : v.pub[g.b];
  if (g.op == GateOp::kXor) {
    v.share[w] = mix_public(s, p);
    return;
  }
  Shares out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = s[i] & p[i];
  v.share[w] = std::move(out);
}

}  // namespace

std::uint64_t gmw_round_count(const Circuit& circuit) noexcept {
  // triples + inputs + one per AND layer + outputs.
  return 3 + circuit.stats().and_depth;
}

std::vector<LaneWords> run_gmw_party(PartyContext& ctx,
                                     const GmwSession& session,
                                     const Circuit& circuit,
                                     std::span<const SecretU64> my_inputs) {
  const std::size_t n = session.parties.size();
  require(n >= 2, "GMW: need at least two parties");
  const std::size_t me = session_index(session, ctx.id());
  const bool is_lead = me == 0;
  const std::uint64_t base = session.seq_base;
  const auto& gates = circuit.gates();
  const std::size_t input_words = lane_words(circuit.lanes());

  // Schedule: per AND layer, the secret ANDs it opens and the local gates
  // that become computable once it is done (layer 0: before the first).
  const auto depth = static_cast<std::uint32_t>(circuit.stats().and_depth);
  std::vector<std::vector<Wire>> ands(depth + 1);
  std::vector<std::vector<Wire>> locals(depth + 1);
  std::uint64_t triple_words = 0;
  for (Wire w = 0; w < gates.size(); ++w) {
    const Gate& g = gates[w];
    if (g.op == GateOp::kInput) continue;
    if (g.op == GateOp::kAnd && !circuit.is_public(g.a) &&
        !circuit.is_public(g.b)) {
      ands[circuit.layer(w)].push_back(w);
      triple_words += lane_words(circuit.lanes_of(w));
    } else {
      locals[circuit.layer(w)].push_back(w);
    }
  }

  // --- Preprocessing: Beaver triples from the dealer ------------------------
  TripleShares triples;
  {
    eppi::obs::Span span("mpc.triples");
    span.attr("words", triple_words);
    if (is_lead) {
      auto dealt = deal_triples(n, triple_words * 64, ctx.rng());
      for (std::size_t p = 1; p < n; ++p) {
        eppi::BinaryWriter out;
        put_shares(out, dealt[p].a);
        put_shares(out, dealt[p].b);
        put_shares(out, dealt[p].c);
        ctx.send(session.parties[p], MessageTag::kBeaverTriple,
                 base + kSeqTriples, out.take());
      }
      triples = std::move(dealt[0]);
      ctx.mark_round();
    } else {
      const auto payload =
          recv_words(ctx, session.parties[0], MessageTag::kBeaverTriple,
                     base + kSeqTriples, 3 * triple_words);
      eppi::BinaryReader in(payload);
      triples.a = get_shares(in, triple_words);
      triples.b = get_shares(in, triple_words);
      triples.c = get_shares(in, triple_words);
      triples.count = triple_words * 64;
    }
  }

  // --- Input sharing ---------------------------------------------------------
  WireValues v;
  v.share.resize(gates.size());
  v.pub.resize(gates.size());

  std::vector<WireVec> inputs_by_party(n);
  for (const Wire w : circuit.inputs()) {
    const std::uint32_t owner = circuit.input_owner(w);
    require(owner < n, "GMW: input owner outside session");
    inputs_by_party[owner].push_back(w);
  }
  const WireVec& mine = inputs_by_party[me];
  require(my_inputs.size() == mine.size() * input_words,
          "GMW: wrong number of input words supplied");
  {
    // XOR-share my inputs wire by wire: every peer gets its share, I keep
    // mine.
    std::vector<eppi::BinaryWriter> to(n);
    for (std::size_t k = 0; k < mine.size(); ++k) {
      auto shares = eppi::secret::split_xor_packed(
          my_inputs.subspan(k * input_words, input_words), circuit.lanes(),
          n, ctx.rng());
      for (std::size_t p = 0; p < n; ++p) {
        if (p != me) put_shares(to[p], shares[p]);
      }
      v.share[mine[k]] = std::move(shares[me]);
    }
    for (std::size_t p = 0; p < n && !mine.empty(); ++p) {
      if (p != me) {
        ctx.send(session.parties[p], MessageTag::kMpcInputShare,
                 base + kSeqInputs, to[p].take());
      }
    }
    for (std::size_t p = 0; p < n; ++p) {
      const WireVec& theirs = inputs_by_party[p];
      if (p == me || theirs.empty()) continue;
      const auto payload =
          recv_words(ctx, session.parties[p], MessageTag::kMpcInputShare,
                     base + kSeqInputs, theirs.size() * input_words);
      eppi::BinaryReader in(payload);
      for (const Wire w : theirs) v.share[w] = get_shares(in, input_words);
    }
    if (is_lead) ctx.mark_round();
  }

  // --- Round loop: one masked opening per AND layer ---------------------------
  std::size_t triple_cursor = 0;
  for (std::uint32_t layer = 1; layer <= depth; ++layer) {
    for (const Wire w : locals[layer - 1]) eval_local(circuit, w, is_lead, v);
    const auto& layer_ands = ands[layer];

    // Masked shares d = x ⊕ a and e = y ⊕ b per gate, word by word. They
    // stay secret until every party's contribution is XORed in.
    eppi::BinaryWriter masked;
    std::size_t t = triple_cursor;
    for (const Wire w : layer_ands) {
      const Shares& x = v.share[gates[w].a];
      const Shares& y = v.share[gates[w].b];
      Shares d(x.size());
      Shares e(y.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        d[i] = x[i] ^ triples.a[t + i];
        e[i] = y[i] ^ triples.b[t + i];
      }
      put_shares(masked, d);
      put_shares(masked, e);
      t += x.size();
    }
    const LaneWords opened =
        open_words(ctx, session, me, MessageTag::kMpcOpen,
                   base + kSeqLayerBase + layer, std::move(masked));
    std::size_t pos = 0;
    for (const Wire w : layer_ands) {
      const std::size_t words = v.share[gates[w].a].size();
      Shares z(words);
      for (std::size_t i = 0; i < words; ++i) {
        // d, e are public (fully opened); z stays a tainted share.
        const std::uint64_t d = opened[pos + i];
        const std::uint64_t e = opened[pos + words + i];
        const std::size_t k = triple_cursor + i;
        z[i] = triples.c[k] ^ (triples.b[k] & d) ^ (triples.a[k] & e);
        if (is_lead) z[i] = z[i] ^ (d & e);
      }
      v.share[w] = std::move(z);
      pos += 2 * words;
      triple_cursor += words;
    }
    if (is_lead) ctx.mark_round();
  }
  for (const Wire w : locals[depth]) eval_local(circuit, w, is_lead, v);

  // --- Output opening ----------------------------------------------------------
  // Public outputs are known already; every party broadcasts its shares of
  // the secret ones.
  const auto& outs = circuit.outputs();
  eppi::BinaryWriter out_shares;
  for (const Wire w : outs) {
    if (!circuit.is_public(w)) put_shares(out_shares, v.share[w]);
  }
  const LaneWords opened =
      open_words(ctx, session, me, MessageTag::kMpcOutputShare,
                 base + kSeqLayerBase + depth + 1, std::move(out_shares));
  if (is_lead) ctx.mark_round();

  std::vector<LaneWords> result;
  result.reserve(outs.size());
  std::size_t pos = 0;
  for (const Wire w : outs) {
    if (circuit.is_public(w)) {
      result.push_back(v.pub[w]);
      continue;
    }
    const std::size_t words = v.share[w].size();
    result.emplace_back(opened.begin() + pos, opened.begin() + pos + words);
    pos += words;
  }
  return result;
}

std::vector<bool> opened_bits(const Circuit& circuit,
                              const std::vector<LaneWords>& opened) {
  require(opened.size() == circuit.outputs().size(),
          "opened_bits: output count mismatch");
  std::vector<bool> bits;
  for (std::size_t i = 0; i < opened.size(); ++i) {
    const std::size_t lanes = circuit.lanes_of(circuit.outputs()[i]);
    for (std::size_t l = 0; l < lanes; ++l) {
      bits.push_back(((opened[i][l / 64] >> (l % 64)) & 1) != 0);
    }
  }
  return bits;
}

std::vector<bool> run_gmw_party(PartyContext& ctx, const GmwSession& session,
                                const Circuit& circuit,
                                const std::vector<bool>& my_inputs) {
  require(circuit.lanes() == 1, "GMW: bit inputs need a one-lane circuit");
  Shares words;
  words.reserve(my_inputs.size());
  for (const bool bit : my_inputs) words.emplace_back(bit ? 1 : 0);
  const auto opened = run_gmw_party(ctx, session, circuit, words);
  std::vector<bool> result;
  result.reserve(opened.size());
  for (const LaneWords& lanes : opened) result.push_back((lanes[0] & 1) != 0);
  return result;
}

}  // namespace eppi::mpc
