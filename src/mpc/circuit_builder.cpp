#include "mpc/circuit_builder.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace eppi::mpc {

unsigned bit_width_for(std::uint64_t max_value) noexcept {
  return max_value == 0 ? 1u
                        : static_cast<unsigned>(std::bit_width(max_value));
}

namespace {

constexpr Wire kNoWire = ~Wire{0};

void count(CircuitStats& stats, GateOp op, std::uint64_t weight) {
  switch (op) {
    case GateOp::kInput:
      stats.input_wires += weight;
      break;
    case GateOp::kXor:
      stats.xor_gates += weight;
      break;
    case GateOp::kAnd:
      stats.and_gates += weight;
      break;
    case GateOp::kNot:
      stats.not_gates += weight;
      break;
    default:
      break;
  }
}

}  // namespace

CircuitBuilder::CircuitBuilder(std::size_t lanes) {
  require(lanes >= 1, "CircuitBuilder: need at least one lane");
  circuit_.lanes_ = lanes;
}

Wire CircuitBuilder::append(GateOp op, Wire a, Wire b) {
  const Wire w = static_cast<Wire>(circuit_.gates_.size());
  const auto& pub = circuit_.public_;
  const auto& layers = circuit_.layers_;
  bool is_public = false;
  std::uint32_t layer = 0;
  switch (op) {
    case GateOp::kInput:
      break;
    case GateOp::kConstZero:
    case GateOp::kConstOne:
    case GateOp::kPublic:
      is_public = true;
      break;
    case GateOp::kXor:
    case GateOp::kAnd:
      require(circuit_.levels_[a] == level_ && circuit_.levels_[b] == level_,
              "CircuitBuilder: operands from another lane level");
      is_public = pub[a] && pub[b];
      layer = std::max(layers[a], layers[b]);
      // Only an AND of two secrets needs a communication round.
      if (op == GateOp::kAnd && !pub[a] && !pub[b]) ++layer;
      break;
    case GateOp::kNot:
      require(circuit_.levels_[a] == level_,
              "CircuitBuilder: operand from another lane level");
      is_public = pub[a];
      layer = layers[a];
      break;
    case GateOp::kHalve:
      require(circuit_.levels_[a] + 1u == level_,
              "CircuitBuilder: halve reads the level above");
      is_public = pub[a];
      layer = layers[a];
      break;
  }
  circuit_.gates_.push_back(Gate{op, a, b});
  circuit_.layers_.push_back(layer);
  circuit_.levels_.push_back(static_cast<std::uint8_t>(level_));
  circuit_.public_.push_back(is_public ? 1 : 0);
  // Public computation and AND with a public word fold per lane in the
  // unrolled view, so neither counts as a gate.
  const bool local_and = op == GateOp::kAnd && (pub[a] || pub[b]);
  if (!is_public && !local_and) {
    count(circuit_.stats_, op, lanes_here());
    count(circuit_.template_stats_, op, 1);
    circuit_.stats_.and_depth =
        std::max<std::uint64_t>(circuit_.stats_.and_depth, layer);
    circuit_.template_stats_.and_depth = circuit_.stats_.and_depth;
  }
  const_val_.push_back(op == GateOp::kConstZero ? 0
                       : op == GateOp::kConstOne ? 1
                                                 : -1);
  return w;
}

std::optional<bool> CircuitBuilder::constant_value(Wire w) const {
  const std::int8_t v = const_val_[w];
  if (v < 0) return std::nullopt;
  return v != 0;
}

Wire CircuitBuilder::input_bit(std::uint32_t party) {
  require(level_ == 0, "CircuitBuilder: inputs live at lane level 0");
  const Wire w = append(GateOp::kInput, party, 0);
  circuit_.inputs_.push_back(w);
  return w;
}

WireVec CircuitBuilder::input_bits(std::uint32_t party, unsigned width) {
  WireVec v(width);
  for (auto& w : v) w = input_bit(party);
  return v;
}

WireVec CircuitBuilder::public_bits(std::span<const std::uint64_t> values,
                                    unsigned width) {
  require(level_ == 0, "CircuitBuilder: public words live at lane level 0");
  require(values.size() == circuit_.lanes_,
          "CircuitBuilder: one public value per lane");
  require(width <= 64, "CircuitBuilder: public values are 64-bit");
  // Bit b is uniform across lanes iff it agrees in the OR and the AND of
  // every value; only the others become public words.
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (const std::uint64_t x : values) {
    any |= x;
    all &= x;
  }
  const std::uint64_t varying = any ^ all;
  WireVec v(width);
  for (unsigned b = 0; b < width; ++b) {
    if ((varying >> b & 1) == 0) {
      v[b] = constant((all >> b & 1) != 0);
      continue;
    }
    std::vector<std::uint64_t> words(lane_words(values.size()), 0);
    for (std::size_t l = 0; l < values.size(); ++l) {
      words[l / 64] |= (values[l] >> b & 1) << (l % 64);
    }
    v[b] = public_word(std::move(words));
  }
  return v;
}

Wire CircuitBuilder::public_word(std::vector<std::uint64_t> words) {
  require(words.size() == lane_words(lanes_here()),
          "CircuitBuilder: public word lane count");
  const auto index = static_cast<Wire>(circuit_.public_words_.size());
  circuit_.public_words_.push_back(std::move(words));
  return append(GateOp::kPublic, index, 0);
}

Wire CircuitBuilder::constant_wire(GateOp op) {
  auto& cache = op == GateOp::kConstZero ? zero_at_ : one_at_;
  if (cache.size() <= level_) cache.resize(level_ + 1, kNoWire);
  if (cache[level_] == kNoWire) cache[level_] = append(op, 0, 0);
  return cache[level_];
}

Wire CircuitBuilder::zero() { return constant_wire(GateOp::kConstZero); }

Wire CircuitBuilder::one() { return constant_wire(GateOp::kConstOne); }

void CircuitBuilder::next_level() {
  // 64 halvings bring any lane count to one.
  require(level_ < 64, "CircuitBuilder: too many lane levels");
  ++level_;
}

Wire CircuitBuilder::halve(Wire w, bool high) {
  require(level_ >= 1 && circuit_.levels_[w] + 1u == level_,
          "CircuitBuilder: halve reads the level above");
  const auto c = constant_value(w);
  // A constant stays constant unless the high half needs a zero pad lane.
  const bool padded = circuit_.lanes_at(level_ - 1) % 2 == 1;
  if (c && (!*c || !high || !padded)) return constant(*c);
  return append(GateOp::kHalve, w, high ? 1 : 0);
}

WireVec CircuitBuilder::halve_vec(const WireVec& v, bool high) {
  WireVec out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = halve(v[i], high);
  return out;
}

WireVec CircuitBuilder::constant_bits(std::uint64_t value, unsigned width) {
  WireVec v(width);
  for (unsigned i = 0; i < width; ++i) v[i] = constant((value >> i) & 1);
  return v;
}

Wire CircuitBuilder::Xor(Wire a, Wire b) {
  const auto ca = constant_value(a);
  const auto cb = constant_value(b);
  if (ca && cb) return constant(*ca != *cb);
  if (ca) return *ca ? Not(b) : b;
  if (cb) return *cb ? Not(a) : a;
  if (a == b) return zero();
  return append(GateOp::kXor, a, b);
}

Wire CircuitBuilder::And(Wire a, Wire b) {
  const auto ca = constant_value(a);
  const auto cb = constant_value(b);
  if (ca) return *ca ? b : zero();
  if (cb) return *cb ? a : zero();
  if (a == b) return a;
  return append(GateOp::kAnd, a, b);
}

Wire CircuitBuilder::Not(Wire a) {
  const auto ca = constant_value(a);
  if (ca) return constant(!*ca);
  return append(GateOp::kNot, a, 0);
}

Wire CircuitBuilder::Or(Wire a, Wire b) {
  // a | b == (a ^ b) ^ (a & b); folding handles constant operands upstream.
  return Xor(Xor(a, b), And(a, b));
}

Wire CircuitBuilder::Mux(Wire sel, Wire if_true, Wire if_false) {
  // f ^ sel & (t ^ f): one AND gate.
  return Xor(if_false, And(sel, Xor(if_true, if_false)));
}

WireVec CircuitBuilder::xor_vec(const WireVec& a, const WireVec& b) {
  require(a.size() == b.size(), "CircuitBuilder: xor_vec width mismatch");
  WireVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = Xor(a[i], b[i]);
  return out;
}

WireVec CircuitBuilder::zext(WireVec v, unsigned width) {
  while (v.size() < width) v.push_back(zero());
  require(v.size() == width, "CircuitBuilder: zext cannot narrow");
  return v;
}

WireVec CircuitBuilder::add_trunc(const WireVec& a, const WireVec& b) {
  const auto width = static_cast<unsigned>(std::max(a.size(), b.size()));
  auto full = add_expand(a, b);
  full.resize(width);
  return full;
}

WireVec CircuitBuilder::add_expand(const WireVec& a, const WireVec& b) {
  const auto width = static_cast<unsigned>(std::max(a.size(), b.size()));
  const WireVec xa = zext(a, width);
  const WireVec xb = zext(b, width);
  WireVec out(width + 1);
  Wire carry = zero();
  for (unsigned i = 0; i < width; ++i) {
    // Full adder: sum = a^b^c; carry' = (a&b) ^ (c & (a^b)).
    const Wire axb = Xor(xa[i], xb[i]);
    out[i] = Xor(axb, carry);
    carry = Xor(And(xa[i], xb[i]), And(carry, axb));
  }
  out[width] = carry;
  return out;
}

WireVec CircuitBuilder::add_mod(const WireVec& a, const WireVec& b,
                                std::uint64_t q) {
  require(q >= 2, "CircuitBuilder: add_mod modulus must be >= 2");
  const unsigned width = bit_width_for(q - 1);
  if (std::has_single_bit(q)) {
    // Power-of-two modulus: truncation is the reduction.
    auto sum = add_expand(zext(a, width), zext(b, width));
    sum.resize(width);
    return sum;
  }
  // t = a + b (width+1 bits); result = t >= q ? t - q : t.
  const auto t = add_expand(zext(a, width), zext(b, width));
  const Wire wrap = ge_const(t, q);
  // t - q == t + (2^(width+1) - q) mod 2^(width+1).
  const std::uint64_t comp = (std::uint64_t{1} << (width + 1)) - q;
  auto reduced = add_expand(t, constant_bits(comp, width + 1));
  reduced.resize(width + 1);
  auto chosen = mux_vec(wrap, reduced, t);
  chosen.resize(width);
  return chosen;
}

Wire CircuitBuilder::lt(const WireVec& a, const WireVec& b) {
  const auto width = static_cast<unsigned>(std::max(a.size(), b.size()));
  const WireVec xa = zext(a, width);
  const WireVec xb = zext(b, width);
  Wire borrow = zero();
  for (unsigned i = 0; i < width; ++i) {
    // Subtract borrow chain: borrow' = (~a & b) ^ (~(a^b) & borrow); the two
    // terms are disjoint, so XOR equals OR here.
    const Wire d = Xor(xa[i], xb[i]);
    borrow = Xor(And(Not(xa[i]), xb[i]), And(Not(d), borrow));
  }
  return borrow;
}

Wire CircuitBuilder::ge(const WireVec& a, const WireVec& b) {
  return Not(lt(a, b));
}

Wire CircuitBuilder::lt_const(const WireVec& a, std::uint64_t t) {
  const auto width = static_cast<unsigned>(
      std::max<std::size_t>(a.size(), bit_width_for(t)));
  return lt(zext(a, width), constant_bits(t, width));
}

Wire CircuitBuilder::ge_const(const WireVec& a, std::uint64_t t) {
  return Not(lt_const(a, t));
}

Wire CircuitBuilder::eq_const(const WireVec& a, std::uint64_t t) {
  if (a.size() < 64 && (t >> a.size()) != 0) return zero();
  Wire acc = one();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool bit = (i < 64) && ((t >> i) & 1);
    acc = And(acc, bit ? a[i] : Not(a[i]));
  }
  return acc;
}

WireVec CircuitBuilder::popcount(std::span<const Wire> bits) {
  if (bits.empty()) return constant_bits(0, 1);
  std::vector<WireVec> values;
  values.reserve(bits.size());
  for (const Wire b : bits) values.push_back(WireVec{b});
  return sum_tree(std::move(values));
}

WireVec CircuitBuilder::sum_tree(std::vector<WireVec> values) {
  require(!values.empty(), "CircuitBuilder: sum_tree of nothing");
  // Balanced binary reduction keeps both size and depth logarithmic.
  while (values.size() > 1) {
    std::vector<WireVec> next;
    next.reserve((values.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < values.size(); i += 2) {
      next.push_back(add_expand(values[i], values[i + 1]));
    }
    if (values.size() % 2 == 1) next.push_back(std::move(values.back()));
    values = std::move(next);
  }
  return values[0];
}

WireVec CircuitBuilder::mux_vec(Wire sel, const WireVec& a, const WireVec& b) {
  require(a.size() == b.size(), "CircuitBuilder: mux_vec width mismatch");
  WireVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = Mux(sel, a[i], b[i]);
  return out;
}

void CircuitBuilder::output(Wire w) {
  require(w < circuit_.gates_.size(), "CircuitBuilder: bad output wire");
  circuit_.outputs_.push_back(w);
}

void CircuitBuilder::output_vec(const WireVec& v) {
  for (const Wire w : v) output(w);
}

Circuit CircuitBuilder::take() { return std::move(circuit_); }

}  // namespace eppi::mpc
