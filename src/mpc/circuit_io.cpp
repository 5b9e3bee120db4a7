#include "mpc/circuit_io.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "mpc/circuit_builder.h"

namespace eppi::mpc {

namespace {

constexpr char kMagic[8] = {'e', 'p', 'p', 'i', 'c', 'r', 'c', '2'};

}  // namespace

void save_circuit(std::ostream& out, const Circuit& circuit) {
  eppi::BinaryWriter w;
  w.write_varint(circuit.lanes());
  const auto& gates = circuit.gates();
  w.write_varint(gates.size());
  for (Wire i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    w.write_u8(static_cast<std::uint8_t>(g.op));
    w.write_u8(static_cast<std::uint8_t>(circuit.level(i)));
    if (g.op == GateOp::kPublic) {
      w.write_u64_vector(circuit.public_words(i));
      continue;
    }
    w.write_varint(g.a);
    w.write_varint(g.b);
  }
  w.write_varint(circuit.outputs().size());
  for (const Wire o : circuit.outputs()) w.write_varint(o);

  out.write(kMagic, sizeof(kMagic));
  const auto& buf = w.buffer();
  std::uint64_t size = buf.size();
  char size_bytes[8];
  for (int i = 0; i < 8; ++i) size_bytes[i] = static_cast<char>(size >> (8 * i));
  out.write(size_bytes, 8);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
}

Circuit load_circuit(std::istream& in) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + sizeof(kMagic), kMagic)) {
    throw eppi::SerializeError("load_circuit: bad magic or version");
  }
  char size_bytes[8];
  in.read(size_bytes, 8);
  if (!in) throw eppi::SerializeError("load_circuit: truncated header");
  std::uint64_t size = 0;
  for (int i = 0; i < 8; ++i) {
    size |= static_cast<std::uint64_t>(static_cast<unsigned char>(size_bytes[i]))
            << (8 * i);
  }
  constexpr std::uint64_t kMaxBytes = std::uint64_t{1} << 34;  // 16 GiB guard
  if (size > kMaxBytes) {
    throw eppi::SerializeError("load_circuit: implausible payload size");
  }
  // Grow the buffer as bytes arrive: a corrupt size field must not commit
  // gigabytes before the stream turns out to be short.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::vector<std::uint8_t> buf;
  while (buf.size() < size) {
    const std::size_t at = buf.size();
    const auto n = static_cast<std::size_t>(std::min(kChunk, size - at));
    buf.resize(at + n);
    in.read(reinterpret_cast<char*>(buf.data() + at),
            static_cast<std::streamsize>(n));
    if (!in) throw eppi::SerializeError("load_circuit: truncated payload");
  }

  eppi::BinaryReader r(buf);
  const std::uint64_t lanes = r.read_varint();
  if (lanes == 0 || lanes > std::numeric_limits<std::uint32_t>::max()) {
    throw eppi::SerializeError("load_circuit: implausible lane count");
  }
  const std::uint64_t n_gates = r.read_varint();
  // Every serialized gate occupies at least 3 bytes; reject headers that
  // promise more gates than the payload can hold before reserving memory.
  if (n_gates > buf.size() / 3 + 1) {
    throw eppi::SerializeError("load_circuit: implausible gate count");
  }
  // Rebuild through the builder so stats/layers are recomputed and every
  // structural invariant (lane levels, public word sizes) is revalidated;
  // a violation the builder reports is a malformed file. Circuits we save
  // come from the builder, so their ops replay exactly.
  CircuitBuilder cb(static_cast<std::size_t>(lanes));
  std::vector<Wire> remap;
  remap.reserve(n_gates);
  try {
    for (std::uint64_t i = 0; i < n_gates; ++i) {
      const auto op = static_cast<GateOp>(r.read_u8());
      const unsigned level = r.read_u8();
      if (level < cb.level()) {
        throw eppi::SerializeError("load_circuit: lane levels out of order");
      }
      while (cb.level() < level) cb.next_level();
      if (op == GateOp::kPublic) {
        std::vector<std::uint64_t> words = r.read_u64_vector();
        if (!words.empty() &&
            (words.back() & ~tail_mask(cb.lanes_here())) != 0) {
          throw eppi::SerializeError("load_circuit: public word tail bits");
        }
        remap.push_back(cb.public_word(std::move(words)));
        continue;
      }
      const std::uint64_t a = r.read_varint();
      const std::uint64_t b = r.read_varint();
      const bool unary = op == GateOp::kNot || op == GateOp::kHalve;
      const bool binary = op == GateOp::kXor || op == GateOp::kAnd;
      if (((unary || binary) && a >= i) || (binary && b >= i)) {
        throw eppi::SerializeError("load_circuit: forward wire reference");
      }
      switch (op) {
        case GateOp::kInput:
          if (a > std::numeric_limits<std::uint32_t>::max()) {
            throw eppi::SerializeError("load_circuit: bad input owner");
          }
          remap.push_back(cb.input_bit(static_cast<std::uint32_t>(a)));
          break;
        case GateOp::kConstZero:
          remap.push_back(cb.zero());
          break;
        case GateOp::kConstOne:
          remap.push_back(cb.one());
          break;
        case GateOp::kXor:
        case GateOp::kAnd:
          remap.push_back(op == GateOp::kXor
                              ? cb.Xor(remap[a], remap[b])
                              : cb.And(remap[a], remap[b]));
          break;
        case GateOp::kNot:
          remap.push_back(cb.Not(remap[a]));
          break;
        case GateOp::kHalve:
          if (b > 1) throw eppi::SerializeError("load_circuit: bad halve");
          remap.push_back(cb.halve(remap[a], b == 1));
          break;
        default:
          throw eppi::SerializeError("load_circuit: unknown gate op");
      }
    }
  } catch (const eppi::ConfigError& e) {
    throw eppi::SerializeError(std::string("load_circuit: ") + e.what());
  }
  const std::uint64_t n_outputs = r.read_varint();
  for (std::uint64_t i = 0; i < n_outputs; ++i) {
    const std::uint64_t o = r.read_varint();
    if (o >= remap.size()) {
      throw eppi::SerializeError("load_circuit: output wire out of range");
    }
    cb.output(remap[o]);
  }
  if (!r.exhausted()) {
    throw eppi::SerializeError("load_circuit: trailing bytes");
  }
  return cb.take();
}

}  // namespace eppi::mpc
