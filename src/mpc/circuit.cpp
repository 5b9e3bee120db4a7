#include "mpc/circuit.h"

#include "common/error.h"

namespace eppi::mpc {

std::uint32_t Circuit::input_owner(Wire w) const {
  require(w < gates_.size() && gates_[w].op == GateOp::kInput,
          "Circuit: wire is not an input");
  return gates_[w].a;
}

WireVec Circuit::inputs_of(std::uint32_t party) const {
  WireVec result;
  for (const Wire w : inputs_) {
    if (gates_[w].a == party) result.push_back(w);
  }
  return result;
}

std::size_t Circuit::lanes_at(unsigned level) const noexcept {
  std::size_t lanes = lanes_;
  for (unsigned k = 0; k < level; ++k) lanes = (lanes + 1) / 2;
  return lanes;
}

const std::vector<std::uint64_t>& Circuit::public_words(Wire w) const {
  require(w < gates_.size() && gates_[w].op == GateOp::kPublic,
          "Circuit: wire is not a public word");
  return public_words_[gates_[w].a];
}

}  // namespace eppi::mpc
