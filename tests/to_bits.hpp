// Converts the std::vector<bool> input vectors that Netlist::evaluate and
// EventSimulator take into the BitVector the timing engines take, so one
// drawn input vector can drive every engine under test.
#pragma once

#include <vector>

#include "support/bitvec.hpp"

namespace pufatt::testref {

inline support::BitVector to_bits(const std::vector<bool>& values) {
  support::BitVector bits(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) bits.set(i, values[i]);
  return bits;
}

}  // namespace pufatt::testref
