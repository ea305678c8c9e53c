#include "ecc/linear_code.hpp"

#include <stdexcept>

namespace pufatt::ecc {

std::optional<support::BitVector> BinaryCode::decode_soft_to_codeword(
    const std::vector<double>& llr) const {
  if (llr.size() != n()) {
    throw std::invalid_argument("decode_soft_to_codeword: wrong length");
  }
  support::BitVector hard(n());
  for (std::size_t i = 0; i < llr.size(); ++i) hard.set(i, llr[i] < 0.0);
  return decode_to_codeword(hard);
}

std::optional<std::uint64_t> BinaryCode::decode_soft_word(
    const double* llr) const {
  if (n() > 64) {
    throw std::invalid_argument("decode_soft_word: code wider than 64 bits");
  }
  const auto codeword =
      decode_soft_to_codeword(std::vector<double>(llr, llr + n()));
  if (!codeword) return std::nullopt;
  return codeword->to_u64();
}

}  // namespace pufatt::ecc
