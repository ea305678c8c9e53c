#include "ecc/helper_data.hpp"

#include <bit>
#include <stdexcept>

namespace pufatt::ecc {

using support::BitVector;

SyndromeHelper::SyndromeHelper(const BinaryCode& code) : code_(&code) {}

BitVector SyndromeHelper::generate(const BitVector& response) const {
  if (response.size() != code_->n()) {
    throw std::invalid_argument("SyndromeHelper::generate: wrong length");
  }
  return code_->syndrome(response);
}

std::uint64_t SyndromeHelper::generate_word(std::uint64_t response) const {
  if (code_->n() > 64) {
    throw std::invalid_argument(
        "SyndromeHelper::generate_word: code wider than 64 bits");
  }
  return code_->syndrome_word(response);
}

std::optional<BitVector> SyndromeHelper::reproduce(
    const BitVector& reference, const BitVector& helper) const {
  if (reference.size() != code_->n()) {
    throw std::invalid_argument("SyndromeHelper::reproduce: wrong length");
  }
  if (helper.size() != helper_bits()) {
    throw std::invalid_argument("SyndromeHelper::reproduce: bad helper size");
  }
  // y0: any word with syndrome equal to the helper data.
  const auto& preimages = code_->syndrome_preimages();
  BitVector y0(code_->n());
  for (std::size_t j = 0; j < helper.size(); ++j) {
    if (helper.get(j)) y0 ^= preimages[j];
  }
  // reference XOR y0 = (codeword) XOR (small error); decode it.
  const auto codeword = code_->decode_to_codeword(reference ^ y0);
  if (!codeword) return std::nullopt;
  return *codeword ^ y0;
}

std::optional<BitVector> SyndromeHelper::reproduce_soft(
    const std::vector<double>& reference_llr,
    const BitVector& helper) const {
  if (reference_llr.size() != code_->n()) {
    throw std::invalid_argument("SyndromeHelper::reproduce_soft: wrong length");
  }
  if (helper.size() != helper_bits()) {
    throw std::invalid_argument("SyndromeHelper::reproduce_soft: bad helper");
  }
  const auto response = reproduce_soft_word(reference_llr.data(), helper.to_u64());
  if (!response) return std::nullopt;
  return BitVector(code_->n(), *response);
}

std::optional<std::uint64_t> SyndromeHelper::reproduce_soft_word(
    const double* reference_llr, std::uint64_t helper) const {
  const std::size_t n = code_->n();
  if (n > 64) {
    throw std::invalid_argument(
        "SyndromeHelper::reproduce_soft_word: code wider than 64 bits");
  }
  // y0: any word with syndrome equal to the helper data.
  const std::uint64_t y0 = code_->preimage_word(helper);
  // The word to decode is reference XOR y0; XOR with a known bit flips the
  // sign of the soft value, so the sign bit takes y0's bit (exactly unary
  // minus, +-0.0 included, with no data-dependent branch).
  double llr[64] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t sign = ((y0 >> i) & 1ULL) << 63;
    llr[i] = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(reference_llr[i]) ^ sign);
  }
  const auto codeword = code_->decode_soft_word(llr);
  if (!codeword) return std::nullopt;
  return *codeword ^ y0;
}

}  // namespace pufatt::ecc
