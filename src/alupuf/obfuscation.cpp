#include "alupuf/obfuscation.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/rng.hpp"

namespace pufatt::alupuf {

using support::BitVector;

ObfuscationNetwork::ObfuscationNetwork(std::size_t response_bits,
                                       Pairing pairing)
    : two_n_(response_bits), pairing_(pairing) {
  if (response_bits == 0 || response_bits % 2 != 0 || response_bits > 64) {
    throw std::invalid_argument(
        "ObfuscationNetwork: response width must be even (2n) and <= 64");
  }
  const std::size_t n = two_n_ / 2;
  pairs_.reserve(n);
  if (pairing_ == Pairing::kPaper) {
    for (std::size_t i = 0; i < n; ++i) pairs_.emplace_back(i, i + n);
  } else {
    // Fixed pseudorandom matching (same on device and verifier): a
    // Fisher-Yates shuffle from a compile-time constant seed.
    std::vector<std::size_t> perm(two_n_);
    std::iota(perm.begin(), perm.end(), 0);
    support::Xoshiro256pp rng(0x0BF5'CA7E0ULL + two_n_);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.uniform_u64(i)]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      pairs_.emplace_back(perm[2 * k], perm[2 * k + 1]);
    }
  }
}

BitVector ObfuscationNetwork::fold(const BitVector& response) const {
  if (response.size() != two_n_) {
    throw std::invalid_argument("ObfuscationNetwork::fold: wrong width");
  }
  return BitVector(two_n_ / 2, fold_word(response.to_u64()));
}

BitVector ObfuscationNetwork::obfuscate(
    const std::array<BitVector, kResponsesPerOutput>& responses) const {
  std::array<std::uint64_t, kResponsesPerOutput> words;
  for (std::size_t r = 0; r < words.size(); ++r) {
    if (responses[r].size() != two_n_) {
      throw std::invalid_argument("ObfuscationNetwork::obfuscate: wrong width");
    }
    words[r] = responses[r].to_u64();
  }
  return BitVector(two_n_, obfuscate_words(words));
}

std::uint64_t ObfuscationNetwork::fold_word(std::uint64_t response) const {
  std::uint64_t folded = 0;
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    folded |= ((response >> pairs_[k].first ^ response >> pairs_[k].second) &
               1ULL)
              << k;
  }
  return folded;
}

std::uint64_t ObfuscationNetwork::obfuscate_words(
    const std::array<std::uint64_t, kResponsesPerOutput>& responses) const {
  const std::size_t n = two_n_ / 2;
  const std::uint64_t mask = two_n_ == 64 ? ~0ULL : (1ULL << two_n_) - 1;
  std::uint64_t z = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    // b_j = fold(y_{2j}) || fold(y_{2j+1}), low half first.
    std::uint64_t b =
        fold_word(responses[2 * j]) | fold_word(responses[2 * j + 1]) << n;
    const std::size_t k = 5 * j % two_n_;
    if (pairing_ == Pairing::kHardened && k != 0) {
      // Rotate each word by a distinct amount before the phase-2 XOR so
      // identical per-response error patterns cannot cancel pairwise (the
      // second half of the degeneracy fix; see the Pairing doc comment).
      b = (b << k | b >> (two_n_ - k)) & mask;
    }
    z ^= b;
  }
  return z;
}

}  // namespace pufatt::alupuf
