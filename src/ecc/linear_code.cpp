#include "ecc/linear_code.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace pufatt::ecc {

Gf2WordMap::Gf2WordMap(const std::vector<std::uint64_t>& columns) {
  if (columns.size() > 64) {
    throw std::invalid_argument("Gf2WordMap: more than 64 input bits");
  }
  tables_.resize((columns.size() + 7) / 8);
  for (std::size_t b = 0; b < tables_.size(); ++b) {
    auto& table = tables_[b];
    table[0] = 0;
    // Entry v = entry (v without its lowest set bit) XOR that bit's column.
    for (unsigned v = 1; v < 256; ++v) {
      const std::size_t bit = 8 * b + std::countr_zero(v);
      table[v] = table[v & (v - 1)] ^ (bit < columns.size() ? columns[bit] : 0);
    }
  }
}

BinaryCode::BinaryCode(Gf2Matrix parity_check)
    : parity_check_(std::move(parity_check)) {
  const auto& h = parity_check_;
  std::vector<std::uint64_t> preimage_words;
  for (std::size_t j = 0; j < h.rows(); ++j) {
    support::BitVector unit(h.rows());
    unit.set(j, true);
    auto solution = h.solve(unit);
    if (!solution) {
      throw std::invalid_argument(
          "BinaryCode: parity-check matrix is rank-deficient");
    }
    if (h.cols() <= 64) preimage_words.push_back(solution->to_u64());
    preimages_.push_back(std::move(*solution));
  }
  if (h.cols() <= 64) {
    // Column i of H as a word (bit j = H[j][i]) is the syndrome of e_i.
    const Gf2Matrix ht = h.transposed();
    std::vector<std::uint64_t> columns;
    for (const auto& column : ht.row_vectors()) {
      columns.push_back(column.to_u64());
    }
    syndrome_ = Gf2WordMap(columns);
    preimage_ = Gf2WordMap(preimage_words);
  }
}

Gf2Matrix parity_from_generator(const Gf2Matrix& generator) {
  // Rows of H = basis of the null space of G (as row space): H must satisfy
  // G * H^T = 0, i.e. every H row is orthogonal to every G row.  null_space
  // of the matrix whose rows are G's rows gives vectors x with G x = 0.
  return Gf2Matrix(generator.null_space());
}

}  // namespace pufatt::ecc
