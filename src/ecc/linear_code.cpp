#include "ecc/linear_code.hpp"

#include <stdexcept>
#include <utility>

namespace pufatt::ecc {

BinaryCode::BinaryCode(Gf2Matrix parity_check)
    : parity_check_(std::move(parity_check)) {
  const auto& h = parity_check_;
  for (std::size_t j = 0; j < h.rows(); ++j) {
    support::BitVector unit(h.rows());
    unit.set(j, true);
    auto solution = h.solve(unit);
    if (!solution) {
      throw std::invalid_argument(
          "BinaryCode: parity-check matrix is rank-deficient");
    }
    if (h.cols() <= 64) {
      preimage_words_.push_back(solution->to_u64());
      parity_check_words_.push_back(h.row(j).to_u64());
    }
    preimages_.push_back(std::move(*solution));
  }
}

Gf2Matrix parity_from_generator(const Gf2Matrix& generator) {
  // Rows of H = basis of the null space of G (as row space): H must satisfy
  // G * H^T = 0, i.e. every H row is orthogonal to every G row.  null_space
  // of the matrix whose rows are G's rows gives vectors x with G x = 0.
  return Gf2Matrix(generator.null_space());
}

}  // namespace pufatt::ecc
