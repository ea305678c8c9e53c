#include "ecc/linear_code.hpp"

namespace pufatt::ecc {

Gf2Matrix parity_from_generator(const Gf2Matrix& generator) {
  // Rows of H = basis of the null space of G (as row space): H must satisfy
  // G * H^T = 0, i.e. every H row is orthogonal to every G row.  null_space
  // of the matrix whose rows are G's rows gives vectors x with G x = 0.
  return Gf2Matrix(generator.null_space());
}

}  // namespace pufatt::ecc
