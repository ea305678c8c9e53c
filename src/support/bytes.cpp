#include "support/bytes.hpp"

#include <fstream>
#include <iterator>

namespace pufatt::support {

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
}

}  // namespace pufatt::support
