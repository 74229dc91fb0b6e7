#include "analysis/reader.hpp"

#include <stdexcept>
#include <string>

namespace tess::analysis {

TessReader::TessReader(const std::string& path) : file_(path) {}

int TessReader::num_blocks() const { return file_.num_blocks(); }

core::BlockMesh TessReader::read_block(int block) const {
  const auto view = file_.block_view(block);
  try {
    auto mesh = core::BlockMesh::deserialize(view);
    file_.release(block);  // the mesh is a copy
    return mesh;
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("corrupt tess block file '" + file_.path() +
                             "': block " + std::to_string(block) + ": " +
                             e.what());
  }
}

std::vector<core::BlockMesh> TessReader::read_all() const {
  std::vector<core::BlockMesh> all;
  all.reserve(static_cast<std::size_t>(num_blocks()));
  for (int b = 0; b < num_blocks(); ++b) all.push_back(read_block(b));
  return all;
}

std::vector<core::BlockMesh> TessReader::read_my_blocks(int rank, int size) const {
  if (rank < 0 || rank >= size)
    throw std::invalid_argument("TessReader::read_my_blocks: rank " +
                                std::to_string(rank) + " of " +
                                std::to_string(size));
  std::vector<core::BlockMesh> mine;
  for (int b = rank; b < num_blocks(); b += size) mine.push_back(read_block(b));
  return mine;
}

}  // namespace tess::analysis
