#include "analysis/reader.hpp"

#include <stdexcept>
#include <string>

#include "diy/blockio.hpp"

namespace tess::analysis {

TessReader::TessReader(const std::string& path) : path_(path) {
  // Validate the file eagerly so constructor failure pinpoints the path.
  diy::BlockFileReader probe(path_);
}

int TessReader::num_blocks() const { return diy::BlockFileReader(path_).num_blocks(); }

namespace {

core::BlockMesh decode_block(const diy::BlockFileReader& reader,
                             const std::string& path, int block) {
  auto buf = reader.read_block(block);
  try {
    return core::BlockMesh::deserialize(buf);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("corrupt tess block file '" + path + "': block " +
                             std::to_string(block) + ": " + e.what());
  }
}

}  // namespace

core::BlockMesh TessReader::read_block(int block) const {
  return decode_block(diy::BlockFileReader(path_), path_, block);
}

std::vector<core::BlockMesh> TessReader::read_all() const {
  diy::BlockFileReader reader(path_);
  std::vector<core::BlockMesh> all;
  all.reserve(static_cast<std::size_t>(reader.num_blocks()));
  for (int b = 0; b < reader.num_blocks(); ++b)
    all.push_back(decode_block(reader, path_, b));
  return all;
}

std::vector<core::BlockMesh> TessReader::read_my_blocks(int rank, int size) const {
  diy::BlockFileReader reader(path_);
  std::vector<core::BlockMesh> mine;
  for (int b = rank; b < reader.num_blocks(); b += size)
    mine.push_back(decode_block(reader, path_, b));
  return mine;
}

}  // namespace tess::analysis
