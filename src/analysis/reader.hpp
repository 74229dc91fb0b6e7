// Postprocessing reader for tess block files — the counterpart of the
// ParaView plugin's "parallel reader" (paper §III-D). Blocks can be read
// one at a time (for distributed postprocessing, each rank fetching its
// share) or all at once (for serial analysis).
#pragma once

#include <string>
#include <vector>

#include "core/block_mesh.hpp"
#include "diy/blockio.hpp"

namespace tess::analysis {

class TessReader {
 public:
  /// Opens and maps `path` and validates its footer index once; throws on
  /// a missing, truncated or corrupt file. Every block is read from that
  /// one mapping, whatever happens to the path afterwards.
  explicit TessReader(const std::string& path);

  [[nodiscard]] int num_blocks() const;
  /// A copy of one block's mesh; the block's mapped pages are released
  /// once it is copied.
  [[nodiscard]] core::BlockMesh read_block(int block) const;
  [[nodiscard]] std::vector<core::BlockMesh> read_all() const;

  /// Blocks assigned round-robin to `rank` of `size` (parallel
  /// postprocessing pattern); throws std::invalid_argument unless
  /// 0 <= rank < size.
  [[nodiscard]] std::vector<core::BlockMesh> read_my_blocks(int rank,
                                                            int size) const;

 private:
  diy::BlockFileReader file_;
};

}  // namespace tess::analysis
