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
  /// Opens `path` and validates its footer index once; throws on a
  /// missing, truncated or corrupt file.
  explicit TessReader(const std::string& path);

  [[nodiscard]] int num_blocks() const;
  [[nodiscard]] core::BlockMesh read_block(int block) const;
  [[nodiscard]] std::vector<core::BlockMesh> read_all() const;

  /// Blocks assigned round-robin to `rank` of `size` (parallel
  /// postprocessing pattern).
  [[nodiscard]] std::vector<core::BlockMesh> read_my_blocks(int rank,
                                                            int size) const;

 private:
  std::string path_;
  diy::BlockFileReader file_;
};

}  // namespace tess::analysis
