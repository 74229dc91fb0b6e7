// Connected-component labeling over the Voronoi face-adjacency graph —
// the plugin feature the paper uses to turn threshold-surviving cells into
// cosmological voids (§III-D, Figure 9). Two cells are connected when they
// share a face (one lists the other's site as a face neighbor), which the
// tessellation records exactly in each face's natural-neighbor id; the
// labeling therefore works across block boundaries without any geometric
// matching.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/block_mesh.hpp"

namespace tess::analysis {

struct Component {
  std::int64_t label = -1;  ///< representative site id
  std::size_t num_cells = 0;
  double volume = 0.0;      ///< summed cell volume
};

class ConnectedComponents {
 public:
  /// Build from the cells present in `blocks` (typically already threshold
  /// filtered). Face adjacency toward absent cells is ignored.
  explicit ConnectedComponents(const std::vector<core::BlockMesh>& blocks);

  /// Snapshot-safe variant over non-owning blocks (serve::Snapshot hands
  /// these out); identical labeling to the owning overload. All const
  /// accessors below only read state finalized here, so a fully
  /// constructed labeling is safe to query from many threads at once.
  explicit ConnectedComponents(
      const std::vector<const core::BlockMesh*>& blocks);

  /// Labels only the listed cells: kept[b] indexes blocks[b]->cells, in
  /// order. Identical labeling to the owning overload over filter_mesh
  /// copies of those cells, without the copies.
  ConnectedComponents(const std::vector<const core::BlockMesh*>& blocks,
                      const std::vector<std::vector<std::size_t>>& kept);

  /// Component label for a site id, or -1 if the cell is absent.
  [[nodiscard]] std::int64_t label_of(std::int64_t site_id) const;

  /// Components sorted by descending volume.
  [[nodiscard]] const std::vector<Component>& components() const {
    return components_;
  }
  [[nodiscard]] std::size_t num_components() const { return components_.size(); }

  /// Site ids belonging to one component label.
  [[nodiscard]] std::vector<std::int64_t> sites_of(std::int64_t label) const;

  /// Every (site, label) pair of the labeling (used by feature tracking).
  [[nodiscard]] std::vector<std::array<std::int64_t, 2>> labeled_sites() const;

 private:
  /// kept == nullptr: every cell of every block.
  void build(const std::vector<const core::BlockMesh*>& blocks,
             const std::vector<std::vector<std::size_t>>* kept);

  std::unordered_map<std::int64_t, std::size_t> index_of_site_;
  std::vector<std::int64_t> site_of_index_;
  std::vector<std::int64_t> label_;  ///< per cell index, after collation
  std::vector<Component> components_;
};

}  // namespace tess::analysis
