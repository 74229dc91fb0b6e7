// The per-block unstructured-mesh output data model (paper §III-C2).
//
// Vertices are listed once per block and shared among cells; integer
// indices connect vertices into faces and faces into cells. Original
// particle (site) locations, per-cell volumes and areas, per-face natural
// neighbor ids, and the block extents are stored alongside — everything the
// postprocessing plugin needs for thresholding, connected components, and
// Minkowski functionals.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "diy/decomposition.hpp"
#include "diy/serialize.hpp"
#include "geom/vec3.hpp"
#include "geom/voronoi_cell.hpp"

namespace tess::core {

using geom::Vec3;

/// Welding quantum: Voronoi vertices computed independently from adjacent
/// cells agree to ~1e-10 relative, so a 1e-7 grid merges them while keeping
/// genuinely distinct vertices (>= particle-spacing scale apart) separate.
/// Two positions weld iff llround(coord / kWeldQuantum) agrees on all axes.
inline constexpr double kWeldQuantum = 1e-7;

/// The quantized position a vertex welds by.
struct WeldKey {
  std::int64_t x = 0, y = 0, z = 0;
  bool operator==(const WeldKey&) const = default;
};

/// llround(coord / kWeldQuantum) per axis: every BlockMesh weld key is
/// computed here.
inline WeldKey weld_key(const Vec3& v) {
  return {std::llround(v.x / kWeldQuantum), std::llround(v.y / kWeldQuantum),
          std::llround(v.z / kWeldQuantum)};
}

struct CellRecord {
  std::int64_t site_id = -1;  ///< global particle id of the cell's site
  Vec3 site;                  ///< particle position
  double volume = 0.0;
  double area = 0.0;
  std::uint32_t first_face = 0;  ///< index into face arrays
  std::uint32_t num_faces = 0;
};

/// Kept cells staged for assembly into a BlockMesh. Each cell lists its
/// own vertices once, in first-reference order along its face loops;
/// nothing is welded across cells, so staging a cell costs only what the
/// cell holds. BlockMesh::append_cell welds each staged vertex once. The
/// tessellator fills one stage per chunk of its parallel cell loop.
///
/// add_cell() is the one writer of a kept cell, in both ghost modes. Through
/// VoronoiCell::append_compacted() it writes the cell's compacted faces,
/// its vertices in first-use order, and its volume and area in one pass: a
/// cell finished by compact() or canonicalize() is copied, a generic
/// fixed-ghost cell is read straight off its edge table without building a
/// Face list, and a cell compact() would clean is compacted in place first.
struct StagedCells {
  std::vector<CellRecord> cells;  ///< first_face indexes this stage's faces
  /// Cell c's vertices are [first_vertex[c], first_vertex[c + 1]).
  std::vector<std::uint32_t> first_vertex{0};
  std::vector<Vec3> vertices;
  std::vector<std::uint32_t> face_offsets{0};
  /// Face corners, each an index into its own cell's vertex range.
  std::vector<std::uint32_t> face_verts;
  std::vector<std::int64_t> face_neighbors;

  /// Stage a cell in compact()'s form (a finished cell as it stands) with
  /// its volume and area; returns its record, valid until the next
  /// add_cell. May compact `cell` in place.
  CellRecord& add_cell(std::int64_t site_id, geom::VoronoiCell& cell);
  /// Remove the last staged cell: the stage is as it was before its
  /// add_cell.
  void drop_last();
};

/// One block of the tessellation. Faces are stored structure-of-arrays:
/// face f spans face_verts[face_offsets[f] .. face_offsets[f+1]) and its
/// natural neighbor (the particle whose bisector generated it) is
/// face_neighbors[f]. Every cell appended through append_cell is welded: a
/// mesh lists each weld key's vertex once, at the position of the first
/// vertex appended with that key, numbered in first-reference order.
class BlockMesh {
 public:
  diy::Bounds bounds{};
  std::vector<Vec3> vertices;
  std::vector<CellRecord> cells;
  std::vector<std::uint32_t> face_offsets;  ///< size = num_faces + 1
  std::vector<std::uint32_t> face_verts;
  std::vector<std::int64_t> face_neighbors;

  BlockMesh() { face_offsets.push_back(0); }

  [[nodiscard]] std::size_t num_cells() const { return cells.size(); }
  [[nodiscard]] std::size_t num_faces() const { return face_neighbors.size(); }

  /// Append staged cell `cell` of `src`, welding each of its staged
  /// vertices once, in staged order, against this mesh.
  void append_cell(const StagedCells& src, std::size_t cell);

  /// Append cell `cell` of the welded mesh `src`, re-welding its vertices
  /// against this mesh (canonical_merge, region extraction). `remap`
  /// caches src vertex -> this mesh's vertex across calls: size it to
  /// src.vertices.size() filled with kUnwelded before the first call for
  /// `src`, then pass the same vector for every cell of `src` appended to
  /// this mesh. Storage grows geometrically, so appending many cells is
  /// linear in their size (amortized).
  void append_cell(const BlockMesh& src, std::size_t cell,
                   std::vector<std::uint32_t>& remap);

  /// Size the weld table for `count` welded vertices, so welding up to that
  /// many never rehashes.
  void reserve_weld(std::size_t count);

  /// Marks a source vertex not yet welded in an append_cell remap.
  static constexpr std::uint32_t kUnwelded = UINT32_MAX;

  /// Average faces per cell / vertices per face (paper's data-model stats).
  [[nodiscard]] double avg_faces_per_cell() const;
  [[nodiscard]] double avg_verts_per_face() const;
  /// Serialized size in bytes per cell (the paper reports ~450 B/particle
  /// for full tessellations and ~100 B after culling).
  [[nodiscard]] double bytes_per_cell() const;

  void serialize(diy::Buffer& buf) const;
  /// Throws std::runtime_error when the bytes are truncated or their
  /// index data (face offsets, face vertices, cell face ranges) would index
  /// out of bounds.
  static BlockMesh deserialize(diy::Buffer& buf);
  /// Zero-copy deserialization straight out of a memory-mapped block
  /// (diy::MappedBlockFile::block_view) — same wire format as above.
  static BlockMesh deserialize(diy::BufferView& buf);

  /// Read just the block bounds from serialized bytes (they lead the wire
  /// format), letting a reader route spatial queries to blocks without
  /// deserializing any of them.
  static diy::Bounds peek_bounds(diy::BufferView buf);

 private:
  /// Index of the vertex welded under weld_key(v), appending v if none: the
  /// one weld of the library.
  [[nodiscard]] std::uint32_t weld_vertex(const Vec3& v);
  /// Rebuild the weld table with `slots` slots (a power of two).
  void rehash_weld(std::size_t slots);

  // Open-addressing weld table: a power-of-two array of vertex indices
  // (kUnwelded marks a free slot), linear probing, load kept at most 1/2.
  // A welded vertex's key is stored once, in weld_keys_ beside the vertex
  // array, and is read only when a probe lands on an occupied slot. A
  // mesh's table only ever grows; the first vertex seen with a key wins.
  std::vector<std::uint32_t> weld_slots_;
  std::vector<WeldKey> weld_keys_;  ///< key of vertices[i], for welded i
  std::size_t weld_count_ = 0;
  std::vector<std::uint32_t> remap_;  ///< reused by append_cell(StagedCells)
};

/// Merge per-block meshes into one canonical global mesh whose bytes are
/// independent of the decomposition that produced the blocks: cells are
/// appended in ascending site-id order (sites are globally unique, each
/// kept by exactly one owner) with vertices re-welded, and the bounds are
/// the union of the block bounds (= the domain for any full tiling). Two
/// runs that keep the same cell set — e.g. a uniform grid and a k-d
/// decomposition of the same certified tessellation — serialize to
/// identical bytes. This is the currency of the repartition-invariance
/// harness.
[[nodiscard]] BlockMesh canonical_merge(const std::vector<BlockMesh>& blocks);

}  // namespace tess::core
