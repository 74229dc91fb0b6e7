// The per-block unstructured-mesh output data model (paper §III-C2).
//
// Vertices are listed once per block and shared among cells; integer
// indices connect vertices into faces and faces into cells. Original
// particle (site) locations, per-cell volumes and areas, per-face natural
// neighbor ids, and the block extents are stored alongside — everything the
// postprocessing plugin needs for thresholding, connected components, and
// Minkowski functionals.
#pragma once

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

struct CellRecord {
  std::int64_t site_id = -1;  ///< global particle id of the cell's site
  Vec3 site;                  ///< particle position
  double volume = 0.0;
  double area = 0.0;
  std::uint32_t first_face = 0;  ///< index into face arrays
  std::uint32_t num_faces = 0;
};

/// One block of the tessellation. Faces are stored structure-of-arrays:
/// face f spans face_verts[face_offsets[f] .. face_offsets[f+1]) and its
/// natural neighbor (the particle whose bisector generated it) is
/// face_neighbors[f].
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

  /// Append a compacted Voronoi cell. Vertices are welded against the
  /// block's existing vertices so shared Voronoi vertices are listed once.
  /// Each of the cell's vertices is welded once, at its first reference in
  /// face-corner order; later corners reuse that result.
  void add_cell(std::int64_t site_id, const geom::VoronoiCell& cell,
                double volume, double area);

  /// Append every cell of `other`, re-welding its vertices against this
  /// mesh. Merging worker shards in site order through this call yields
  /// exactly the mesh a serial pass would have produced, because welding
  /// keys on quantized positions and shard-local representatives coincide
  /// with the serial first-occurrence representatives. Linear in the size
  /// of `other` (amortized): storage grows geometrically.
  void append(const BlockMesh& other);

  /// Append a single cell of `src`, re-welding its vertices against this
  /// mesh (the per-cell form of append, used by canonical_merge). `remap`
  /// caches src vertex -> this mesh's vertex across calls: size it to
  /// src.vertices.size() filled with kUnwelded before the first call for
  /// `src`, then pass the same vector for every cell of `src` appended to
  /// this mesh.
  void append_cell(const BlockMesh& src, std::size_t cell,
                   std::vector<std::uint32_t>& remap);

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
  /// Index of the vertex at v's quantized position, appending v if none.
  [[nodiscard]] std::uint32_t weld_vertex(const Vec3& v);
  /// Slot holding quantized key (x, y, z), or the free slot it would take.
  [[nodiscard]] std::size_t weld_slot(std::int64_t x, std::int64_t y,
                                      std::int64_t z) const;
  /// Append src's face range [first, first + count) to the face arrays,
  /// welding each source vertex once through `remap`.
  void append_faces(const BlockMesh& src, std::size_t first,
                    std::size_t count, std::vector<std::uint32_t>& remap);

  // Open-addressing weld table (quantized position -> vertex index):
  // power-of-two slot array, linear probing, load kept at most 1/2. A
  // mesh's table only ever grows; first occurrence of a key wins.
  struct WeldSlot {
    std::int64_t x, y, z;
    std::uint32_t index;  ///< kUnwelded marks a free slot
  };
  std::vector<WeldSlot> weld_slots_;
  std::size_t weld_count_ = 0;
  std::vector<std::uint32_t> remap_;  ///< reused by add_cell and append
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
