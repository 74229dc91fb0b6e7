// A single Voronoi cell represented as a convex polyhedron and refined by
// half-space clipping.
//
// The cell starts as a seed box (the block bounds grown by the ghost-zone
// thickness) and is cut by the perpendicular bisector plane of its site and
// each nearby particle. After all relevant cuts, the polyhedron is exactly
// the Voronoi cell intersected with the seed box; a cell that still retains
// a seed-box face is *incomplete* in the paper's sense (not closed off by
// surrounding particles) and is discarded by the tessellation pipeline.
//
// Every face remembers which neighbor particle (or box plane) generated it,
// and every vertex remembers the three generating planes, which makes the
// dual Delaunay tetrahedra directly recoverable (see geom/delaunay.hpp).
//
// Clipping is the hot path of the whole tessellation (the dominant column
// of the paper's Table II), so it is written to be allocation-free in
// steady state: all per-cut working storage lives in a caller-provided
// ClipScratch that is cleared and reused across cuts and across cells, and
// face vertex loops use inline small-buffer storage. A cell object itself
// can be reset() and reused so its vertex/face arrays keep their capacity
// from one site to the next.
//
// Live-vertex invariant: after reset() and after every cut that changes the
// cell, each stored vertex is referenced by some face. A cut drops the
// vertices it clipped away, renumbering the survivors in their existing
// order with vertex_generators() kept in step. Most cuts a builder tries
// change nothing; with only live vertices stored, clip() rejects those from
// one flat sweep of the plane distances, before walking any face loop.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geom/backend.hpp"
#include "geom/vec3.hpp"
#include "util/small_vector.hpp"

namespace tess::geom {

/// Oriented cutting plane n·x <= d (the kept side), tagged with the id of
/// the neighbor particle (source >= 0) or seed-box plane (source in
/// kBoxSourceMin..kBoxSourceMax) that produced it. `gen` carries the raw
/// coordinates of the generating neighbor; NaN when unknown (box planes,
/// planes supplied directly to clip()), in which case canonicalize() falls
/// back to reconstructing site + n.
struct Plane {
  Vec3 n;
  double d = 0.0;
  std::int64_t source = 0;
  Vec3 gen{std::numeric_limits<double>::quiet_NaN(),
           std::numeric_limits<double>::quiet_NaN(),
           std::numeric_limits<double>::quiet_NaN()};
};

struct ClipScratch;

class VoronoiCell {
 public:
  /// Box plane sources: -1 (-X), -2 (+X), -3 (-Y), -4 (+Y), -5 (-Z), -6 (+Z).
  static constexpr std::int64_t kBoxSourceMax = -1;
  static constexpr std::int64_t kBoxSourceMin = -6;
  /// Generator sentinel for a not-yet-known vertex generator.
  static constexpr std::int64_t kNoGenerator = INT64_MIN;

  /// Inline capacity of a face's vertex loop. Voronoi faces of realistic
  /// particle distributions are small polygons (quads on lattices, mostly
  /// pentagons/hexagons for random points); 16 covers the observed tail so
  /// faces stay heap-free.
  static constexpr std::size_t kInlineFaceVerts = 16;

  struct Face {
    std::int64_t source = 0;  ///< neighbor particle id, or box plane id (< 0)
    /// The generating plane n·x <= d. For bisector faces this is computed
    /// from the raw site/neighbor coordinates only, so it is identical no
    /// matter how the cell was constructed — the anchor that lets
    /// canonicalize() erase the construction path from the geometry.
    Vec3 plane_n{};
    double plane_d = 0.0;
    /// Raw coordinates of the generating neighbor particle (bisector faces,
    /// source >= 0). Exact as exchanged, not reconstructed — every cell
    /// incident to a shared Voronoi vertex sees bit-identical generator
    /// positions, which is what lets canonicalize() compute cross-cell
    /// bit-identical vertex coordinates. Unset for box faces.
    Vec3 gen{};
    /// CCW loop viewed from outside the cell.
    util::SmallVector<int, kInlineFaceVerts> verts;
  };

  /// Initialize as the axis-aligned seed box [box_min, box_max] around
  /// `site`; `site` must be strictly inside the box.
  VoronoiCell(const Vec3& site, const Vec3& box_min, const Vec3& box_max);

  /// Re-initialize to the seed box around a new site, keeping the capacity
  /// of all internal arrays (the allocation-free path for builders that
  /// reuse one cell object across many sites).
  void reset(const Vec3& site, const Vec3& box_min, const Vec3& box_max);

  [[nodiscard]] const Vec3& site() const { return site_; }

  /// Clip by the bisector plane between the site and `neighbor`, keeping the
  /// site side. Returns true if the cell geometry changed.
  bool cut(const Vec3& neighbor, std::int64_t neighbor_id, ClipScratch& scratch);

  /// Clip by an arbitrary plane (kept side n·x <= d).
  bool clip(const Plane& plane, ClipScratch& scratch);

  /// Convenience overloads using a per-thread scratch; identical results.
  bool cut(const Vec3& neighbor, std::int64_t neighbor_id);
  bool clip(const Plane& plane);

  /// True once every vertex has been clipped away.
  [[nodiscard]] bool empty() const { return faces_.empty(); }

  /// True when no seed-box face remains: the cell is bounded entirely by
  /// particle bisectors and therefore equals the true Voronoi cell.
  [[nodiscard]] bool complete() const;

  /// Squared distance from the site to its farthest vertex. A neighbor
  /// farther than 2*sqrt(max_radius2()) cannot modify the cell (security
  /// radius), which is the termination criterion of the cell builder.
  [[nodiscard]] double max_radius2() const { return max_radius2_; }

  /// Largest squared distance between any two cell vertices. Used for the
  /// paper's early volume culling: if the diameter of the circumscribing
  /// sphere of the threshold volume exceeds every vertex separation, the
  /// cell volume is provably below the threshold.
  [[nodiscard]] double max_vertex_separation2() const;

  [[nodiscard]] double volume() const;
  [[nodiscard]] double area() const;
  [[nodiscard]] Vec3 centroid() const;

  [[nodiscard]] const std::vector<Face>& faces() const { return faces_; }
  [[nodiscard]] const std::vector<Vec3>& vertices() const { return verts_; }
  /// The three plane sources that generate each vertex (box sources < 0).
  [[nodiscard]] const std::vector<std::array<std::int64_t, 3>>& vertex_generators()
      const {
    return gens_;
  }

  /// Ids of the neighbor particles whose bisectors bound the cell — the
  /// cell's natural (Delaunay) neighbors.
  [[nodiscard]] std::vector<std::int64_t> neighbor_ids() const;

  /// Remove zero-area faces left by bisector planes that graze the cell
  /// exactly along an edge or corner (degenerate, e.g. lattice inputs), weld
  /// coincident vertices, drop collinear loop vertices, and renumber the
  /// vertices in face order, dropping any these steps leave unreferenced.
  /// After a clean cut this keeps every vertex. Working arrays are
  /// per-thread and reused, so a warm thread compacts without allocating
  /// (canonicalize() likewise).
  void compact();

  /// Rewrite the cell into a canonical, construction-path-independent form
  /// (compacts first): every vertex is recomputed from the positions of its
  /// generating particles (site + incident plane normals, sorted
  /// lexicographically) so ALL cells sharing a vertex produce bit-identical
  /// coordinates, faces are sorted by a deterministic plane key, each loop
  /// is rotated to start at its lexicographically smallest vertex, and
  /// vertices are renumbered in face order. Two builds of the same
  /// geometric cell — different candidate orders, seed boxes, point-array
  /// layouts, or block decompositions — serialize identically afterwards,
  /// and welding canonicalized cells into a mesh is insertion-order
  /// independent. Intended for complete cells, whose faces are all bisector
  /// planes; vertices still touching a seed-box plane keep their clipped
  /// coordinates.
  void canonicalize();

 private:
  void prune_degenerate_faces();
  /// Renumber the vertices by first use in face order, dropping any no
  /// face references (generators in step).
  void renumber_in_face_order();
  /// Empty the cell (every vertex clipped away).
  void clear();
  void recompute_radius();
  void add_generator(int vertex, std::int64_t source);

  Vec3 site_;
  std::vector<Vec3> verts_;
  std::vector<std::array<std::int64_t, 3>> gens_;
  std::vector<Face> faces_;
  /// Raw generator position of every bisector plane that cut the cell, in
  /// cut order. Unlike faces_, entries survive compact() dropping a
  /// degenerate face, so canonicalize() can recover a sliver vertex's full
  /// generator set from its creation-plane sources.
  std::vector<std::pair<std::int64_t, Vec3>> cut_gens_;
  double max_radius2_ = 0.0;
};

/// Reusable working storage for VoronoiCell::clip/cut and CellBuilder.
/// One instance per thread; contents are overwritten by every cut, so the
/// clipped geometry is bit-identical whether a scratch is fresh or reused.
/// Every buffer keeps one role, so after a warm-up cell steady-state
/// clipping performs no heap allocation.
struct ClipScratch {
  std::vector<double> dist;  ///< signed distance of each vertex to the plane
  /// Surviving index of each pre-cut vertex, read straight off the distance
  /// sweep (prefix count of kept vertices); -1 = clipped away.
  std::vector<int> remap;
  /// k of the k-th new vertex per cut edge, keyed by the undirected edge
  /// (packed u,v). A convex cut crosses few edges, so a flat array with
  /// linear search replaces the per-cut unordered_map.
  std::vector<std::pair<std::uint64_t, int>> cut_vertex;
  /// Directed cap edges entry->exit between new vertices, indexed by k;
  /// -1 = no outgoing cap edge.
  std::vector<int> cap_next;
  std::vector<int> loop;       ///< clipped loop of the current crossing face
  std::vector<int> cap_verts;  ///< cap loop of new vertices, by k

  /// Candidate (dist2, index) pairs for the cell builder's ring sweep,
  /// consumed in (dist2, id, position) order — a key independent of
  /// point-array layout, so incremental and from-scratch builders cut in
  /// the same order. The order is settled lazily, one position at a time.
  std::vector<std::pair<double, int>> ring_pts;
  /// Pivot stack of the incremental quicksort over ring_pts: each entry is
  /// the settled position of a pivot, nearest the consume cursor on top.
  std::vector<std::size_t> ring_pivots;
  /// SoA gather buffers for the ring sweep: candidate coordinates and point
  /// indices copied from the builder's CSR slabs, plus the batched squared
  /// distances (geom/kernels.hpp) screened into ring_pts.
  std::vector<double> cand_x, cand_y, cand_z, cand_d2;
  std::vector<int> cand_idx;
  /// Geometry backend for the batched clip kernels. Set by CellBuilder from
  /// its resolved backend; the default keeps standalone cut()/clip() calls
  /// on the scalar sweep.
  TessBackend backend = TessBackend::kScalar;
};

}  // namespace tess::geom
