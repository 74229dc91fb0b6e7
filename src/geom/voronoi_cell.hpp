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
// of the paper's Table II). The cell is stored as an edge table in the
// manner of Voro++: every vertex has exactly three neighbours, kept in
// counter-clockwise order seen from outside, each with a back-pointer to
// the vertex's slot in the neighbour's list and with the plane of the face
// that edge bounds. A cut that changes the cell makes one vertex per edge
// it crosses, links the new face by walking only the vertices it removes,
// and deletes those swap-with-last, so its cost follows what it removes.
// Every stored vertex is live, in one dense array, so the common no-op cut
// is rejected by one flat sweep of the plane distances (the 4-lane batched
// kernel in geom/kernels.hpp) before any edge is touched; the cell
// builder's vertex-ball screen and bin prune and the tessellator's
// certificate read the same array.
//
// Face loops (faces(), and vertex_generators() with them) are read off the
// edge table on demand, in plane-creation order, once per finished cell;
// compact() and canonicalize() then turn the cell into that face form for
// good. All per-cut working storage lives in a caller-provided ClipScratch
// and face materialization reuses per-thread buffers, so a warm cell object
// reset() across sites clips without allocating.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

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
  [[nodiscard]] bool empty() const { return verts_.empty(); }

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

  /// Face loops in plane-creation order (box planes, then cuts), read off
  /// the edge table on first use after a cut. Materializing mutates cached
  /// state, so one cell is not read from two threads at once.
  [[nodiscard]] const std::vector<Face>& faces() const {
    if (faces_stale_) build_faces();
    return faces_;
  }
  /// The live vertices, in no particular order (faces index into them).
  [[nodiscard]] const std::vector<Vec3>& vertices() const { return verts_; }
  /// The plane sources that generate each vertex (box sources < 0): the
  /// distinct sources of its three faces, kNoGenerator filling repeats.
  [[nodiscard]] const std::vector<std::array<std::int64_t, 3>>& vertex_generators()
      const {
    if (faces_stale_) build_faces();
    return gens_;
  }

  /// Ids of the neighbor particles whose bisectors bound the cell — the
  /// cell's natural (Delaunay) neighbors.
  [[nodiscard]] std::vector<std::int64_t> neighbor_ids() const;

  /// Remove zero-area faces left by bisector planes that graze the cell
  /// exactly along an edge or corner (degenerate, e.g. lattice inputs), weld
  /// coincident vertices, drop collinear loop vertices, and renumber the
  /// vertices in face order, dropping any these steps leave unreferenced.
  /// After a clean cut this keeps every vertex. The result is a function of
  /// the polytope alone (face order, loops up to rotation, vertex positions
  /// and generator sets): each loop is first rotated to start at its
  /// lexicographically smallest vertex, and the weld runs in the resulting
  /// face order. Working arrays are per-thread and reused, so a warm thread
  /// compacts without allocating (canonicalize() likewise).
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
  /// coordinates, and so does a vertex the solve would move by more than
  /// 1e-6 * sqrt(max_radius2()) (an ill-conditioned generator set; rounding
  /// moves a vertex by about 1e-15 of the radius). Returns the number of
  /// vertices kept clipped for that last reason.
  std::size_t canonicalize();

 private:
  /// Read the face loops and generators off the edge table.
  void build_faces() const;
  /// Switch to the face form for good (compact() and canonicalize()).
  void finish();
  /// Rotate a face loop to start at its smallest vertex by (position,
  /// sorted generators), ties broken by the vertices that follow.
  void rotate_to_smallest(Face& f) const;
  void prune_degenerate_faces();
  /// Renumber the vertices by first use in face order, dropping any no
  /// face references (generators in step).
  void renumber_in_face_order();
  /// Empty the cell (every vertex clipped away).
  void clear();
  void recompute_radius();

  Vec3 site_;
  std::vector<Vec3> verts_;
  /// Edge table: the three edges of each vertex, counter-clockwise seen
  /// from outside. links_[v][i] = 4*w + j: neighbour w, in whose list v
  /// sits at slot j.
  std::vector<std::array<int, 3>> links_;
  /// planes_ index of the face holding the directed edge v -> neighbour i,
  /// which is the face between neighbours i and i+1.
  std::vector<std::array<int, 3>> corners_;
  /// Every plane that has bounded the cell, in creation order: the six box
  /// planes, then each effective cut with its generator position resolved.
  /// canonicalize() recovers a sliver vertex's generators from here even
  /// after compact() has dropped the face itself.
  std::vector<Plane> planes_;
  /// Face form: read off the edge table when stale, and the cell itself
  /// once finished.
  mutable std::vector<Face> faces_;
  mutable std::vector<std::array<std::int64_t, 3>> gens_;
  mutable bool faces_stale_ = true;
  bool finished_ = false;
  double max_radius2_ = 0.0;
};

/// Reusable working storage for VoronoiCell::clip/cut and CellBuilder.
/// One instance per thread; contents are overwritten by every cut, so the
/// clipped geometry is bit-identical whether a scratch is fresh or reused.
/// Every buffer keeps one role, so after a warm-up cell steady-state
/// clipping performs no heap allocation.
struct ClipScratch {
  /// Signed distance of each vertex to the plane, from the batched
  /// kernels::plane_distances (geom/kernels.hpp).
  std::vector<double> dist;
  /// The vertices a cut removes, in index order.
  std::vector<int> removed;

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
  /// SoA coordinates of the unconsumed ring_pts entries the cell builder's
  /// vertex-ball screen sweeps (kernels::screen_cutters).
  std::vector<double> screen_x, screen_y, screen_z;
};

}  // namespace tess::geom
