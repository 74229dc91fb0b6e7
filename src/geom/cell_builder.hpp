// Builds Voronoi cells for sites inside a block.
//
// Candidates are served from a uniform grid one Chebyshev ring of bins at
// a time, and within a ring in increasing canonical (dist2, id, position)
// order. Clipping stops once the nearest unprocessed candidate lies beyond
// twice the cell's current maximum vertex radius — at that point no further
// bisector can intersect the cell, so the produced polyhedron is the exact
// Voronoi cell (intersected with the seed box). A ring's order is settled
// lazily, one position per consumed candidate (an incremental quicksort),
// because a cell stops long before its last candidate. This is the "local
// Voronoi cell computation" stage of the paper's pipeline, standing in for
// the per-block Qhull invocation.
//
// Within that radius, a ring skips every bin that misses the bounding box
// of the vertex balls B(v, |v - s|) (the Voro++ criterion). A point p cuts
// the cell only if some vertex v is closer to p than to the site s, i.e. p
// lies in some vertex ball; cuts only shrink the cell, and with it the union
// of the balls. So a skipped bin holds only candidates whose cut would
// change nothing, and skipping them leaves every cell's geometry and the
// order of its effective cuts unchanged. The radii are inflated by a small
// relative margin so the prune stays conservative under rounding, and the
// bounding box costs O(1) per bin. build_into() applies the same box to
// each point of the bins it does gather, in the candidate screen.
//
// The same criterion screens single candidates. Once a few cuts in a row
// within a ring have changed nothing, the ring's unconsumed candidates are
// swept against the current vertices in one batched kernel
// (kernels::screen_cutters): a candidate whose bisector leaves every vertex
// inside by more than clip()'s tolerance cannot cut, now or after later
// cuts, since every later vertex lies inside the current cell up to
// rounding far below that tolerance. Only the survivors are ordered and
// cut, so a clustered cell, which gathers hundreds of candidates per shell
// and cuts with a few, skips both the ordering and the rejected cuts of the
// rest. The cell and the order of its effective cuts are unchanged; the
// traced build never screens and is the reference for that.
//
// The grid is stored in CSR form (bin_offsets_ + bin_items_) with the point
// coordinates permuted alongside into structure-of-arrays slabs (csr_x_/y_/
// z_), so a ring sweep screens each bin's candidates straight off the slabs
// into the ring's candidate list (kernels::screen_candidates), four lanes
// wide with the bits of the scalar expressions and no data-dependent branch
// (see kernels.hpp for the contract and DESIGN.md §4.11). The ring's order
// is settled by a branch-free partition (geom/settle.hpp).
//
// build_into() is the allocation-free hot path: it reuses a caller-owned
// cell object and ClipScratch, so a worker thread sweeping many sites
// touches the heap only while warming up capacities. build() is safe to
// call concurrently from many threads on one (const) builder.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "geom/vec3.hpp"
#include "geom/voronoi_cell.hpp"

namespace tess::geom {

/// Relative radius inflation of the vertex balls B(v, |v - s|) wherever a
/// ball bound decides that a point cannot cut a cell: the bin prune here
/// and the tessellator's vertex-ball certificate. Far above the rounding of
/// the ball bounds, so a point judged outside every ball lies outside by a
/// margin that also dominates the rounding of its clip() plane distances:
/// clip() would classify every vertex inside and reject the cut.
inline constexpr double kVertexBallMargin = 1e-6;

class CellBuilder {
 public:
  /// Work counters accumulated across build() calls, the source of the
  /// geom.cuts* and geom.backend.* obs metrics. `cuts` counts bisector cuts
  /// attempted, `cuts_noop` those that left the cell unchanged,
  /// `cuts_screened` the candidates the vertex-ball screen dropped without a
  /// cut, and `bins_pruned` the shell bins the vertex-ball prune skipped.
  /// `cand_seen` counts grid candidates swept by the candidate screen,
  /// `cand_boxed` those it dropped for lying outside the bounding box of the
  /// vertex balls, and `cand_kept` the ones that passed both the box and
  /// the security radius (kept/seen = filter hit rate). `batches` counts
  /// the 4-lane batches they were swept in, one partial tail per bin
  /// (cand_seen / (4 * batches) = batch occupancy). All are deterministic
  /// for a given point set.
  struct BackendStats {
    std::uint64_t cuts = 0;
    std::uint64_t cuts_noop = 0;
    std::uint64_t cuts_screened = 0;
    std::uint64_t bins_pruned = 0;
    std::uint64_t cand_seen = 0;
    std::uint64_t cand_boxed = 0;
    std::uint64_t cand_kept = 0;
    std::uint64_t batches = 0;
  };

  /// Per-cell trace captured by build_traced(): the post-screen candidate
  /// sequence in consumption order and the cut sequence actually attempted.
  /// The traced build settles every candidate's position before the first
  /// cut, so it is the fully ordered reference the lazy build_into() is
  /// tested against.
  struct CellTrace {
    /// (dist2, source id) per surviving candidate, in canonical order,
    /// concatenated ring by ring.
    std::vector<std::pair<double, std::int64_t>> candidates;
    /// Source id of each bisector cut attempted, in order.
    std::vector<std::int64_t> cut_ids;
  };

  /// `points` are all particles available to the block (original + ghost).
  /// `ids` are the stable global identifiers recorded as cell-face sources;
  /// if empty, local indices are used. `bounds` must contain all points.
  CellBuilder(std::vector<Vec3> points, std::vector<std::int64_t> ids,
              const Vec3& bounds_min, const Vec3& bounds_max);

  /// Incremental append for the auto-ghost loop: add newly arrived ghost
  /// particles without reconstructing the builder. `bounds` is the new
  /// bounding box (typically the block bounds grown by the enlarged ghost);
  /// it is unioned with the current box and, like the constructor's bounds,
  /// must contain every point old and new — the ring sweep's lower-bound
  /// pruning relies on no point being clamped into an edge bin from outside.
  /// Bin assignments are cached per point, so a pure append re-runs the
  /// O(n) counting sort over cached bins without re-binning old points; the
  /// geometry is re-binned only when the box grows or the target bins-per-
  /// dimension changes with the new point count. `ids` must be non-empty
  /// iff the builder was constructed with ids. Not safe to call
  /// concurrently with build()/build_into().
  void add_points(const std::vector<Vec3>& points,
                  const std::vector<std::int64_t>& ids, const Vec3& bounds_min,
                  const Vec3& bounds_max);

  /// Construct the Voronoi cell of `points[site]` clipped to the seed box
  /// [box_min, box_max] (typically the block bounds grown by the ghost
  /// thickness). The site must lie inside the seed box.
  [[nodiscard]] VoronoiCell build(int site, const Vec3& box_min,
                                  const Vec3& box_max) const;

  /// Same computation, but resets and reuses `cell` and `scratch` instead
  /// of allocating: the steady-state path for tight per-site loops. Each
  /// thread must own its cell/scratch pair; the builder itself is shared.
  void build_into(VoronoiCell& cell, ClipScratch& scratch, int site,
                  const Vec3& box_min, const Vec3& box_max) const;

  /// build_into() that additionally records the per-stage trace, settling
  /// each ring's full candidate order first and never running the
  /// vertex-ball screen, so every no-op cut is attempted and recorded.
  /// Slower; a test reference, not for production use.
  void build_traced(VoronoiCell& cell, ClipScratch& scratch, int site,
                    const Vec3& box_min, const Vec3& box_max,
                    CellTrace& trace) const;

  [[nodiscard]] std::size_t num_points() const { return points_.size(); }
  [[nodiscard]] const std::vector<Vec3>& points() const { return points_; }

  /// Counter totals. Each build counts locally and merges here once at its
  /// end, so concurrent builds stay race-free; the merge also adds the
  /// build's cut count as one sample of the geom.cell_cuts histogram.
  [[nodiscard]] BackendStats backend_stats() const {
    BackendStats s;
    s.cuts = cuts_.load(std::memory_order_relaxed);
    s.cuts_noop = cuts_noop_.load(std::memory_order_relaxed);
    s.cuts_screened = cuts_screened_.load(std::memory_order_relaxed);
    s.bins_pruned = bins_pruned_.load(std::memory_order_relaxed);
    s.cand_seen = cand_seen_.load(std::memory_order_relaxed);
    s.cand_boxed = cand_boxed_.load(std::memory_order_relaxed);
    s.cand_kept = cand_kept_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Grid coordinate along axis `a` of position `x`, clamped to the grid.
  [[nodiscard]] int bin_coord(int a, double x) const;
  [[nodiscard]] int bin_of(const Vec3& p) const;
  /// Target bins per dimension (~4 points per bin) for `n` points.
  [[nodiscard]] static int target_per_dim(std::size_t n);
  /// Resize the grid to per_dim^3 over [lo_, hi_], recompute every cached
  /// bin assignment, and rebuild the CSR slabs.
  void rebuild_grid(int per_dim);
  /// Counting-sort points into the CSR slabs from the cached point_bin_
  /// assignments. Reuses all storage; no per-bin allocations.
  void fill_csr();
  /// Shared core of build_into/build_traced; `trace` may be null.
  void build_impl(VoronoiCell& cell, ClipScratch& scratch, int site,
                  const Vec3& box_min, const Vec3& box_max,
                  CellTrace* trace) const;

  std::vector<Vec3> points_;
  std::vector<std::int64_t> ids_;
  Vec3 lo_, hi_;
  int nb_[3] = {1, 1, 1};    // grid bins per dimension
  double h_[3] = {0, 0, 0};  // bin extents

  // CSR grid over the points: bin b owns CSR slots
  // [bin_offsets_[b], bin_offsets_[b+1]); bin_items_[s] is the point index
  // in slot s and csr_x_/y_/z_[s] its coordinates (SoA, gathered by the
  // ring sweep with contiguous copies).
  std::vector<int> point_bin_;  // cached bin id per point
  std::vector<int> bin_offsets_;
  std::vector<int> bin_items_;
  std::vector<double> csr_x_, csr_y_, csr_z_;
  std::vector<int> csr_cursor_;  // counting-sort scratch

  mutable std::atomic<std::uint64_t> cuts_{0};
  mutable std::atomic<std::uint64_t> cuts_noop_{0};
  mutable std::atomic<std::uint64_t> cuts_screened_{0};
  mutable std::atomic<std::uint64_t> bins_pruned_{0};
  mutable std::atomic<std::uint64_t> cand_seen_{0};
  mutable std::atomic<std::uint64_t> cand_boxed_{0};
  mutable std::atomic<std::uint64_t> cand_kept_{0};
  mutable std::atomic<std::uint64_t> batches_{0};
};

}  // namespace tess::geom
