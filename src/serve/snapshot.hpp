// Immutable, memory-mapped view of one tessellation output file — the unit
// the query service (DESIGN.md §4.12) serves from.
//
// A Snapshot opens a blocked file through diy::BlockFileReader (one open,
// whole file mapped read-only, footer validated on the mapped bytes) and
// deserializes blocks *lazily*: opening a snapshot touches only the
// per-block bounds that lead each block's wire format, and a block's mesh
// plus its query index (site grid + face-neighbour index) materialize on
// first use, guarded by a per-block std::once_flag; the block's mapped
// pages are released once its mesh is copied out. The snapshot keeps
// reading the file it opened even when a writer renames a new file over
// the path. After construction every public method is
// const and thread-safe — many reader threads query one snapshot
// concurrently with no locking beyond the one-time block loads, which is
// what lets the snapshot cache hand the same instance to every in-flight
// query.
//
// Query surface:
//  * locate(p)            — which Voronoi cell contains p: route to the
//                           block whose half-open bounds hold p (else the
//                           nearest box), seed from the block's uniform
//                           site grid, then walk the face-adjacency graph
//                           downhill in site distance (exact nearest-site
//                           search as fallback when culled/ghost
//                           neighbors break the walk, and cross-block
//                           refinement near block faces).
//  * extract_region(box)  — all cells whose site lies in an axis-aligned
//                           box, re-welded into one standalone BlockMesh.
//  * volume_histogram / density_contrast_histogram — §IV-B slices reusing
//                           src/analysis/density over the resident blocks.
//  * voids(min_volume)    — connected void components over the
//                           threshold-surviving cells (face-adjacency
//                           union-find), cached per threshold as labels
//                           only.
//
// Locate telemetry (serve.locate.{count,grid_fallback,cross_block,
// walk_steps}) is tallied in a caller-owned LocateTally and flushed once
// per tally: per point for locate(p), per parallel_for chunk for the
// QueryService batches.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/components.hpp"
#include "core/block_mesh.hpp"
#include "diy/blockio.hpp"
#include "diy/decomposition.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace tess::serve {

using geom::Vec3;

/// Result of a point-location query.
struct PointLocation {
  int block = -1;             ///< block whose cell contains the point
  std::int64_t site_id = -1;  ///< site of the containing Voronoi cell
  std::uint32_t cell = 0;     ///< index into block(block).cells
  double site_dist2 = std::numeric_limits<double>::infinity();
  std::uint32_t walk_steps = 0;  ///< adjacency-walk hops taken
  bool grid_fallback = false;    ///< exact grid search had to finish the job

  [[nodiscard]] bool found() const { return site_id >= 0; }
};

class Snapshot {
 public:
  /// Opens and maps `path`; reads only per-block bounds (the first bytes
  /// of each block), never whole blocks.
  explicit Snapshot(const std::string& path);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  [[nodiscard]] const std::string& path() const { return file_.path(); }
  [[nodiscard]] int num_blocks() const { return file_.num_blocks(); }
  [[nodiscard]] std::uint64_t file_bytes() const { return file_.file_size(); }
  /// Serialized bytes of the blocks deserialized so far (eviction weight).
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int blocks_loaded() const {
    return blocks_loaded_.load(std::memory_order_relaxed);
  }

  /// Block bounds straight from the wire header — never loads the block.
  [[nodiscard]] const diy::Bounds& block_bounds(int block) const {
    return bounds_[static_cast<std::size_t>(block)];
  }

  /// The deserialized mesh of one block (loads it on first access).
  [[nodiscard]] const core::BlockMesh& block(int block) const;

  /// Every block, loaded; pointers stay valid for the snapshot's lifetime.
  [[nodiscard]] std::vector<const core::BlockMesh*> blocks() const;

  /// Locate telemetry of a run of points, kept by the caller and added to
  /// serve.locate.{count,grid_fallback,cross_block,walk_steps} once, when
  /// it goes out of scope: a batch chunk pays a few atomic updates instead
  /// of several per point, and a chunk that throws still counts the points
  /// it reached.
  class LocateTally {
   public:
    LocateTally() = default;
    LocateTally(const LocateTally&) = delete;
    LocateTally& operator=(const LocateTally&) = delete;
    ~LocateTally();

   private:
    friend class Snapshot;
    std::uint64_t count_ = 0;
    std::uint64_t grid_fallback_ = 0;
    std::uint64_t cross_block_ = 0;
    obs::ExpHistogram::Local walk_steps_;
  };

  /// One point, under its own serve.locate span and tally.
  [[nodiscard]] PointLocation locate(const Vec3& p) const;
  /// The same answer, tallied into `tally`; opens no span.
  [[nodiscard]] PointLocation locate(const Vec3& p, LocateTally& tally) const;

  /// Cells whose site lies in `box`, merged into one re-welded mesh.
  [[nodiscard]] core::BlockMesh extract_region(const diy::Bounds& box) const;

  [[nodiscard]] util::Histogram volume_histogram(double lo, double hi,
                                                 std::size_t bins) const;
  [[nodiscard]] util::Histogram density_contrast_histogram(
      std::size_t bins) const;

  /// Void components at a volume threshold: cells with volume >=
  /// min_volume, labeled through the face-adjacency union-find. Only the
  /// labeling is kept; no copy of the surviving cells.
  struct VoidCatalog {
    double min_volume = 0.0;
    std::unique_ptr<analysis::ConnectedComponents> components;
  };
  /// Built once per distinct threshold, then shared (thread-safe).
  [[nodiscard]] std::shared_ptr<const VoidCatalog> voids(
      double min_volume) const;

  /// Label of the void containing p (-1: the containing cell is below the
  /// threshold, i.e. not part of any void).
  [[nodiscard]] std::int64_t void_of(const Vec3& p, double min_volume) const;

 private:
  // Uniform grid over one block's cell sites (CSR bins), built at block
  // load. nearest() is an exact nearest-site search via expanding
  // Chebyshev shells; seed() is the cheap approximate entry point the
  // adjacency walk starts from.
  struct SiteGrid {
    std::array<int, 3> dims{1, 1, 1};
    Vec3 origin{};
    Vec3 cell_size{1.0, 1.0, 1.0};
    std::vector<std::uint32_t> bin_offsets;  ///< CSR, size nbins+1
    std::vector<std::uint32_t> items;        ///< cell indices

    void build(const core::BlockMesh& mesh);
    [[nodiscard]] std::array<int, 3> bin_of(const Vec3& p) const;
    [[nodiscard]] std::int64_t seed(const Vec3& p) const;
    [[nodiscard]] std::int64_t nearest(const Vec3& p,
                                       const core::BlockMesh& mesh,
                                       double* best_d2) const;
  };

  // One block's mesh and query index, filled once by slot(). face_cell
  // holds, per face, the cell index in this block of the face's natural
  // neighbour, so each step of the adjacency walk reads its neighbours
  // with one load per face.
  struct BlockSlot {
    static constexpr std::uint32_t kWallFace = 0xffffffffu;
    /// A neighbour this block does not store: a ghost or a culled cell.
    static constexpr std::uint32_t kAbsentCell = kWallFace - 1;

    std::once_flag once;
    core::BlockMesh mesh;
    SiteGrid grid;
    std::vector<std::uint32_t> face_cell;  ///< per face of mesh
    std::string error;  ///< set once if the block's bytes are corrupt

    void index_faces();  ///< fills face_cell from mesh
  };

  const BlockSlot& slot(int block) const;
  /// Exact nearest site within one block; -1 when the block has no cells.
  std::int64_t nearest_in_block(int block, const Vec3& p, double* best_d2,
                                PointLocation* out) const;

  diy::BlockFileReader file_;
  std::vector<diy::Bounds> bounds_;  ///< per block, from the wire header
  mutable std::vector<std::unique_ptr<BlockSlot>> slots_;
  mutable std::atomic<std::uint64_t> resident_bytes_{0};
  mutable std::atomic<int> blocks_loaded_{0};

  mutable std::mutex voids_mutex_;
  mutable std::map<double, std::shared_ptr<const VoidCatalog>> voids_;
};

}  // namespace tess::serve
