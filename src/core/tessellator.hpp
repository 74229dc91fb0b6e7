// The parallel Voronoi tessellation pipeline — the paper's contribution.
//
// Per block (paper Figure 5):
//   1. bidirectional ghost-zone particle exchange with neighbors, including
//      periodic-boundary translation and target-point destination selection;
//   2. local Voronoi cell computation for the block's original particles
//      against originals + ghosts (ghost-sited cells are never emitted,
//      which resolves the duplicate cells the bidirectional exchange would
//      otherwise produce — each cell is kept only by the block that owns
//      its site);
//   3. incomplete cells (still touching the ghost-grown seed box, i.e. not
//      closed off by particles) are deleted;
//   4. conservative early volume culling, vertex ordering / volume / area
//      (optionally via the convex-hull pass), final threshold culling;
//   5. parallel write of the per-block unstructured meshes to one file.
//
// Timings are broken down exactly as in the paper's Table II: particle
// exchange, Voronoi computation, and output.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/block_mesh.hpp"
#include "core/options.hpp"
#include "diy/decomposition.hpp"
#include "diy/exchange.hpp"
#include "diy/particle.hpp"
#include "util/parallel_for.hpp"
#include "util/timer.hpp"

namespace tess::core {

/// One tessellation pass of the pass loop, for per-iteration accounting:
/// fixed-ghost runs record exactly one entry. Counters are the pass's own
/// values; the cumulative totals live in TessStats.
struct IterationStats {
  double ghost = 0.0;              ///< ghost size used by this pass
  double exchange_seconds = 0.0;
  double compute_seconds = 0.0;
  std::size_t ghost_sent = 0;      ///< particles sent (annulus only, when incremental)
  std::size_t ghost_received = 0;  ///< particles received by this pass
  std::size_t cells_built = 0;     ///< sites (re)built this pass
  std::size_t cells_incomplete = 0;   ///< among the sites built this pass
  /// Complete cells with 2 * Rmax > ghost after this pass, over every site:
  /// rebuilt this pass or retired by an earlier one (from its stored radius).
  std::size_t cells_uncertified = 0;
};

struct TessStats {
  double exchange_seconds = 0.0;
  double compute_seconds = 0.0;
  double output_seconds = 0.0;
  [[nodiscard]] double total_seconds() const {
    return exchange_seconds + compute_seconds + output_seconds;
  }

  std::size_t local_particles = 0;
  /// Cumulative across auto-ghost passes. Derived: these are always the sum
  /// of the per-pass values in `iterations` (recomputed by
  /// finalize_from_iterations(); the per-pass entries are the single source
  /// of truth).
  std::size_t ghost_received = 0;
  std::size_t ghost_sent = 0;
  std::size_t cells_kept = 0;
  std::size_t cells_incomplete = 0;
  std::size_t cells_culled_early = 0;   ///< culled by the circumsphere bound
  std::size_t cells_culled_volume = 0;  ///< culled after exact volume
  std::uint64_t output_bytes = 0;

  /// Ghost size actually used (grows beyond options.ghost in auto mode).
  double ghost_used = 0.0;
  /// Number of tessellation passes auto_ghost needed (1 when disabled).
  /// Counts completed passes: an exchange attempt abandoned under an armed
  /// fault injector is not a pass (see tess.exchange_failed_passes).
  int auto_iterations = 1;
  /// Complete cells whose security radius 2 * Rmax the final ghost does not
  /// cover (0 means the result is certified exact), counted from a radius
  /// stored per site over every site, whether the final pass rebuilt it or
  /// an earlier pass retired it. A cell the vertex-ball certificate retired
  /// is exact and still counts here until the ghost covers its 2 * Rmax:
  /// this count, not that certificate, is what stops the auto-ghost loop.
  std::size_t cells_uncertified = 0;
  /// Per-pass breakdown, one entry per tessellation pass (exactly one in
  /// fixed-ghost mode). The same length on every rank — the auto loop is
  /// collective.
  std::vector<IterationStats> iterations;

  /// Recompute the cumulative ghost traffic counters from `iterations`, the
  /// single source of truth. Called by Tessellator at the end of every
  /// tessellate(); exposed so tests can assert the invariant
  /// sum(per-pass) == cumulative.
  void finalize_from_iterations();
};

class Tessellator {
 public:
  /// One block per rank; `decomp` must have comm.size() blocks.
  Tessellator(comm::Comm& comm, const diy::Decomposition& decomp,
              const TessOptions& options);

  /// Compute this block's tessellation from its original particles (which
  /// must lie inside the block's bounds). Collective. The returned mesh
  /// contains only complete, threshold-surviving cells sited at original
  /// particles, in site order. Both ghost modes run one pass loop: a fixed
  /// ghost is one pass at options.ghost; auto ghost doubles the ghost until
  /// every cell is certified by its security radius or the ghost reaches
  /// its cap (options.hpp).
  BlockMesh tessellate(const std::vector<diy::Particle>& mine);

  /// tessellate() for pipelined in-situ use: takes ownership of the
  /// particle snapshot, so the caller's simulation buffer is free to
  /// evolve (or be destroyed) while this pass — and any incremental
  /// auto-ghost passes referencing the snapshot — runs on another thread.
  /// The snapshot is retained until the next tessellate_step(). The span
  /// is tagged with `step` so overlapped traces stay attributable.
  ///
  /// With options.adaptive this is also where the observability loop
  /// closes: particles are first migrated into the currently active
  /// decomposition (the caller keeps handing them over in the simulation's
  /// layout); if the previous step's imbalance scheduled a repartition, a
  /// mass-weighted k-d decomposition is rebuilt collectively from the
  /// current particles and the particles migrate to their new owners;
  /// after tessellation the per-rank build seconds are allgathered into
  /// the imbalance factor that decides about step N+1. All collectives run
  /// on this call's thread/plane, so the decision is deterministic across
  /// ranks even under the pipelined driver.
  BlockMesh tessellate_step(int step, std::vector<diy::Particle> particles);

  /// Parallel write of this rank's mesh to one shared file. Collective.
  /// Returns total file bytes; accumulates the output timing into stats().
  std::uint64_t write(const std::string& path, const BlockMesh& mesh);

  /// Statistics for the last tessellate()/write() calls on this rank.
  [[nodiscard]] const TessStats& stats() const { return stats_; }

  /// Element-wise max/sum of stats across ranks (for Table II-style
  /// reporting). Collective; valid on every rank.
  [[nodiscard]] TessStats reduced_stats() const;

  [[nodiscard]] const TessOptions& options() const { return options_; }

  /// The decomposition tessellation currently runs on: the constructor's
  /// until an adaptive repartition replaces it with an owned k-d tree.
  [[nodiscard]] const diy::Decomposition& active_decomposition() const {
    return *active_;
  }
  /// Adaptive repartitions performed so far (0 unless options.adaptive).
  [[nodiscard]] int repartitions() const { return repartitions_; }
  /// Imbalance factor measured after the last adaptive tessellate_step
  /// (max/mean of per-rank cell-build seconds; 1 = perfectly balanced).
  [[nodiscard]] double last_imbalance() const { return last_imbalance_; }

 private:
  /// Apply a scheduled repartition and/or migrate `particles` into the
  /// active decomposition (adaptive mode; collective).
  void adaptive_prepare(int step);
  /// Measure post-step imbalance and schedule a repartition (adaptive
  /// mode; collective).
  void adaptive_decide(int step);

  comm::Comm* comm_;
  const diy::Decomposition* decomp_;
  TessOptions options_;
  /// Adaptive state: `active_` points at the decomposition in use (the
  /// constructor's, or `adaptive_decomp_` after a repartition); the
  /// exchanger is rebuilt against it on every swap.
  const diy::Decomposition* active_;
  std::unique_ptr<diy::Decomposition> adaptive_decomp_;
  std::unique_ptr<diy::Exchanger> exchanger_;
  bool repart_pending_ = false;
  int repartitions_ = 0;
  int last_repart_step_ = std::numeric_limits<int>::min();
  double last_imbalance_ = 1.0;
  TessStats stats_;
  /// Intra-rank worker pool for the per-cell loop (options.threads; owned
  /// by this rank, so total threads stay bounded by ranks x threads).
  std::unique_ptr<util::ThreadPool> pool_;
  /// Snapshot owned by the last tessellate_step() (empty otherwise).
  std::vector<diy::Particle> retained_;
  /// Step tag for live-stream records emitted mid-tessellation (-1 when
  /// not invoked through tessellate_step).
  int current_step_ = -1;
};

}  // namespace tess::core
