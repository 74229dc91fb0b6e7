// Tessellation options, mirroring the knobs described in the paper:
// ghost-zone thickness (user-provided, §IV-A) and the minimum-volume
// threshold with conservative early culling (§III-C). The paper's per-cell
// Qhull step has no option: the clipped cell already carries its ordered
// faces, volume and area.
#pragma once

namespace tess::core {

struct TessOptions {
  /// Ghost-zone thickness in domain units. The paper finds ~4x the typical
  /// particle spacing gives 100% parallel accuracy; too small a value
  /// produces wrong cells at block boundaries (Table I).
  double ghost = 4.0;

  /// Cells whose volume falls below this are culled (<= 0 disables). The
  /// paper typically culls the smallest 10% of the volume range.
  double min_volume = 0.0;

  /// Cells whose volume exceeds this are culled (<= 0 disables; the paper's
  /// plugin supports a [min, max] threshold range).
  double max_volume = 0.0;

  /// Conservative early culling: drop a cell before it is staged when the
  /// largest vertex separation is smaller than the diameter of the sphere
  /// whose volume is `min_volume`, which proves the cell is below threshold.
  bool early_cull = true;

  /// Automatic ghost-size determination (the paper's §V future work).
  /// When enabled, `ghost` is only the starting guess: the tessellation is
  /// repeated with a doubled ghost zone until every cell is complete AND
  /// certified by the security radius (2 * max vertex distance <= ghost),
  /// at which point the result is provably identical to the serial one.
  /// This stop rule holds however many cells the vertex-ball certificate
  /// has already retired (see `incremental`).
  /// Both settings run the same pass loop; disabled, it stops after one
  /// pass at `ghost`. Enabled, every complete cell is canonicalized, so the
  /// merged mesh bytes do not depend on the pass or the decomposition;
  /// disabled, cells are only compacted, which is cheaper but leaves the
  /// bytes decomposition-dependent.
  bool auto_ghost = false;

  /// Upper bound for auto_ghost doubling, as a fraction of the shortest
  /// domain side (safety stop; 0.5 covers any cell in a periodic domain).
  double auto_ghost_max_fraction = 0.5;

  /// Incremental auto_ghost (only meaningful with auto_ghost = true; a
  /// fixed ghost runs a single pass). When true, each doubling pass
  /// exchanges only the new ghost annulus, appends it to the existing cell
  /// builder, and rebuilds only the cells not yet proven exact; a cell
  /// proven exact in an earlier pass stays as that pass welded it. A
  /// complete cell is proven exact by its security radius, or, below the
  /// cap, once every ball B(v, |v - site|) around its vertices lies within
  /// the ghost of the block (the vertex-ball certificate, which retires
  /// cells passes before 2 * Rmax fits). When false, every pass
  /// re-exchanges and rebuilds everything (restart-from-scratch) and drops
  /// the cells earlier passes kept. Both settings produce byte-identical
  /// serialized meshes on generic input — the canonicalized cell geometry
  /// is independent of the construction path — so this is purely a
  /// performance switch. Near-degenerate input (a lattice jittered by
  /// 1e-9) breaks that independence; see DESIGN.md §4.5.
  bool incremental = true;

  /// Intra-rank worker threads for the per-cell Voronoi loop (the paper's
  /// dominant cost). 1 = serial (default), 0 = hardware concurrency, n > 1
  /// = a pool of n threads per rank. Total process parallelism is bounded
  /// by ranks x threads. The mesh produced is byte-identical for any value:
  /// cells are computed in fixed chunks and merged in site order.
  int threads = 1;

  /// Adaptive, load-balanced decomposition (only meaningful through
  /// tessellate_step). After each step the per-rank cell-build seconds are
  /// allgathered and reduced to a max/mean imbalance factor; when it
  /// reaches `repart_trigger`, the next step first rebuilds a
  /// mass-weighted k-d decomposition from the current particles
  /// (collective; identical on every rank) and migrates particles to the
  /// new owners. The merged mesh is byte-identical whether or not a
  /// repartition happened — the decomposition only changes who computes
  /// which certified cell.
  bool adaptive = false;

  /// Imbalance factor (max/mean, 1 = perfectly balanced) at or above which
  /// an adaptive repartition is scheduled for the next step. Hysteresis:
  /// well-balanced runs never repartition, and after a repartition the
  /// factor must climb back over the trigger to cause another one.
  double repart_trigger = 1.25;

  /// Minimum number of steps between adaptive repartitions (thrash guard).
  int repart_cooldown = 2;
};

}  // namespace tess::core
