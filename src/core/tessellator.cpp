#include "core/tessellator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "comm/fault.hpp"
#include "diy/blockio.hpp"
#include "diy/repartition.hpp"
#include "geom/cell_builder.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace tess::core {

namespace {
/// Consecutive collective exchange failures tolerated (fault injector armed)
/// before tessellation gives up. Each failed attempt already represents a
/// full bounded-retry receive budget on every incomplete rank, so reaching
/// this streak means the missing data is effectively unrecoverable.
constexpr int kMaxFailedExchangePasses = 8;

/// Adaptive-mode particle migration into the active decomposition; kept
/// off the ghost/migrate tags so the fault injector can target it
/// independently.
constexpr int kTagAdaptiveMigrate = 103;

/// Vertex-ball certificate: true when every point that could cut `cell`
/// lies within `ghost` of `block`, the region the exchange delivered in
/// full. A point p cuts the cell only inside some ball B(v, r_v) around a
/// vertex v, r_v = |v - s|. There dist(p, block) <= dist(v, block) + r_v;
/// and since the ball B(s, d) around the site lies inside the block (d is
/// the distance from s to its nearest block face),
/// dist(p, block) <= |p - s| - d < 2 r_v - d. Implied by 2*Rmax <= ghost,
/// and met passes earlier by cells away from the block faces and by
/// elongated ones.
/// The radii carry the bin prune's margin, so a certified cell's cutters
/// lie inside the ghost region by far more than rounding.
bool vertex_balls_in_ghost(const geom::VoronoiCell& cell,
                           const diy::Bounds& block, double ghost) {
  const geom::Vec3& s = cell.site();
  double d = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < 3; ++a)
    d = std::min({d, s[a] - block.min[a], block.max[a] - s[a]});
  d = std::max(d, 0.0);
  for (const geom::Vec3& v : cell.vertices()) {
    const double r =
        std::sqrt(geom::dist2(v, s)) * (1.0 + geom::kVertexBallMargin);
    if (std::min(block.distance(v) + r, 2.0 * r - d) > ghost) return false;
  }
  return true;
}
}  // namespace

Tessellator::Tessellator(comm::Comm& comm, const diy::Decomposition& decomp,
                         const TessOptions& options)
    : comm_(&comm),
      decomp_(&decomp),
      options_(options),
      active_(&decomp),
      exchanger_(std::make_unique<diy::Exchanger>(comm, decomp)),
      pool_(std::make_unique<util::ThreadPool>(options.threads)) {}

namespace {

/// Emit the per-pass geom.cuts* and geom.backend.* counters from the
/// builder's counter deltas, and canonicalize()'s kept-clipped vertices
/// summed over the pass's cell chunks — on every run, so production traces
/// always carry the wasted-work counts.
void emit_backend_metrics(
    [[maybe_unused]] const geom::CellBuilder::BackendStats& before,
    [[maybe_unused]] const geom::CellBuilder::BackendStats& after,
    [[maybe_unused]] unsigned long long canon_kept_clipped) {
#if TESS_OBS_ENABLED
  TESS_COUNT("geom.cuts", after.cuts - before.cuts);
  TESS_COUNT("geom.cuts_noop", after.cuts_noop - before.cuts_noop);
  TESS_COUNT("geom.cuts_screened", after.cuts_screened - before.cuts_screened);
  TESS_COUNT("geom.bins_pruned", after.bins_pruned - before.bins_pruned);
  TESS_COUNT("geom.backend.cand_seen", after.cand_seen - before.cand_seen);
  TESS_COUNT("geom.backend.cand_boxed", after.cand_boxed - before.cand_boxed);
  TESS_COUNT("geom.backend.cand_kept", after.cand_kept - before.cand_kept);
  TESS_COUNT("geom.backend.batches", after.batches - before.batches);
  TESS_COUNT("geom.canon_kept_clipped", canon_kept_clipped);
#endif
}

}  // namespace

void TessStats::finalize_from_iterations() {
  ghost_sent = 0;
  ghost_received = 0;
  for (const auto& it : iterations) {
    ghost_sent += it.ghost_sent;
    ghost_received += it.ghost_received;
  }
}

BlockMesh Tessellator::tessellate_step(int step,
                                       std::vector<diy::Particle> particles) {
  TESS_SPAN_ARG("tess.step", step);
  // Own the snapshot for the whole pass: incremental auto-ghost retries
  // re-read `mine` after the exchange, so it must stay alive and stable
  // even though the caller (the pipeline's simulation thread) has moved on.
  retained_ = std::move(particles);
  current_step_ = step;
  if (options_.adaptive) adaptive_prepare(step);
  BlockMesh mesh = tessellate(retained_);
  if (options_.adaptive) adaptive_decide(step);
  current_step_ = -1;
  return mesh;
}

void Tessellator::adaptive_prepare(int step) {
  if (repart_pending_) {
    // Step N-1's imbalance scheduled this rebuild: a fresh mass-weighted
    // k-d tree over the current global particle distribution, identical on
    // every rank (built collectively), then a fresh exchanger against it.
    TESS_SPAN("tess.repartition.build");
    repart_pending_ = false;
    adaptive_decomp_ = diy::collective_kd(*comm_, *decomp_, retained_);
    active_ = adaptive_decomp_.get();
    exchanger_ = std::make_unique<diy::Exchanger>(*comm_, *active_);
    ++repartitions_;
    last_repart_step_ = step;
    TESS_COUNT("tess.repartition.count", 1);
  }
  if (active_ != decomp_) {
    // The caller still hands particles over in the simulation's layout;
    // route them to their adaptive owners before tessellating.
    TESS_SPAN("tess.repartition.migrate");
    retained_ = diy::migrate_items(
        *comm_, *active_, std::move(retained_),
        [](diy::Particle& p) -> geom::Vec3& { return p.pos; },
        kTagAdaptiveMigrate);
    TESS_GAUGE_SET("tess.repartition.local_particles",
                   static_cast<double>(retained_.size()));
  }
}

void Tessellator::adaptive_decide(int step) {
  TESS_SPAN("tess.repartition.decide");
  // Every rank sees every rank's cell-build seconds, so the hysteresis
  // decision below is a pure function of shared data — collective and
  // divergence-free even under the pipelined driver.
  const auto seconds = comm_->allgather(stats_.compute_seconds);
  last_imbalance_ = obs::imbalance_factor(seconds);
  TESS_GAUGE_SET("tess.repartition.imbalance", last_imbalance_);
  const bool cooled = static_cast<long long>(step) >=
                      static_cast<long long>(last_repart_step_) +
                          options_.repart_cooldown;
  repart_pending_ = cooled && last_imbalance_ >= options_.repart_trigger;
  if (repart_pending_) TESS_COUNT("tess.repartition.scheduled", 1);
}

BlockMesh Tessellator::tessellate(const std::vector<diy::Particle>& mine) {
  TESS_SPAN("tess.tessellate");
  TESS_COUNT("tess.runs", 1);
  stats_ = TessStats{};
  stats_.local_particles = mine.size();

  // One pass loop for both modes. A fixed ghost (the paper's user-chosen
  // ghost zone, §IV-A) is the loop capped at one pass. Auto ghost (the
  // paper's §V future work) repeats with a doubled ghost zone until every
  // cell is both complete and certified by its security radius — at that
  // point no particle outside the ghost zone could have altered any cell,
  // so the result equals the serial one. options_.auto_ghost decides only
  // what the two modes keep apart: canonicalize() per cell or compact()'s
  // form written at staging, and the unresolved-count allreduce and stream
  // heartbeat after a pass.
  //
  // With options.incremental, the loop reuses everything a pass has proved:
  // pass k exchanges only the ghost annulus (g_{k-1}, g_k], appends it to
  // the existing CellBuilder grid, and rebuilds only the sites not yet
  // retired. A complete cell retires once it is proven exact: certified by
  // its security radius (2*Rmax <= ghost), or, below the cap, by the
  // vertex-ball certificate (vertex_balls_in_ghost). No particle beyond the
  // ghost can cut such a cell, so its geometry at any larger ghost is the
  // same cell, and VoronoiCell::canonicalize() makes the stored bytes
  // independent of which pass built it. With incremental = false every pass
  // re-exchanges and rebuilds everything; the two modes emit byte-identical
  // meshes (asserted by tests), differing only in work done.
  //
  // The stop rule does not use the vertex-ball certificate: the loop runs
  // until no complete cell has 2*Rmax > ghost (and, in periodic domains, no
  // cell is incomplete) or the ghost reaches its cap. It counts every site
  // from its stored radius, rebuilt this pass or retired earlier, so passes
  // and the final ghost do not depend on which sites were rebuilt. In open
  // domains a larger ghost can still complete cells the certificate cannot
  // speak for.
  //
  // Thread CPU time: models this rank's own work even when thread-ranks
  // oversubscribe the host cores (see util/timer.hpp).
  util::ThreadCpuTimer timer;
  const geom::Vec3 dsize = active_->domain_size();
  const double ghost_cap =
      options_.auto_ghost ? options_.auto_ghost_max_fraction *
                                std::min({dsize.x, dsize.y, dsize.z})
                          : options_.ghost;
  double ghost = std::min(std::max(options_.ghost, 1e-12), ghost_cap);
  const auto bounds = exchanger_->my_bounds();
  const std::size_t n = mine.size();

  // Early-cull bound: a cell whose largest vertex separation is below the
  // diameter of the sphere of volume `min_volume` cannot reach the
  // threshold volume.
  double early_diam2 = 0.0;
  if (options_.min_volume > 0.0 && options_.early_cull) {
    const double r = std::cbrt(options_.min_volume * 3.0 / (4.0 * std::numbers::pi));
    early_diam2 = 4.0 * r * r;
  }

  // Per-site state carried across passes. A site is retired once its cell
  // is complete AND proven exact; until then it stays on the pending list,
  // and every pass that builds it overwrites its classification and
  // squared radius Rmax^2, so a cap-stopped run reports the last pass's
  // answer for uncertified cells.
  enum : std::uint8_t { kIncomplete = 0, kKept = 1, kCulledEarly = 2, kCulledVolume = 3 };
  std::vector<std::uint8_t> state(n, kIncomplete);
  std::vector<std::uint8_t> retired(n, 0);
  std::vector<double> radius2(n, 0.0);
  // Complete cells whose security radius the ghost does not cover, over
  // every site: the stop rule's count and TessStats::cells_uncertified.
  auto count_uncertified = [&](double g) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (state[i] != kIncomplete && 4.0 * radius2[i] > g * g) ++count;
    return count;
  };
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;

  // Kept cells live in per-chunk staged shards. A chunk keeps a staged cell
  // in its shard only once the cell is final — retired, or built at the
  // cap, where no later pass can rebuild it — so every cell of a shard is an
  // output cell. A shard fills in ascending site order, and each kept site
  // records where its cell went.
  struct CellRef {
    std::uint32_t shard = 0, index = 0;
  };
  std::vector<StagedCells> shards;
  std::vector<CellRef> kept_at(n);

  std::optional<geom::CellBuilder> builder;
  const int nthreads = pool_->size();
  const geom::VoronoiCell proto({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  std::vector<geom::VoronoiCell> cells(static_cast<std::size_t>(nthreads), proto);
  std::vector<geom::ClipScratch> scratches(static_cast<std::size_t>(nthreads));
  constexpr std::size_t kGrain = 64;

  double prev_ghost = 0.0;
  for (int pass = 1;; ++pass) {
    TESS_SPAN(pass == 1 ? "tess.pass" : "tess.retry_pass");
    const auto seed = bounds.grown(ghost);
    const bool fresh = pass == 1 || !options_.incremental;
    const bool at_cap = ghost >= ghost_cap;
    // The vertex-ball certificate only saves work where a later pass would
    // otherwise rebuild the site: incremental, below the cap (a fixed ghost
    // is its own cap).
    const bool try_retire = options_.incremental && !at_cap;

    // 1. Ghost exchange: full ball on a fresh pass, the (prev_ghost, ghost]
    // annulus otherwise. The annuli partition the ball exactly — distances
    // are computed by the same expressions every call — so the union of all
    // arrivals equals a single from-scratch exchange at the current ghost.
    timer.reset();
    timer.start();
    const auto exchange = [&] {
      TESS_SPAN(fresh ? "tess.exchange" : "tess.exchange_delta");
      return fresh ? exchanger_->exchange_ghost(mine, ghost)
                   : exchanger_->exchange_ghost_delta(mine, prev_ghost, ghost);
    };
    std::vector<diy::Particle> ghosts = exchange();
    // Graceful degradation (fault injector armed only). An exchange still
    // incomplete after the bounded retries is abandoned by *every* rank —
    // the verdict is collective, so cells are never built from a partial
    // ghost set and the ghost trajectory stays identical across ranks — and
    // attempted again: a rank missing a message resumes its receive (same
    // annulus, nothing re-sent), a rank that has everything keeps its
    // ghosts. Abandoned attempts are not passes.
    for (int failed = 0; comm::faults().armed();) {
      const bool have = exchanger_->last_exchange_complete();
      const std::size_t missing =
          comm_->allreduce_sum(static_cast<std::size_t>(have ? 0 : 1));
      if (missing == 0) break;
      TESS_COUNT("tess.exchange_failed_passes", 1);
      TESS_COUNT("tess.cells_rerequested", pending.size());
      if (++failed >= kMaxFailedExchangePasses)
        throw comm::CommTimeoutError(
            "Tessellator: ghost exchange failed on " + std::to_string(missing) +
            " rank(s) for " + std::to_string(failed) + " consecutive attempts");
      if (!have) ghosts = exchange();
    }
    timer.stop();
    TESS_COUNT("tess.passes", 1);
    if (pass > 1) TESS_COUNT("tess.retries", 1);
    IterationStats iter;
    iter.ghost = ghost;
    iter.exchange_seconds = timer.seconds();
    iter.ghost_sent = exchanger_->last_sent();
    iter.ghost_received = ghosts.size();

    // 2. Builder: construct fresh or append the annulus to the existing
    // grid. Either way the final-pass builder indexes the same particle
    // multiset over the same grown box, and the canonical candidate order
    // makes its cut sequences independent of how the arrays were assembled.
    timer.reset();
    timer.start();
    std::vector<geom::Vec3> pts;
    std::vector<std::int64_t> ids;
    pts.reserve(mine.size() + ghosts.size());
    ids.reserve(mine.size() + ghosts.size());
    if (fresh) {
      for (const auto& p : mine) {
        pts.push_back(p.pos);
        ids.push_back(p.id);
      }
    }
    for (const auto& g : ghosts) {
      pts.push_back(g.pos);
      ids.push_back(g.id);
    }
    if (fresh) {
      builder.emplace(std::move(pts), std::move(ids), seed.min, seed.max);
      pending.resize(n);
      for (std::size_t i = 0; i < n; ++i) pending[i] = i;
      shards.clear();  // every site is rebuilt, and staged again if kept
    } else {
      builder->add_points(pts, ids, seed.min, seed.max);
    }

    // 3. Build the pending sites, sharded over the pool in fixed chunks of
    // the pending list whose boundaries do not depend on the thread count.
    // Chunks are handed out dynamically (clustered inputs make per-cell
    // cost very uneven); each worker owns one reusable cell/scratch pair,
    // which keeps the clipping kernel allocation-free in steady state.
    // Every write goes to the chunk's own shard and counters or to a slot
    // owned by exactly one pending site, so the result is deterministic for
    // any thread count.
    const std::size_t np = pending.size();
    const std::size_t num_chunks = (np + kGrain - 1) / kGrain;
    struct ChunkStat {
      std::size_t incomplete = 0;
      unsigned long long canon_kept_clipped = 0;
      double cpu_seconds = 0.0;
    };
    std::vector<ChunkStat> chunk_stats(num_chunks);
    const std::size_t first_shard = shards.size();
    shards.resize(first_shard + num_chunks);
    const auto backend_stats_before = builder->backend_stats();
    // Pause the serial timer over the parallel loop: the calling thread
    // works chunks too, and that CPU is already in the chunk timers.
    timer.stop();

    {
      TESS_SPAN("tess.build_cells");
      util::parallel_for(
          *pool_, np, kGrain,
          [&](std::size_t begin, std::size_t end, int chunk, int worker) {
            TESS_SPAN("tess.cell_chunk");
            util::ThreadCpuTimer chunk_timer;
            chunk_timer.start();
            ChunkStat& cs = chunk_stats[static_cast<std::size_t>(chunk)];
            const auto shard_id = static_cast<std::uint32_t>(
                first_shard + static_cast<std::size_t>(chunk));
            StagedCells& shard = shards[shard_id];
            auto& cell = cells[static_cast<std::size_t>(worker)];
            auto& scratch = scratches[static_cast<std::size_t>(worker)];
            for (std::size_t pi = begin; pi < end; ++pi) {
              const std::size_t i = pending[pi];
              builder->build_into(cell, scratch, static_cast<int>(i), seed.min,
                                  seed.max);
              state[i] = kIncomplete;
              if (!cell.complete()) {
                ++cs.incomplete;
                continue;
              }
              // Auto ghost takes the canonical form before any decision, so
              // every classification below depends only on the cell's true
              // geometry, never on the pass that built it. A fixed ghost
              // builds each cell once and stages it as built: staging
              // writes compact()'s form, straight off the edge table for a
              // generic cell, and only for cells past the early cull.
              if (options_.auto_ghost)
                cs.canon_kept_clipped += cell.canonicalize();
              // Security-radius certificate: every potential cutter of this
              // cell lies within 2*Rmax of the site; if that ball fits inside
              // the ghost-grown region, the cell is provably exact. Below the
              // cap the vertex balls may prove it exact first.
              radius2[i] = cell.max_radius2();
              retired[i] = 4.0 * radius2[i] <= ghost * ghost ||
                           (try_retire &&
                            vertex_balls_in_ghost(cell, bounds, ghost));
              if (early_diam2 > 0.0 &&
                  cell.max_vertex_separation2() < early_diam2) {
                state[i] = kCulledEarly;
                continue;
              }
              // Stage first: one walk writes the cell's faces, vertices,
              // volume and area (compacting it only if it needs cleaning).
              // A cell outside the volume window, or one a later pass will
              // rebuild, is then dropped from the shard again.
              const auto index = static_cast<std::uint32_t>(shard.cells.size());
              const double volume = shard.add_cell(mine[i].id, cell).volume;
              if ((options_.min_volume > 0.0 && volume < options_.min_volume) ||
                  (options_.max_volume > 0.0 && volume > options_.max_volume)) {
                shard.drop_last();
                state[i] = kCulledVolume;
                continue;
              }
              state[i] = kKept;
              if (retired[i] || at_cap)
                kept_at[i] = {shard_id, index};
              else
                shard.drop_last();
            }
            chunk_timer.stop();
            cs.cpu_seconds = chunk_timer.seconds();
          });
    }

    timer.start();
    std::size_t pass_incomplete = 0;
    unsigned long long pass_kept_clipped = 0;
    double loop_cpu = 0.0;
    for (const auto& cs : chunk_stats) {
      pass_incomplete += cs.incomplete;
      pass_kept_clipped += cs.canon_kept_clipped;
      loop_cpu += cs.cpu_seconds;
    }
    const std::size_t pass_uncertified = count_uncertified(ghost);
    timer.stop();
    // Model the per-rank critical path: serial sections on this thread,
    // plus the cell loop's total CPU divided by the pool width (== the loop
    // CPU itself when threads == 1).
    iter.compute_seconds =
        timer.seconds() + loop_cpu / static_cast<double>(nthreads);
    iter.cells_built = np;
    iter.cells_incomplete = pass_incomplete;
    iter.cells_uncertified = pass_uncertified;
    TESS_COUNT("tess.ghost_sent", iter.ghost_sent);
    TESS_COUNT("tess.ghost_received", iter.ghost_received);
    TESS_COUNT("tess.cells_built", np);
    emit_backend_metrics(backend_stats_before, builder->backend_stats(),
                         pass_kept_clipped);

    stats_.exchange_seconds += iter.exchange_seconds;
    stats_.compute_seconds += iter.compute_seconds;
    // Cumulative ghost traffic is NOT accumulated here: the per-pass entries
    // are the single source of truth, folded once by finalize_from_iterations().
    stats_.iterations.push_back(iter);
    stats_.auto_iterations = pass;
    stats_.ghost_used = ghost;
    if (!options_.auto_ghost) break;

    // Live-stream heartbeat per ghost pass, interval-gated: a long
    // auto-ghost escalation is visible (growing ghost, shrinking pending
    // set) instead of silent until the step record lands.
    if (auto* stream = obs::stream();
        stream != nullptr && stream->interval_elapsed()) {
      obs::StreamSample sample;
      sample.step = current_step_;
      sample.rank = comm_->rank();
      sample.values = {
          {"tess.pass.iteration", static_cast<double>(pass)},
          {"tess.pass.ghost", ghost},
          {"tess.pass.pending", static_cast<double>(pending.size())},
      };
      stream->emit(sample);
    }

    // Incomplete cells only count against certification when the domain is
    // periodic (in open domains, hull cells are unbounded and are dropped
    // exactly as in fixed-ghost mode). Retired sites are complete, and their
    // stored radii enter pass_uncertified, so this count matches what a full
    // rebuild would report. Runs at the cap too, so the comm ops of a pass
    // do not depend on the ghost.
    std::size_t unresolved = pass_uncertified;
    if (active_->periodic()) unresolved += pass_incomplete;
    const auto total = comm_->allreduce_sum(unresolved);
    if (total == 0 || at_cap) break;

    std::vector<std::size_t> next_pending;
    next_pending.reserve(pending.size());
    for (const std::size_t i : pending)
      if (!retired[i]) next_pending.push_back(i);
    pending = std::move(next_pending);
    prev_ghost = ghost;
    ghost = std::min(2.0 * ghost, ghost_cap);
  }

  // Final assembly in site order, welding each kept cell's staged vertices
  // once: the order and the welded-vertex numbering are mode- and
  // thread-independent. Every staged vertex is welded in the order of its
  // cell and its first reference there, so the first cell in site order that
  // holds a key sets the block's position for it, as a serial site-order
  // pass would. The block arrays and the weld table are sized once from the
  // shard totals (the table never rehashes), and each shard is released
  // after its last cell, so the shards and the block mesh are never both
  // resident in full.
  TESS_SPAN("tess.assemble");
  timer.reset();
  timer.start();
  BlockMesh mesh;
  mesh.bounds = bounds;
  std::size_t total_cells = 0, total_faces = 0, total_corners = 0,
              total_staged = 0;
  for (const auto& s : shards) {
    total_cells += s.cells.size();
    total_faces += s.face_neighbors.size();
    total_corners += s.face_verts.size();
    total_staged += s.vertices.size();
  }
  mesh.cells.reserve(total_cells);
  mesh.face_offsets.reserve(total_faces + 1);
  mesh.face_neighbors.reserve(total_faces);
  mesh.face_verts.reserve(total_corners);
  mesh.reserve_weld(total_staged);
  for (std::size_t i = 0; i < n; ++i) {
    switch (state[i]) {
      case kKept: {
        const auto [s, c] = kept_at[i];
        StagedCells& shard = shards[s];
        mesh.append_cell(shard, c);
        if (c + 1 == shard.cells.size()) shard = StagedCells{};
        break;
      }
      case kCulledEarly:
        ++stats_.cells_culled_early;
        break;
      case kCulledVolume:
        ++stats_.cells_culled_volume;
        break;
      default:
        ++stats_.cells_incomplete;
        break;
    }
  }
  stats_.cells_kept = mesh.cells.size();
  stats_.cells_uncertified = count_uncertified(ghost);
  timer.stop();
  stats_.compute_seconds += timer.seconds();

  stats_.finalize_from_iterations();
  TESS_COUNT("tess.cells_kept", stats_.cells_kept);
  TESS_COUNT("tess.cells_incomplete", stats_.cells_incomplete);
  TESS_COUNT("tess.cells_culled_early", stats_.cells_culled_early);
  TESS_COUNT("tess.cells_culled_volume", stats_.cells_culled_volume);
  TESS_COUNT("tess.cells_uncertified", stats_.cells_uncertified);
  TESS_GAUGE_SET("tess.ghost_used", stats_.ghost_used);
  return mesh;
}

std::uint64_t Tessellator::write(const std::string& path, const BlockMesh& mesh) {
  TESS_SPAN("tess.write");
  util::ThreadCpuTimer timer;
  timer.start();
  diy::Buffer buf;
  mesh.serialize(buf);
  const auto total = diy::write_blocks(*comm_, path, buf);
  timer.stop();
  stats_.output_seconds += timer.seconds();
  stats_.output_bytes = total;
  return total;
}

namespace {

/// Visits every field reduced_stats() folds across ranks, in one fixed
/// record order. Times and the ghost size fold by max (the critical path),
/// counts by sum; output_bytes is already global (the file size).
template <typename Visit>
void visit_reduced_fields(TessStats& s, Visit&& visit) {
  constexpr bool kMax = true, kSum = false;
  visit(s.exchange_seconds, kMax);
  visit(s.compute_seconds, kMax);
  visit(s.output_seconds, kMax);
  visit(s.local_particles, kSum);
  visit(s.ghost_received, kSum);
  visit(s.ghost_sent, kSum);
  visit(s.cells_kept, kSum);
  visit(s.cells_incomplete, kSum);
  visit(s.cells_culled_early, kSum);
  visit(s.cells_culled_volume, kSum);
  visit(s.ghost_used, kMax);
  visit(s.auto_iterations, kMax);
  visit(s.cells_uncertified, kSum);
  for (auto& it : s.iterations) {
    visit(it.ghost, kMax);
    visit(it.exchange_seconds, kMax);
    visit(it.compute_seconds, kMax);
    visit(it.ghost_sent, kSum);
    visit(it.ghost_received, kSum);
    visit(it.cells_built, kSum);
    visit(it.cells_incomplete, kSum);
    visit(it.cells_uncertified, kSum);
  }
}

}  // namespace

TessStats Tessellator::reduced_stats() const {
  // One flat record per rank, gathered once, folded on rank 0 in rank order
  // and broadcast: a fixed number of messages however many passes the run
  // took. Counts travel as doubles, exact far beyond any particle count
  // (2^53). The auto loop is collective, so every rank's record has the
  // same length.
  TessStats r = stats_;
  std::vector<double> record;
  std::vector<bool> is_max;
  visit_reduced_fields(r, [&](auto& field, bool max) {
    record.push_back(static_cast<double>(field));
    is_max.push_back(max);
  });
  const std::size_t len = record.size();
  const auto all = comm_->gatherv(record);
  if (comm_->rank() == 0) {
    if (all.size() == static_cast<std::size_t>(comm_->size()) * len) {
      for (std::size_t i = len; i < all.size(); ++i) {
        double& acc = record[i % len];
        acc = is_max[i % len] ? (acc > all[i] ? acc : all[i]) : acc + all[i];
      }
    } else {
      record.clear();  // ranks disagree on the pass count: fail everywhere
    }
  }
  comm_->broadcast(record);
  if (record.size() != len)
    throw std::logic_error("reduced_stats: ranks disagree on the pass count");
  std::size_t k = 0;
  visit_reduced_fields(r, [&](auto& field, bool) {
    field = static_cast<std::remove_reference_t<decltype(field)>>(record[k++]);
  });
  return r;
}

}  // namespace tess::core
