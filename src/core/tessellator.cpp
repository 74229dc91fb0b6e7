#include "core/tessellator.hpp"

#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "comm/fault.hpp"
#include "diy/blockio.hpp"
#include "diy/repartition.hpp"
#include "geom/cell_builder.hpp"
#include "obs/analyze.hpp"
#include "geom/convex_hull.hpp"
#include "geom/predicates.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace tess::core {

namespace {
/// Consecutive collective exchange failures tolerated (fault injector armed)
/// before tessellation gives up. Each failed pass already represents a full
/// bounded-retry receive budget on every incomplete rank, so reaching this
/// streak means the missing data is effectively unrecoverable.
constexpr int kMaxFailedExchangePasses = 8;

/// Adaptive-mode particle migration into the active decomposition; kept
/// off the ghost/migrate tags so the fault injector can target it
/// independently.
constexpr int kTagAdaptiveMigrate = 103;
}  // namespace

Tessellator::Tessellator(comm::Comm& comm, const diy::Decomposition& decomp,
                         const TessOptions& options)
    : comm_(&comm),
      decomp_(&decomp),
      options_(options),
      backend_(geom::resolve_backend(options.backend)),
      active_(&decomp),
      exchanger_(std::make_unique<diy::Exchanger>(comm, decomp)),
      pool_(std::make_unique<util::ThreadPool>(options.threads)) {}

namespace {

/// Emit the per-pass geom.cuts* and geom.backend.* metrics from the
/// builder's counter deltas — on every run, not just parity runs, so
/// production traces always carry the wasted-work counts, filter hit rate,
/// batch occupancy, and exact-fallback rate.
void emit_backend_metrics(
    [[maybe_unused]] geom::TessBackend backend,
    [[maybe_unused]] const geom::CellBuilder::BackendStats& before,
    [[maybe_unused]] const geom::CellBuilder::BackendStats& after,
    [[maybe_unused]] unsigned long long exact_before) {
#if TESS_OBS_ENABLED
  const std::uint64_t cuts_delta = after.cuts - before.cuts;
  const std::uint64_t seen = after.cand_seen - before.cand_seen;
  const std::uint64_t kept = after.cand_kept - before.cand_kept;
  const std::uint64_t batches = after.batches - before.batches;
  const std::uint64_t lanes = after.lanes - before.lanes;
  const unsigned long long exact = geom::exact_fallback_count() - exact_before;
  TESS_COUNT("geom.cuts", cuts_delta);
  TESS_COUNT("geom.cuts_noop", after.cuts_noop - before.cuts_noop);
  TESS_COUNT("geom.bins_pruned", after.bins_pruned - before.bins_pruned);
  TESS_COUNT("geom.backend.cand_seen", seen);
  TESS_COUNT("geom.backend.cand_kept", kept);
  TESS_COUNT("geom.backend.batches", batches);
  TESS_COUNT("geom.exact_fallbacks", exact);
  TESS_GAUGE_SET("geom.backend.simd",
                 backend == geom::TessBackend::kSimd ? 1.0 : 0.0);
  if (seen > 0)
    TESS_GAUGE_SET("geom.backend.filter_hit_rate",
                   static_cast<double>(kept) / static_cast<double>(seen));
  if (batches > 0)
    TESS_GAUGE_SET("geom.backend.batch_occupancy",
                   static_cast<double>(lanes) /
                       (4.0 * static_cast<double>(batches)));
  if (cuts_delta > 0)
    TESS_GAUGE_SET("geom.exact_fallback_rate",
                   static_cast<double>(exact) /
                       static_cast<double>(cuts_delta));
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

BlockMesh Tessellator::tessellate(const std::vector<diy::Particle>& mine) {
  TESS_SPAN("tess.tessellate");
  TESS_COUNT("tess.runs", 1);
  stats_ = TessStats{};
  stats_.local_particles = mine.size();

  BlockMesh mesh;
  if (!options_.auto_ghost) {
    stats_.ghost_used = options_.ghost;
    mesh = tessellate_once(mine, options_.ghost);
    stats_.iterations.push_back({options_.ghost, stats_.exchange_seconds,
                                 stats_.compute_seconds, stats_.ghost_sent,
                                 stats_.ghost_received, mine.size(),
                                 stats_.cells_incomplete,
                                 stats_.cells_uncertified});
  } else {
    mesh = tessellate_auto(mine);
  }
  stats_.finalize_from_iterations();
  TESS_COUNT("tess.cells_kept", stats_.cells_kept);
  TESS_COUNT("tess.cells_incomplete", stats_.cells_incomplete);
  TESS_COUNT("tess.cells_culled_early", stats_.cells_culled_early);
  TESS_COUNT("tess.cells_culled_volume", stats_.cells_culled_volume);
  TESS_COUNT("tess.cells_uncertified", stats_.cells_uncertified);
  TESS_GAUGE_SET("tess.ghost_used", stats_.ghost_used);
  return mesh;
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

BlockMesh Tessellator::tessellate_auto(const std::vector<diy::Particle>& mine) {
  // Automatic ghost-size determination (paper §V future work): repeat with
  // a doubled ghost zone until every cell is both complete and certified by
  // its security radius — at that point no particle outside the ghost zone
  // could have altered any cell, so the result equals the serial one.
  //
  // With options.incremental, the loop reuses everything a pass has proved:
  // pass k exchanges only the ghost annulus (g_{k-1}, g_k], appends it to
  // the existing CellBuilder grid, and rebuilds only the sites not yet
  // complete AND certified. A cell certified at ghost g is exact — no
  // particle beyond g can cut it — so its geometry at any larger ghost is
  // the same cell, and VoronoiCell::canonicalize() makes the stored bytes
  // independent of which pass built it. With incremental = false every pass
  // re-exchanges and rebuilds everything; the two modes emit byte-identical
  // meshes (asserted by tests), differing only in work done.
  util::ThreadCpuTimer timer;
  const geom::Vec3 dsize = active_->domain_size();
  const double ghost_cap =
      options_.auto_ghost_max_fraction * std::min({dsize.x, dsize.y, dsize.z});
  double ghost = std::min(std::max(options_.ghost, 1e-12), ghost_cap);
  const bool reuse = options_.incremental;
  const auto bounds = exchanger_->my_bounds();
  const std::size_t n = mine.size();

  double early_diam2 = 0.0;
  if (options_.min_volume > 0.0 && options_.early_cull) {
    const double r = std::cbrt(options_.min_volume * 3.0 / (4.0 * std::numbers::pi));
    early_diam2 = 4.0 * r * r;
  }

  // Per-site state carried across passes. A site is terminal once its cell
  // is complete AND certified; until then it stays on the pending list.
  // Classification (kept/culled) is recorded every pass so a cap-stopped
  // run still reports the last pass's best answer for uncertified cells.
  enum : std::uint8_t { kPending = 0, kKept = 1, kCulledEarly = 2, kCulledVolume = 3 };
  std::vector<std::uint8_t> state(n, kPending);
  std::vector<std::uint8_t> complete_flags(n, 0);
  std::vector<std::uint8_t> certified(n, 0);
  std::vector<std::optional<geom::VoronoiCell>> cell_of(n);
  std::vector<double> vol_of(n, 0.0), area_of(n, 0.0);
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;

  std::optional<geom::CellBuilder> builder;
  const int nthreads = pool_->size();
  const geom::VoronoiCell proto({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  std::vector<geom::VoronoiCell> cells(static_cast<std::size_t>(nthreads), proto);
  std::vector<geom::ClipScratch> scratches(static_cast<std::size_t>(nthreads));
  constexpr std::size_t kGrain = 64;

  // Graceful-degradation state (fault injector armed only). A pass whose
  // exchange stays incomplete after the bounded retries is abandoned by
  // *every* rank — the verdict is collective, so the symmetric message
  // pattern and the ghost trajectory stay identical across ranks — and the
  // same pass is re-attempted: ghost/prev_ghost do not advance, the sites
  // it would have resolved remain pending (re-requested), and a rank that
  // did receive everything carries its ghosts to the retry instead of
  // re-exchanging (nothing may be sent twice).
  int failed_streak = 0;
  std::optional<std::vector<diy::Particle>> carried;
  bool builder_fresh_done = false;

  double prev_ghost = 0.0;
  for (int iteration = 1;; ++iteration) {
    TESS_SPAN(iteration == 1 ? "tess.pass" : "tess.retry_pass");
    TESS_COUNT("tess.passes", 1);
    if (iteration > 1) TESS_COUNT("tess.retries", 1);
    const auto seed = bounds.grown(ghost);

    // 1. Ghost exchange: full ball on the first pass (and every pass when
    // not reusing), the (prev_ghost, ghost] annulus afterwards. The annuli
    // partition the ball exactly — distances are computed by the same
    // expressions every call — so the union of all arrivals equals a single
    // from-scratch exchange at the current ghost.
    timer.reset();
    timer.start();
    // Stable across retries of a failed pass: the builder's fresh append
    // must happen exactly once, however many attempts the pass takes.
    const bool fresh = !reuse || !builder_fresh_done;
    std::vector<diy::Particle> ghosts;
    bool have = true;
    if (carried) {
      ghosts = std::move(*carried);
      carried.reset();
    } else {
      TESS_SPAN(fresh ? "tess.exchange" : "tess.exchange_delta");
      ghosts = fresh
                   ? exchanger_->exchange_ghost(mine, ghost)
                   : exchanger_->exchange_ghost_delta(mine, prev_ghost, ghost);
      have = exchanger_->last_exchange_complete();
    }
    timer.stop();

    if (comm::faults().armed()) {
      // Collective verdict on the pass: if any rank is missing a neighbor's
      // message, all ranks abandon the pass together and retry it — cells
      // are never built from a partial ghost set.
      const std::size_t missing =
          comm_->allreduce_sum(static_cast<std::size_t>(have ? 0 : 1));
      if (missing > 0) {
        TESS_COUNT("tess.exchange_failed_passes", 1);
        TESS_COUNT("tess.cells_rerequested", pending.size());
        if (have) carried = std::move(ghosts);
        if (++failed_streak >= kMaxFailedExchangePasses)
          throw comm::CommTimeoutError(
              "tessellate_auto: ghost exchange failed on " +
              std::to_string(missing) + " rank(s) for " +
              std::to_string(failed_streak) + " consecutive passes");
        continue;
      }
      failed_streak = 0;
    }
    if (fresh) builder_fresh_done = true;
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
      builder.emplace(std::move(pts), std::move(ids), seed.min, seed.max,
                      backend_);
      pending.resize(n);
      for (std::size_t i = 0; i < n; ++i) pending[i] = i;
    } else {
      builder->add_points(pts, ids, seed.min, seed.max);
    }

    // 3. Rebuild the pending sites (all sites when not reusing), sharded
    // over the pool in fixed chunks of the pending list. Every write goes
    // to a per-chunk counter or a slot owned by exactly one pending site,
    // so the result is deterministic for any thread count.
    const std::size_t np = pending.size();
    const std::size_t num_chunks = (np + kGrain - 1) / kGrain;
    struct ChunkStat {
      std::size_t incomplete = 0;
      std::size_t uncertified = 0;
      std::size_t culled_early = 0;
      std::size_t culled_volume = 0;
      double cpu_seconds = 0.0;
    };
    std::vector<ChunkStat> chunk_stats(num_chunks);
    const auto backend_stats_before = builder->backend_stats();
    const auto exact_before = geom::exact_fallback_count();
    timer.stop();

    TESS_SPAN("tess.build_cells");
    util::parallel_for(
        *pool_, np, kGrain,
        [&](std::size_t begin, std::size_t end, int chunk, int worker) {
          TESS_SPAN("tess.cell_chunk");
          util::ThreadCpuTimer chunk_timer;
          chunk_timer.start();
          ChunkStat& cs = chunk_stats[static_cast<std::size_t>(chunk)];
          auto& cell = cells[static_cast<std::size_t>(worker)];
          auto& scratch = scratches[static_cast<std::size_t>(worker)];
          for (std::size_t pi = begin; pi < end; ++pi) {
            const std::size_t i = pending[pi];
            builder->build_into(cell, scratch, static_cast<int>(i), seed.min,
                                seed.max);
            if (!cell.complete()) {
              ++cs.incomplete;
              complete_flags[i] = 0;
              certified[i] = 0;
              state[i] = kPending;
              cell_of[i].reset();
              continue;
            }
            complete_flags[i] = 1;
            // Canonical form before any decision: every classification below
            // then depends only on the cell's true geometry, never on the
            // pass that built it — the retained-cell bytes and the
            // would-be-rebuilt bytes coincide.
            cell.canonicalize();
            certified[i] = 4.0 * cell.max_radius2() <= ghost * ghost ? 1 : 0;
            if (!certified[i]) ++cs.uncertified;
            if (early_diam2 > 0.0 &&
                cell.max_vertex_separation2() < early_diam2) {
              ++cs.culled_early;
              state[i] = kCulledEarly;
              cell_of[i].reset();
              continue;
            }
            double volume = cell.volume();
            double area = cell.area();
            if (options_.hull_pass) {
              const auto hull = geom::convex_hull(cell.vertices(), backend_);
              if (!hull.degenerate) {
                volume = hull.volume;
                area = hull.area;
              }
            }
            if ((options_.min_volume > 0.0 && volume < options_.min_volume) ||
                (options_.max_volume > 0.0 && volume > options_.max_volume)) {
              ++cs.culled_volume;
              state[i] = kCulledVolume;
              cell_of[i].reset();
              continue;
            }
            state[i] = kKept;
            cell_of[i] = cell;
            vol_of[i] = volume;
            area_of[i] = area;
          }
          chunk_timer.stop();
          cs.cpu_seconds = chunk_timer.seconds();
        });

    timer.start();
    std::size_t pass_incomplete = 0, pass_uncertified = 0;
    double loop_cpu = 0.0;
    for (const auto& cs : chunk_stats) {
      pass_incomplete += cs.incomplete;
      pass_uncertified += cs.uncertified;
      loop_cpu += cs.cpu_seconds;
    }
    timer.stop();
    iter.compute_seconds =
        timer.seconds() + loop_cpu / static_cast<double>(nthreads);
    iter.cells_built = np;
    iter.cells_incomplete = pass_incomplete;
    iter.cells_uncertified = pass_uncertified;
    TESS_COUNT("tess.ghost_sent", iter.ghost_sent);
    TESS_COUNT("tess.ghost_received", iter.ghost_received);
    TESS_COUNT("tess.cells_built", np);
    emit_backend_metrics(backend_, backend_stats_before,
                         builder->backend_stats(), exact_before);

    stats_.exchange_seconds += iter.exchange_seconds;
    stats_.compute_seconds += iter.compute_seconds;
    // Cumulative ghost traffic is NOT accumulated here: the per-pass entries
    // are the single source of truth, folded once by finalize_from_iterations().
    stats_.iterations.push_back(iter);
    stats_.auto_iterations = iteration;
    stats_.ghost_used = ghost;

    // Live-stream heartbeat per ghost pass, interval-gated: a long
    // auto-ghost escalation is visible (growing ghost, shrinking pending
    // set) instead of silent until the step record lands.
    if (auto* stream = obs::stream();
        stream != nullptr && stream->interval_elapsed()) {
      obs::StreamSample sample;
      sample.step = current_step_;
      sample.rank = comm_->rank();
      sample.values = {
          {"tess.pass.iteration", static_cast<double>(iteration)},
          {"tess.pass.ghost", ghost},
          {"tess.pass.pending", static_cast<double>(pending.size())},
      };
      stream->emit(sample);
    }

    // Incomplete cells only count against certification when the domain is
    // periodic (in open domains, hull cells are unbounded and are dropped
    // exactly as in fixed-ghost mode). Sites already retired contribute
    // nothing — a certified cell stays complete and certified at any larger
    // ghost — so this count matches what a full rebuild would report.
    std::size_t unresolved = pass_uncertified;
    if (active_->periodic()) unresolved += pass_incomplete;
    const auto total = comm_->allreduce_sum(unresolved);
    if (total == 0 || ghost >= ghost_cap) break;

    std::vector<std::size_t> next_pending;
    next_pending.reserve(pending.size());
    for (const std::size_t i : pending)
      if (!(complete_flags[i] && certified[i])) next_pending.push_back(i);
    pending = std::move(next_pending);
    prev_ghost = ghost;
    ghost = std::min(2.0 * ghost, ghost_cap);
  }

  // Final assembly in site order from the per-site results — the order and
  // the welded-vertex numbering are therefore mode- and thread-independent.
  TESS_SPAN("tess.assemble");
  timer.reset();
  timer.start();
  BlockMesh mesh;
  mesh.bounds = bounds;
  for (std::size_t i = 0; i < n; ++i) {
    switch (state[i]) {
      case kKept:
        mesh.add_cell(mine[i].id, *cell_of[i], vol_of[i], area_of[i]);
        ++stats_.cells_kept;
        break;
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
    if (complete_flags[i] && !certified[i]) ++stats_.cells_uncertified;
  }
  timer.stop();
  stats_.compute_seconds += timer.seconds();
  return mesh;
}

BlockMesh Tessellator::tessellate_once(const std::vector<diy::Particle>& mine,
                                       double ghost) {
  // Thread CPU time: models this rank's own work even when thread-ranks
  // oversubscribe the host cores (see util/timer.hpp).
  util::ThreadCpuTimer timer;
  TESS_SPAN("tess.pass");
  TESS_COUNT("tess.passes", 1);

  // 1. Ghost-zone neighbor exchange. Under an armed fault injector the
  // exchange may come back incomplete; all ranks then agree (collectively)
  // to resume the receive side until every rank has its full ghost set or
  // the failure budget runs out — cells are never built from partial data.
  timer.start();
  std::vector<diy::Particle> ghosts;
  {
    TESS_SPAN("tess.exchange");
    ghosts = exchanger_->exchange_ghost(mine, ghost);
  }
  if (comm::faults().armed()) {
    int streak = 0;
    while (true) {
      const bool have = exchanger_->last_exchange_complete();
      const std::size_t missing =
          comm_->allreduce_sum(static_cast<std::size_t>(have ? 0 : 1));
      if (missing == 0) break;
      TESS_COUNT("tess.exchange_failed_passes", 1);
      if (++streak >= kMaxFailedExchangePasses)
        throw comm::CommTimeoutError(
            "tessellate_once: ghost exchange failed on " +
            std::to_string(missing) + " rank(s) for " + std::to_string(streak) +
            " consecutive attempts");
      if (!have) {
        TESS_SPAN("tess.exchange");
        ghosts = exchanger_->exchange_ghost(mine, ghost);
      }
    }
  }
  timer.stop();
  stats_.exchange_seconds = timer.seconds();
  stats_.ghost_received = ghosts.size();
  stats_.ghost_sent = exchanger_->last_sent();
  TESS_COUNT("tess.ghost_sent", stats_.ghost_sent);
  TESS_COUNT("tess.ghost_received", stats_.ghost_received);

  // 2-4. Local Voronoi computation and culling.
  timer.reset();
  timer.start();
  const auto bounds = exchanger_->my_bounds();
  const auto seed = bounds.grown(ghost);

  std::vector<geom::Vec3> pts;
  std::vector<std::int64_t> ids;
  pts.reserve(mine.size() + ghosts.size());
  ids.reserve(mine.size() + ghosts.size());
  for (const auto& p : mine) {
    pts.push_back(p.pos);
    ids.push_back(p.id);
  }
  for (const auto& g : ghosts) {
    pts.push_back(g.pos);
    ids.push_back(g.id);
  }
  geom::CellBuilder builder(std::move(pts), std::move(ids), seed.min, seed.max,
                            backend_);
  const auto backend_stats_before = builder.backend_stats();
  const auto exact_before = geom::exact_fallback_count();

  // Early-cull bound: a cell whose largest vertex separation is below the
  // diameter of the sphere of volume `min_volume` cannot reach the
  // threshold volume.
  double early_diam2 = 0.0;
  if (options_.min_volume > 0.0 && options_.early_cull) {
    const double r = std::cbrt(options_.min_volume * 3.0 / (4.0 * std::numbers::pi));
    early_diam2 = 4.0 * r * r;
  }

  BlockMesh mesh;
  mesh.bounds = bounds;

  // Per-cell loop, sharded over the intra-rank pool. Sites are split into
  // chunks of a fixed grain that does NOT depend on the thread count, each
  // chunk fills its own mesh shard and stat counters, and shards are merged
  // in site order below — so the output mesh is byte-identical for any
  // options.threads. Chunks are handed out dynamically (clustered inputs
  // make per-cell cost very uneven); each worker owns one reusable
  // cell/scratch pair, which keeps the clipping kernel allocation-free in
  // steady state.
  constexpr std::size_t kGrain = 64;
  const std::size_t n = mine.size();
  const std::size_t num_chunks = (n + kGrain - 1) / kGrain;
  const int nthreads = pool_->size();

  struct Shard {
    BlockMesh mesh;
    std::size_t incomplete = 0;
    std::size_t uncertified = 0;
    std::size_t culled_early = 0;
    std::size_t culled_volume = 0;
    double cpu_seconds = 0.0;
  };
  std::vector<Shard> shards(num_chunks);
  const geom::VoronoiCell proto({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  std::vector<geom::VoronoiCell> cells(static_cast<std::size_t>(nthreads), proto);
  std::vector<geom::ClipScratch> scratches(static_cast<std::size_t>(nthreads));

  // Pause the serial timer over the parallel loop: the calling thread works
  // chunks too, and that CPU is already accounted in the shard timers.
  timer.stop();
  TESS_COUNT("tess.cells_built", n);
  {
    TESS_SPAN("tess.build_cells");
    util::parallel_for(
        *pool_, n, kGrain,
        [&](std::size_t begin, std::size_t end, int chunk, int worker) {
          TESS_SPAN("tess.cell_chunk");
          util::ThreadCpuTimer chunk_timer;
          chunk_timer.start();
          Shard& shard = shards[static_cast<std::size_t>(chunk)];
          auto& cell = cells[static_cast<std::size_t>(worker)];
          auto& scratch = scratches[static_cast<std::size_t>(worker)];
          for (std::size_t i = begin; i < end; ++i) {
            builder.build_into(cell, scratch, static_cast<int>(i), seed.min,
                               seed.max);
            if (!cell.complete()) {
              ++shard.incomplete;
              continue;
            }
            // Security-radius certificate: every potential cutter of this cell
            // lies within 2*Rmax of the site; if that ball fits inside the
            // ghost-grown region, the cell is provably exact.
            if (4.0 * cell.max_radius2() > ghost * ghost) ++shard.uncertified;
            if (early_diam2 > 0.0 && cell.max_vertex_separation2() < early_diam2) {
              ++shard.culled_early;
              continue;
            }
            cell.compact();

            double volume = cell.volume();
            double area = cell.area();
            if (options_.hull_pass) {
              // Paper-faithful step: order the cell's vertices into faces via
              // the convex hull and take volume/area from it.
              const auto hull = geom::convex_hull(cell.vertices(), backend_);
              if (!hull.degenerate) {
                volume = hull.volume;
                area = hull.area;
              }
            }
            if (options_.min_volume > 0.0 && volume < options_.min_volume) {
              ++shard.culled_volume;
              continue;
            }
            if (options_.max_volume > 0.0 && volume > options_.max_volume) {
              ++shard.culled_volume;
              continue;
            }
            shard.mesh.add_cell(mine[i].id, cell, volume, area);
          }
          chunk_timer.stop();
          shard.cpu_seconds = chunk_timer.seconds();
        });
  }

  TESS_SPAN("tess.assemble");
  timer.start();
  // Ordered merge: shard c holds sites [c*kGrain, (c+1)*kGrain), so
  // appending in chunk order reproduces the serial site order exactly.
  // The cell and face arrays are sized once from the shard totals, and each
  // shard is released once merged, so the shards and the block mesh are
  // never both resident in full.
  std::size_t total_cells = 0, total_faces = 0, total_corners = 0;
  for (const auto& shard : shards) {
    total_cells += shard.mesh.cells.size();
    total_faces += shard.mesh.num_faces();
    total_corners += shard.mesh.face_verts.size();
  }
  mesh.cells.reserve(total_cells);
  mesh.face_offsets.reserve(total_faces + 1);
  mesh.face_neighbors.reserve(total_faces);
  mesh.face_verts.reserve(total_corners);
  double loop_cpu = 0.0;
  for (auto& shard : shards) {
    mesh.append(shard.mesh);
    stats_.cells_incomplete += shard.incomplete;
    stats_.cells_uncertified += shard.uncertified;
    stats_.cells_culled_early += shard.culled_early;
    stats_.cells_culled_volume += shard.culled_volume;
    stats_.cells_kept += shard.mesh.cells.size();
    loop_cpu += shard.cpu_seconds;
    shard.mesh = BlockMesh{};
  }
  timer.stop();
  // Model the per-rank critical path: serial sections (builder setup and
  // shard merge) on this thread, plus the cell loop's total CPU divided by
  // the pool width (== the loop CPU itself when threads == 1).
  stats_.compute_seconds =
      timer.seconds() + loop_cpu / static_cast<double>(nthreads);
  emit_backend_metrics(backend_, backend_stats_before, builder.backend_stats(),
                       exact_before);
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
