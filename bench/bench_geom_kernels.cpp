// Microbenchmarks (google-benchmark) for the serial kernels underneath the
// tessellation: robust predicates, quickhull, per-cell clipping, the grid
// cell builder, and the FFT — the costs Table II's "Voronoi computation"
// column is made of.
#include <benchmark/benchmark.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common.hpp"
#include "geom/cell_builder.hpp"
#include "geom/convex_hull.hpp"
#include "geom/kernels.hpp"
#include "geom/predicates.hpp"
#include "hacc/fft.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

using namespace tess;
using geom::Vec3;

namespace {

std::vector<Vec3> random_points(std::uint64_t seed, int n) {
  util::Rng rng(seed);
  std::vector<Vec3> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  return pts;
}

/// Two Gaussian blobs (half and a quarter of the points, sigma 0.05 and
/// 0.08) over a uniform background, reflected into the unit cube: the
/// clustered cells of perfbench's insitu_clustered, where the vertex-ball
/// screen fires and a cell cuts several times more often.
std::vector<Vec3> two_blob_points(std::uint64_t seed, int n) {
  util::Rng rng(seed);
  const auto reflect = [](double x) {
    if (x < 0.0) x = -x;
    if (x >= 1.0) x = 2.0 - x;
    return std::fmin(std::fmax(x, 0.0), std::nextafter(1.0, 0.0));
  };
  std::vector<Vec3> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    if (i % 2 == 0)
      p = {rng.normal(0.30, 0.05), rng.normal(0.62, 0.05), rng.normal(0.40, 0.05)};
    else if (i % 4 == 1)
      p = {rng.normal(0.72, 0.08), rng.normal(0.22, 0.08), rng.normal(0.66, 0.08)};
    pts.push_back({reflect(p.x), reflect(p.y), reflect(p.z)});
  }
  return pts;
}

/// The allocation-free steady-state path: one warm cell/scratch pair reused
/// across sites (what each pool worker runs), finishing with the volume.
void build_reuse(benchmark::State& state, std::vector<Vec3> pts) {
  const int n = static_cast<int>(pts.size());
  geom::CellBuilder builder(std::move(pts), {}, {0, 0, 0}, {1, 1, 1});
  geom::VoronoiCell cell({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  geom::ClipScratch scratch;
  std::size_t site = 0;
  for (auto _ : state) {
    builder.build_into(cell, scratch,
                       static_cast<int>(site % static_cast<std::size_t>(n)),
                       {0, 0, 0}, {1, 1, 1});
    benchmark::DoNotOptimize(cell.volume());
    ++site;
  }
}

}  // namespace

static void BM_Orient3D_Filtered(benchmark::State& state) {
  const auto pts = random_points(1, 4000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geom::orient3d(pts[i % 1000], pts[(i + 1) % 4000], pts[(i + 2) % 4000],
                       pts[(i + 3) % 4000]));
    ++i;
  }
}
BENCHMARK(BM_Orient3D_Filtered);

static void BM_Orient3D_ExactFallback(benchmark::State& state) {
  // Exactly coplanar inputs force the expansion-arithmetic path every call.
  const Vec3 a{0.1, 0.2, 0.3}, b{1.1, 0.2, 0.3}, c{0.1, 1.2, 0.3}, d{0.7, 0.9, 0.3};
  for (auto _ : state) benchmark::DoNotOptimize(geom::orient3d(a, b, c, d));
}
BENCHMARK(BM_Orient3D_ExactFallback);

static void BM_InSphere(benchmark::State& state) {
  const auto pts = random_points(2, 4000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::insphere(pts[i % 4000], pts[(i + 1) % 4000],
                                            pts[(i + 2) % 4000], pts[(i + 3) % 4000],
                                            pts[(i + 4) % 4000]));
    ++i;
  }
}
BENCHMARK(BM_InSphere);

static void BM_ConvexHull(benchmark::State& state) {
  const auto pts = random_points(3, static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(geom::convex_hull(pts));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConvexHull)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

static void BM_VoronoiCellBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  geom::CellBuilder builder(random_points(4, n), {}, {0, 0, 0}, {1, 1, 1});
  std::size_t site = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        builder.build(static_cast<int>(site % static_cast<std::size_t>(n)),
                      {0, 0, 0}, {1, 1, 1}));
    ++site;
  }
}
BENCHMARK(BM_VoronoiCellBuild)->Arg(1000)->Arg(8000);

static void BM_VoronoiCellBuildReuse(benchmark::State& state) {
  build_reuse(state, random_points(4, static_cast<int>(state.range(0))));
}
BENCHMARK(BM_VoronoiCellBuildReuse)->Arg(1000)->Arg(8000);

static void BM_VoronoiCellBuildReuseTwoBlob(benchmark::State& state) {
  build_reuse(state, two_blob_points(4, static_cast<int>(state.range(0))));
}
BENCHMARK(BM_VoronoiCellBuildReuseTwoBlob)->Arg(8000);

static void BM_CellBuilder_Threads(benchmark::State& state) {
  // Intra-rank parallel sweep over all cells of an 8000-point block with
  // the same grain/shard scheme as a Tessellator::tessellate pass. Real time
  // (not main-thread CPU) is the figure of merit.
  const int n = 8000;
  geom::CellBuilder builder(random_points(4, n), {}, {0, 0, 0}, {1, 1, 1});
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  const auto nworkers = static_cast<std::size_t>(pool.size());
  const geom::VoronoiCell proto({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  std::vector<geom::VoronoiCell> cells(nworkers, proto);
  std::vector<geom::ClipScratch> scratches(nworkers);
  std::vector<double> volumes(nworkers, 0.0);
  for (auto _ : state) {
    util::parallel_for(
        pool, static_cast<std::size_t>(n), 64,
        [&](std::size_t begin, std::size_t end, int, int worker) {
          auto& cell = cells[static_cast<std::size_t>(worker)];
          auto& scratch = scratches[static_cast<std::size_t>(worker)];
          double v = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            builder.build_into(cell, scratch, static_cast<int>(i), {0, 0, 0},
                               {1, 1, 1});
            v += cell.volume();
          }
          volumes[static_cast<std::size_t>(worker)] += v;
        });
    benchmark::DoNotOptimize(volumes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CellBuilder_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

static void BM_BlockTessellation(benchmark::State& state) {
  // Whole-block serial cost: all cells of an n-point block (the per-rank
  // inner loop of the parallel pipeline).
  const int n = static_cast<int>(state.range(0));
  geom::CellBuilder builder(random_points(5, n), {}, {0, 0, 0}, {1, 1, 1});
  for (auto _ : state) {
    double vol = 0.0;
    for (int s = 0; s < n; ++s)
      vol += builder.build(s, {0, 0, 0}, {1, 1, 1}).volume();
    benchmark::DoNotOptimize(vol);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BlockTessellation)->Arg(1000)->Arg(4096);

static void BM_FixedGhostBlock(benchmark::State& state) {
  // One rank's whole fixed-ghost step on a periodic uniform cloud: the ghost
  // exchange, every cell built and compacted, the kept cells staged per
  // chunk and welded into the block — the finish and the weld that
  // BM_VoronoiCellBuildReuse never runs. The ghost is 4 mean spacings, as
  // in perfbench's insitu_uniform.
  const int n = static_cast<int>(state.range(0));
  std::vector<diy::Particle> particles;
  const auto pts = random_points(6, n);
  for (int i = 0; i < n; ++i) particles.push_back({pts[static_cast<std::size_t>(i)], i});
  comm::Runtime::run(1, [&](comm::Comm& comm) {
    const diy::Decomposition decomp({0, 0, 0}, {1, 1, 1}, {1, 1, 1}, true);
    core::TessOptions opt;
    opt.ghost = 4.0 / std::cbrt(static_cast<double>(n));
    core::Tessellator tessellator(comm, decomp, opt);
    for (auto _ : state) benchmark::DoNotOptimize(tessellator.tessellate(particles));
  });
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FixedGhostBlock)->Arg(8000);

// ---------------------------------------------------------------------------
// Batched kernels under the clip loop: the 4-lane sweeps of geom/kernels.hpp
// and the batched orient3d filter of the hull's conflict lists.
// ---------------------------------------------------------------------------

static void BM_Dist2Batch(benchmark::State& state) {
  const int n = 4096;
  const auto pts = random_points(7, n);
  std::vector<double> x, y, z, d2(static_cast<std::size_t>(n));
  for (const auto& p : pts) {
    x.push_back(p.x);
    y.push_back(p.y);
    z.push_back(p.z);
  }
  const Vec3 site{0.5, 0.5, 0.5};
  for (auto _ : state) {
    geom::kernels::dist2_batch(x.data(), y.data(), z.data(),
                               static_cast<std::size_t>(n), site, d2.data());
    benchmark::DoNotOptimize(d2.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dist2Batch);

static void BM_PlaneDistanceBatch(benchmark::State& state) {
  const int n = 1024;
  const auto verts = random_points(8, n);
  std::vector<double> dist(static_cast<std::size_t>(n));
  const Vec3 normal{0.3, -0.9, 0.316};
  double amax = 0.0;
  for (auto _ : state) {
    geom::kernels::plane_distances(verts.data(), static_cast<std::size_t>(n),
                                   normal, -0.2, dist.data(), &amax);
    benchmark::DoNotOptimize(amax);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlaneDistanceBatch);

static void BM_ScreenCandidates(benchmark::State& state) {
  // range(0) = percent of candidates kept. Outer grid rings are almost
  // entirely beyond the shrinking 2*r_max ball (a few percent kept), which
  // is where the batch-reject fast path pays; ~25% kept models the first
  // ring around the site.
  const int n = 4096;
  const double limit = static_cast<double>(state.range(0)) / 100.0;
  util::Rng rng(9);
  std::vector<double> d2;
  std::vector<int> idx;
  for (int i = 0; i < n; ++i) {
    d2.push_back(rng.uniform());
    idx.push_back(i);
  }
  std::vector<std::pair<double, int>> kept;
  for (auto _ : state) {
    kept.clear();
    benchmark::DoNotOptimize(geom::kernels::screen_candidates(
        d2.data(), idx.data(), static_cast<std::size_t>(n), limit, kept));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScreenCandidates)->Arg(25)->Arg(2);

static void BM_Orient3DFilterBatch(benchmark::State& state) {
  // Random (well-separated) queries: the semi-static filter certifies every
  // lane, so this measures the batched filter itself, not the exact path.
  const int n = 1024;
  const auto pts = random_points(10, n);
  const Vec3 a{0.1, 0.1, 0.1}, b{0.9, 0.2, 0.1}, c{0.3, 0.8, 0.2};
  std::vector<double> dx, dy, dz;
  for (const auto& p : pts) {
    dx.push_back(p.x);
    dy.push_back(p.y);
    dz.push_back(p.z);
  }
  std::vector<int> sign(static_cast<std::size_t>(n));
  for (auto _ : state) {
    geom::orient3d_batch(a, b, c, dx.data(), dy.data(), dz.data(),
                         static_cast<std::size_t>(n), sign.data());
    benchmark::DoNotOptimize(sign.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Orient3DFilterBatch);

static void BM_Fft3D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hacc::Fft3D fft(n, n, n);
  util::Rng rng(6);
  std::vector<hacc::Complex> grid(fft.size());
  for (auto& c : grid) c = hacc::Complex(rng.normal(), 0);
  for (auto _ : state) {
    fft.forward(grid);
    fft.inverse(grid);
    benchmark::DoNotOptimize(grid.data());
  }
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(32)->Arg(64);

// Custom main instead of BENCHMARK_MAIN() so TESS_OBS_EXPORT=<prefix> makes
// the run emit <prefix>.trace.json and <prefix>.summary.jsonl.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Stamped into the benchmark JSON context so obs_compare can flag
  // baselines or candidates recorded from a debug build.
  benchmark::AddCustomContext("tess_build_type", tess::bench::build_type());
  tess::bench::obs_begin_from_env();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tess::bench::obs_export_from_env();
  return 0;
}
