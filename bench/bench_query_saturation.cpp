// Query-service saturation benchmark (DESIGN.md §4.12): queries per second
// versus reader-thread count versus snapshot size, over the blocked files
// the in-situ pipeline writes. Each benchmark drives serve::QueryService
// against pre-tessellated jittered-lattice snapshots; items_per_second is
// the figure of merit for the batched queries (one item = one query).
//
// The committed BENCH_query.json baseline is this binary's
// --benchmark_format=json output from a Release build; the query-serve CI
// job re-runs the n:8 slice in smoke mode and soft-gates against it with
// tools/obs_compare. Counters worth watching in the obs export
// (TESS_OBS_EXPORT=<prefix>): serve.cache.{hit,miss,evict},
// serve.locate.{grid_fallback,cross_block}, serve.query.*.us.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "common.hpp"
#include "core/standalone.hpp"
#include "diy/blockio.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

using namespace tess;
using comm::Comm;
using comm::Runtime;
using core::TessOptions;
using diy::Decomposition;
using diy::Particle;
using geom::Vec3;
using serve::QueryService;
using serve::ServiceConfig;

namespace {

constexpr int kRanks = 8;  // 2 x 2 x 2 blocks
constexpr std::size_t kBatch = 2048;

std::string temp_dir() {
  const char* t = std::getenv("TMPDIR");
  return t != nullptr ? std::string(t) + "/" : std::string("/tmp/");
}

std::vector<Particle> jittered_lattice(int n) {
  util::Rng rng(4242);
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        ps.push_back({{x + 0.5 + rng.uniform(-0.3, 0.3),
                       y + 0.5 + rng.uniform(-0.3, 0.3),
                       z + 0.5 + rng.uniform(-0.3, 0.3)},
                      id++});
  return ps;
}

// Tessellate an n^3 periodic lattice onto kRanks blocks and write the
// blocked file; built once per n, reused by every benchmark in the run.
const std::string& snapshot_file(int n) {
  static std::mutex mu;
  static std::map<int, std::string> files;
  std::lock_guard<std::mutex> lock(mu);
  auto it = files.find(n);
  if (it != files.end()) return it->second;
  const auto path =
      temp_dir() + "tess_bench_query_" + std::to_string(n) + ".bin";
  Runtime::run(kRanks, [&](Comm& c) {
    const double L = static_cast<double>(n);
    Decomposition d({0, 0, 0}, {L, L, L}, Decomposition::factor(kRanks),
                    true);
    TessOptions opt;
    opt.ghost = 2.0;
    auto mesh = core::standalone_tessellate(
        c, d, c.rank() == 0 ? jittered_lattice(n) : std::vector<Particle>{},
        opt);
    diy::Buffer buf;
    mesh.serialize(buf);
    diy::write_blocks(c, path, buf);
  });
  return files.emplace(n, path).first->second;
}

std::vector<Vec3> query_points(std::size_t count, double domain) {
  util::Rng rng(99);
  std::vector<Vec3> ps(count);
  for (auto& p : ps)
    p = {rng.uniform(0.0, domain), rng.uniform(0.0, domain),
         rng.uniform(0.0, domain)};
  return ps;
}

}  // namespace

// Batched point location: the saturation axis. n is the lattice size
// (snapshot has n^3 cells over 8 blocks), threads the reader pool width.
static void BM_PointLocate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto& path = snapshot_file(n);
  ServiceConfig cfg;
  cfg.threads = static_cast<int>(state.range(1));
  QueryService svc(cfg);
  const auto points = query_points(kBatch, static_cast<double>(n));
  svc.point_locate(path, points);  // warm the cache and the block slots
  for (auto _ : state) {
    auto out = svc.point_locate(path, points);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.size()));
  state.counters["cells"] = static_cast<double>(n) * n * n;
}
BENCHMARK(BM_PointLocate)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{8, 14}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Batched void lookup: locate + union-find label per point, catalog built
// once per (snapshot, threshold).
static void BM_VoidLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto& path = snapshot_file(n);
  ServiceConfig cfg;
  cfg.threads = static_cast<int>(state.range(1));
  QueryService svc(cfg);
  const auto points = query_points(kBatch, static_cast<double>(n));
  const double thr = 1.0;  // ~median cell volume of a unit-spacing lattice
  svc.void_lookup(path, points, thr);
  for (auto _ : state) {
    auto out = svc.void_lookup(path, points, thr);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_VoidLookup)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{8, 14}, {1, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Axis-aligned region extraction: filter + re-weld of the central eighth
// of the domain.
static void BM_RegionExtract(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto& path = snapshot_file(n);
  QueryService svc;
  const double L = static_cast<double>(n);
  const diy::Bounds box{{0.25 * L, 0.25 * L, 0.25 * L},
                        {0.75 * L, 0.75 * L, 0.75 * L}};
  svc.extract_region(path, box);
  std::size_t cells = 0;
  for (auto _ : state) {
    auto mesh = svc.extract_region(path, box);
    cells = mesh.cells.size();
    benchmark::DoNotOptimize(mesh.vertices.data());
  }
  state.counters["region_cells"] = static_cast<double>(cells);
}
BENCHMARK(BM_RegionExtract)
    ->ArgNames({"n"})
    ->Arg(8)
    ->Arg(14)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Histogram slice over every resident cell (analysis reuse path).
static void BM_VolumeHistogram(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto& path = snapshot_file(n);
  QueryService svc;
  svc.volume_histogram(path, 0.0, 3.0, 64);
  for (auto _ : state) {
    auto hist = svc.volume_histogram(path, 0.0, 3.0, 64);
    benchmark::DoNotOptimize(hist.total());
  }
}
BENCHMARK(BM_VolumeHistogram)
    ->ArgNames({"n"})
    ->Arg(8)
    ->Arg(14)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Cache churn: two snapshots sharing a one-slot cache evict each other on
// every batch, so each iteration pays mmap open + lazy block loads — the
// cost eviction re-imposes on the next query.
static void BM_CacheChurn(benchmark::State& state) {
  const auto& path_a = snapshot_file(8);
  const auto& path_b = snapshot_file(14);
  ServiceConfig cfg;
  cfg.cache.max_snapshots = 1;
  QueryService svc(cfg);
  const auto pts_a = query_points(256, 8.0);
  const auto pts_b = query_points(256, 14.0);
  for (auto _ : state) {
    auto a = svc.point_locate(path_a, pts_a);
    auto b = svc.point_locate(path_b, pts_b);
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
  state.counters["evictions"] =
      static_cast<double>(svc.cache().stats().evictions);
}
BENCHMARK(BM_CacheChurn)->UseRealTime()->Unit(benchmark::kMillisecond);

// Custom main instead of BENCHMARK_MAIN(): with TESS_OBS_EXPORT=<prefix>
// in the environment the run also emits <prefix>.trace.json and
// <prefix>.summary.jsonl carrying the serve.* spans, counters, and
// latency histograms recorded by the query service.
int main(int argc, char** argv) {
  tess::bench::warn_if_debug_build();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("tess_build_type", tess::bench::build_type());
  tess::bench::obs_begin_from_env();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tess::bench::obs_export_from_env();
  return 0;
}
