// Tests for the intra-rank parallel cell-construction path and the
// allocation-free clipping kernel: ThreadPool/parallel_for semantics,
// ClipScratch-reuse equivalence with the allocating path, steady-state
// zero-allocation of the hot loop, and byte-identical tessellation output
// across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/serialize.hpp"
#include "geom/cell_builder.hpp"
#include "geom/voronoi_cell.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator: every operator-new in this binary bumps the
// counter, so a region of code can be checked for heap traffic.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::BlockMesh;
using tess::core::StagedCells;
using tess::core::TessOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::CellBuilder;
using tess::geom::ClipScratch;
using tess::geom::Vec3;
using tess::geom::VoronoiCell;
using tess::util::parallel_for;
using tess::util::Rng;
using tess::util::ThreadPool;

// ---------------------------------------------------------------------------
// ThreadPool / parallel_for
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  const int kChunks = 237;
  std::vector<int> hits(kChunks, 0);
  std::vector<int> workers(kChunks, -1);
  pool.run(kChunks, [&](int chunk, int worker) {
    ++hits[chunk];  // distinct slots: no two workers share a chunk
    workers[chunk] = worker;
  });
  for (int c = 0; c < kChunks; ++c) {
    EXPECT_EQ(hits[c], 1) << "chunk " << c;
    EXPECT_GE(workers[c], 0);
    EXPECT_LT(workers[c], pool.size());
  }
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(3);
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<long long> sum{0};
    parallel_for(pool, 1000, 7,
                 [&](std::size_t begin, std::size_t end, int, int) {
                   long long local = 0;
                   for (std::size_t i = begin; i < end; ++i)
                     local += static_cast<long long>(i);
                   sum.fetch_add(local, std::memory_order_relaxed);
                 });
    EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
  }
}

TEST(ThreadPool, SerialPoolStaysOnCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  const auto caller = std::this_thread::get_id();
  pool.run(16, [&](int, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, PropagatesExceptionAndSurvives) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run(32,
                        [](int chunk, int) {
                          if (chunk == 17) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool must remain usable after a failed run.
  std::atomic<int> count{0};
  pool.run(32, [&](int, int) { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ResolveZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

TEST(ParallelFor, ChunkBoundsCoverRangeOnce) {
  ThreadPool pool(2);
  const std::size_t n = 1003;
  std::vector<int> touched(n, 0);
  parallel_for(pool, n, 64, [&](std::size_t begin, std::size_t end, int, int) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) ++touched[i];
  });
  EXPECT_TRUE(std::all_of(touched.begin(), touched.end(),
                          [](int t) { return t == 1; }));
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, 64,
               [&](std::size_t, std::size_t, int, int) { called = true; });
  EXPECT_FALSE(called);
}

// ---------------------------------------------------------------------------
// ClipScratch reuse: build_into with a warm cell/scratch must match the
// fresh-allocation path exactly (volumes, areas, neighbor sets).
// ---------------------------------------------------------------------------

namespace {

struct CellSummary {
  double volume;
  double area;
  std::set<std::int64_t> neighbors;
};

CellSummary summarize(const VoronoiCell& cell) {
  CellSummary s{cell.volume(), cell.area(), {}};
  for (const auto& f : cell.faces())
    if (f.source >= 0) s.neighbors.insert(f.source);
  return s;
}

void expect_reuse_matches_fresh(const std::vector<Vec3>& pts, const Vec3& lo,
                                const Vec3& hi) {
  CellBuilder builder(pts, {}, lo, hi);
  // One long-lived cell/scratch pair swept over every site, exactly as a
  // worker thread does in a Tessellator::tessellate pass.
  VoronoiCell cell({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  ClipScratch scratch;
  for (int site = 0; site < static_cast<int>(pts.size()); ++site) {
    const VoronoiCell fresh = builder.build(site, lo, hi);
    builder.build_into(cell, scratch, site, lo, hi);
    EXPECT_EQ(cell.complete(), fresh.complete()) << "site " << site;
    if (!fresh.complete()) continue;
    const auto a = summarize(fresh);
    const auto b = summarize(cell);
    EXPECT_DOUBLE_EQ(b.volume, a.volume) << "site " << site;
    EXPECT_DOUBLE_EQ(b.area, a.area) << "site " << site;
    EXPECT_EQ(b.neighbors, a.neighbors) << "site " << site;
  }
}

}  // namespace

TEST(ClipScratchReuse, LatticeSites) {
  std::vector<Vec3> pts;
  for (int z = 0; z < 5; ++z)
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 5; ++x) pts.push_back({x + 0.5, y + 0.5, z + 0.5});
  expect_reuse_matches_fresh(pts, {0, 0, 0}, {5, 5, 5});
}

TEST(ClipScratchReuse, DegenerateCoplanarSites) {
  // All sites on one plane: bisector planes are parallel or degenerate,
  // stressing the cap-edge bookkeeping that replaced the hash maps.
  std::vector<Vec3> pts;
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      pts.push_back({0.5 + x * 0.25, 0.5 + y * 0.25, 0.7});
  expect_reuse_matches_fresh(pts, {0, 0, 0}, {2, 2, 2});
}

TEST(ClipScratchReuse, RandomSites) {
  Rng rng(1234);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0, 4)});
  expect_reuse_matches_fresh(pts, {0, 0, 0}, {4, 4, 4});
}

// ---------------------------------------------------------------------------
// Steady-state zero allocation: after one warm-up sweep, rebuilding the
// same cells with the same cell/scratch pair must not touch the heap.
// ---------------------------------------------------------------------------

TEST(ClipScratchSteadyState, SecondSweepAllocatesNothing) {
  std::vector<Vec3> pts;
  for (int z = 0; z < 6; ++z)
    for (int y = 0; y < 6; ++y)
      for (int x = 0; x < 6; ++x) pts.push_back({x + 0.5, y + 0.5, z + 0.5});
  const Vec3 lo{0, 0, 0}, hi{6, 6, 6};
  CellBuilder builder(pts, {}, lo, hi);

  VoronoiCell cell({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  ClipScratch scratch;
  const int n = static_cast<int>(pts.size());
  double warm_volume = 0.0;
  for (int site = 0; site < n; ++site) {
    builder.build_into(cell, scratch, site, lo, hi);
    if (cell.complete()) warm_volume += cell.volume();
  }

  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  double steady_volume = 0.0;
  for (int site = 0; site < n; ++site) {
    builder.build_into(cell, scratch, site, lo, hi);
    if (cell.complete()) steady_volume += cell.volume();
  }
  const auto after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state build_into sweep performed heap allocations";
  EXPECT_DOUBLE_EQ(steady_volume, warm_volume);
}

namespace {

// Builds every site of `pts` twice with one cell/scratch pair, finishing
// each cell five ways (as built, compact(), canonicalize(), and staging
// each complete cell as built, as a fixed ghost does, or after
// canonicalize(), as auto ghost does), and expects the second sweep to
// allocate nothing. The stage is cleared before each sweep and keeps its
// capacity, as a warm chunk shard would. Returns the builder's count of
// candidates the vertex-ball screen dropped.
std::uint64_t expect_warm_sweeps_allocation_free(const std::vector<Vec3>& pts,
                                                 const Vec3& lo,
                                                 const Vec3& hi) {
  const CellBuilder builder(pts, {}, lo, hi);
  const int n = static_cast<int>(pts.size());
  StagedCells stage;

  auto second_sweep_allocations = [&](auto&& finish) {
    VoronoiCell cell({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
    ClipScratch scratch;
    auto sweep = [&] {
      stage.cells.clear();
      stage.first_vertex.assign(1, 0);
      stage.vertices.clear();
      stage.face_offsets.assign(1, 0);
      stage.face_verts.clear();
      stage.face_neighbors.clear();
      double volume = 0.0;
      for (int site = 0; site < n; ++site) {
        builder.build_into(cell, scratch, site, lo, hi);
        finish(cell);
        if (cell.complete()) volume += cell.volume();
      }
      return volume;
    };
    const double warm_volume = sweep();
    const auto before = g_alloc_count.load(std::memory_order_relaxed);
    const double steady_volume = sweep();
    const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(steady_volume, warm_volume);
    return allocs;
  };

  EXPECT_EQ(second_sweep_allocations([](VoronoiCell&) {}), 0u)
      << "build_into";
  EXPECT_EQ(second_sweep_allocations([](VoronoiCell& c) { c.compact(); }), 0u)
      << "build_into + compact()";
  EXPECT_EQ(
      second_sweep_allocations([](VoronoiCell& c) { c.canonicalize(); }), 0u)
      << "build_into + canonicalize()";
  EXPECT_EQ(second_sweep_allocations([&](VoronoiCell& c) {
              if (c.complete()) stage.add_cell(0, c);
            }),
            0u)
      << "build_into + staging as built";
  EXPECT_GT(stage.cells.size(), 0u);
  EXPECT_EQ(second_sweep_allocations([&](VoronoiCell& c) {
              c.canonicalize();
              if (c.complete()) stage.add_cell(0, c);
            }),
            0u)
      << "build_into + canonicalize() + staging";
  return builder.backend_stats().cuts_screened;
}

}  // namespace

// The same on a random cloud, where cells differ in vertex and face counts
// from site to site, and with each cell then tidied the way the
// tessellator does: a buffer whose role rotated between cells would regrow
// in a later sweep. And on a two-blob cloud, where the cell builder's
// vertex-ball screen fires and gathers its candidates into its own
// buffers.
TEST(ClipScratchSteadyState, RandomCloudWarmCellsFinishWithoutAllocating) {
  Rng rng(400);
  std::vector<Vec3> uniform;
  for (int i = 0; i < 400; ++i)
    uniform.push_back(
        {rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6)});
  // The two-blob cloud of CellBuilder.MatchesBruteForce.
  Rng blob_rng(4242);
  std::vector<Vec3> blobs;
  for (int i = 0; i < 200; ++i)
    blobs.push_back({0.2 + 0.02 * blob_rng.normal(),
                     0.2 + 0.02 * blob_rng.normal(),
                     0.2 + 0.02 * blob_rng.normal()});
  for (int i = 0; i < 200; ++i)
    blobs.push_back({0.8 + 0.02 * blob_rng.normal(),
                     0.7 + 0.02 * blob_rng.normal(),
                     0.6 + 0.02 * blob_rng.normal()});
  for (int i = 0; i < 100; ++i)
    blobs.push_back(
        {blob_rng.uniform(), blob_rng.uniform(), blob_rng.uniform()});
  for (auto& p : blobs)
    for (std::size_t a = 0; a < 3; ++a) p[a] = std::clamp(p[a], 0.001, 0.999);
  expect_warm_sweeps_allocation_free(uniform, {0, 0, 0}, {6, 6, 6});
  {
    SCOPED_TRACE("two-blob");
    EXPECT_GT(expect_warm_sweeps_allocation_free(blobs, {0, 0, 0}, {1, 1, 1}),
              0u);
  }
}

// ---------------------------------------------------------------------------
// Determinism: the tessellation output must be byte-identical for any
// thread count (fixed chunk grain + ordered shard merge).
// ---------------------------------------------------------------------------

namespace {

// Clustered distribution: two dense blobs plus a uniform background, so
// per-cell cost is very uneven and chunks finish out of order.
std::vector<Particle> clustered_particles(int n, double domain) {
  Rng rng(77);
  std::vector<Particle> ps;
  const Vec3 centers[2] = {{0.3 * domain, 0.3 * domain, 0.4 * domain},
                           {0.7 * domain, 0.6 * domain, 0.6 * domain}};
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 5 < 2) {  // 40% in cluster 0, 20% in cluster 1, 40% background
      const Vec3& c = centers[i % 5 == 0 ? 0 : 1];
      p = {c.x + rng.normal(0.0, 0.05 * domain),
           c.y + rng.normal(0.0, 0.05 * domain),
           c.z + rng.normal(0.0, 0.05 * domain)};
      p.x = std::clamp(p.x, 0.0, domain * (1.0 - 1e-12));
      p.y = std::clamp(p.y, 0.0, domain * (1.0 - 1e-12));
      p.z = std::clamp(p.z, 0.0, domain * (1.0 - 1e-12));
    } else {
      p = {rng.uniform(0, domain), rng.uniform(0, domain),
           rng.uniform(0, domain)};
    }
    ps.push_back({p, i});
  }
  return ps;
}

// Serialized per-rank meshes for one (rank count, thread count) run.
std::vector<std::vector<std::byte>> tessellate_bytes(int nranks, int threads,
                                                     int nparticles) {
  const double domain = 8.0;
  std::vector<std::vector<std::byte>> bytes(nranks);
  Runtime::run(nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(nranks), true);
    TessOptions opt;
    opt.ghost = 2.0;
    opt.threads = threads;
    auto mesh = tess::core::standalone_tessellate(
        c, d,
        c.rank() == 0 ? clustered_particles(nparticles, domain)
                      : std::vector<Particle>{},
        opt);
    tess::diy::Buffer buf;
    mesh.serialize(buf);
    bytes[c.rank()] = buf.data();
  });
  return bytes;
}

}  // namespace

TEST(ParallelTessellation, ByteIdenticalAcrossThreadCounts) {
  const int kParticles = 2000;
  const auto serial = tessellate_bytes(2, 1, kParticles);
  ASSERT_FALSE(serial[0].empty());
  ASSERT_FALSE(serial[1].empty());
  for (int threads : {2, 4}) {
    const auto threaded = tessellate_bytes(2, threads, kParticles);
    for (int rank = 0; rank < 2; ++rank)
      EXPECT_EQ(threaded[rank], serial[rank])
          << "threads=" << threads << " rank=" << rank;
  }
}

TEST(ParallelTessellation, HardwareConcurrencyKnob) {
  // threads = 0 resolves to hardware concurrency and must still agree.
  const int kParticles = 500;
  const auto serial = tessellate_bytes(1, 1, kParticles);
  const auto automatic = tessellate_bytes(1, 0, kParticles);
  EXPECT_EQ(automatic[0], serial[0]);
}

// ---------------------------------------------------------------------------
// Linear assembly: merging N one-cell shards, staged or welded, grows every
// mesh array geometrically, so the merge allocates O(log N) times in total
// — never once per shard.
// ---------------------------------------------------------------------------

TEST(ParallelTessellation, OneCellShardMergeAllocatesLogarithmically) {
  Rng rng(99);
  std::vector<Vec3> pts;
  for (int i = 0; i < 1500; ++i)
    pts.push_back({rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)});
  const Vec3 lo{0, 0, 0}, hi{8, 8, 8};
  CellBuilder builder(pts, {}, lo, hi);
  std::vector<StagedCells> staged;
  std::vector<BlockMesh> welded;
  for (int site = 0; site < static_cast<int>(pts.size()); ++site) {
    auto cell = builder.build(site, lo, hi);
    StagedCells stage;
    stage.add_cell(site, cell);
    BlockMesh shard;
    shard.append_cell(stage, 0);
    staged.push_back(std::move(stage));
    welded.push_back(std::move(shard));
  }

  // Each growing array reallocates about log2(final size) times: the cell
  // and face arrays, the vertices and their weld keys (one term each), the
  // weld table, which holds at most 4x the vertex count, and the remap,
  // which grows to the largest shard's vertex count.
  auto growths = [](std::size_t n) {
    return static_cast<std::uint64_t>(std::bit_width(n)) + 1;
  };
  auto bound = [&](const BlockMesh& m) {
    return growths(m.cells.size()) + growths(m.vertices.size()) +
           growths(m.vertices.size()) + growths(m.face_offsets.size()) +
           growths(m.face_verts.size()) + growths(m.face_neighbors.size()) +
           growths(4 * m.vertices.size()) + growths(128);
  };

  // Staged shards, welded cell by cell as the tessellator assembles a block.
  BlockMesh assembled;
  auto before = g_alloc_count.load(std::memory_order_relaxed);
  for (const auto& stage : staged) assembled.append_cell(stage, 0);
  auto allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, bound(assembled))
      << "assembling " << staged.size() << " one-cell staged shards allocated "
      << allocs << " times";
  EXPECT_EQ(assembled.cells.size(), staged.size());

  // Welded one-cell meshes, re-welded through one reused remap.
  BlockMesh merged;
  std::vector<std::uint32_t> remap;
  before = g_alloc_count.load(std::memory_order_relaxed);
  for (const auto& shard : welded) {
    remap.assign(shard.vertices.size(), BlockMesh::kUnwelded);
    merged.append_cell(shard, 0, remap);
  }
  allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, bound(merged))
      << "merging " << welded.size() << " one-cell meshes allocated " << allocs
      << " times";
  EXPECT_EQ(merged.cells.size(), welded.size());
}
