// Tests for the mesh query service (DESIGN.md §4.12): snapshot lazy
// loading, point location vs brute force, region extraction, histogram
// parity with src/analysis, void lookups, snapshot-cache semantics, and —
// under TSan via the Serve* name prefix — eviction racing live readers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "analysis/density.hpp"
#include "analysis/reader.hpp"
#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "diy/blockio.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::BlockMesh;
using tess::core::TessOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::serve::CacheConfig;
using tess::serve::PointLocation;
using tess::serve::QueryService;
using tess::serve::ServiceConfig;
using tess::serve::Snapshot;
using tess::serve::SnapshotCache;

namespace {

std::vector<Particle> jittered_lattice(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jit(-0.3, 0.3);
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        ps.push_back({{x + 0.5 + jit(rng), y + 0.5 + jit(rng),
                       z + 0.5 + jit(rng)},
                      id++});
  return ps;
}

// Tessellate an n^3 jittered lattice on nranks blocks and write the blocked
// file. Files are built once per process and reused across tests.
std::string write_snapshot_file(const std::string& tag, int nranks,
                                std::array<int, 3> dims, int n,
                                bool periodic) {
  // PID-qualified: gtest_discover_tests runs each case as its own process,
  // so concurrent ctest workers must not share scratch files.
  const auto path = ::testing::TempDir() + "tess_serve_" + tag + "_" +
                    std::to_string(::getpid()) + ".bin";
  static std::mutex mu;
  static std::vector<std::string> built;
  std::lock_guard<std::mutex> lock(mu);
  if (std::find(built.begin(), built.end(), path) != built.end()) return path;
  Runtime::run(nranks, [&](Comm& c) {
    const double L = static_cast<double>(n);
    Decomposition d({0, 0, 0}, {L, L, L}, dims, periodic);
    TessOptions opt;
    opt.ghost = 2.0;
    auto particles = c.rank() == 0 ? jittered_lattice(n, 1234u)
                                   : std::vector<Particle>{};
    auto mesh = tess::core::standalone_tessellate(c, d, std::move(particles),
                                                  opt);
    tess::diy::Buffer buf;
    mesh.serialize(buf);
    tess::diy::write_blocks(c, path, buf);
  });
  built.push_back(path);
  return path;
}

std::string serial_file() {
  return write_snapshot_file("serial", 1, {1, 1, 1}, 6, false);
}
std::string blocked_file() {
  return write_snapshot_file("blocked", 8, {2, 2, 2}, 8, false);
}
std::string periodic_file() {
  return write_snapshot_file("periodic", 8, {2, 2, 2}, 8, true);
}

// Blocked file from a mass-weighted k-d decomposition of a clustered cloud
// — a tiling but NOT a tensor grid, so Snapshot's grid reconstruction must
// reject it and locate must route via the stored block extents.
std::string kd_file() {
  const auto path = ::testing::TempDir() + "tess_serve_kd_" +
                    std::to_string(::getpid()) + ".bin";
  static std::mutex mu;
  static bool built = false;
  std::lock_guard<std::mutex> lock(mu);
  if (built) return path;
  constexpr int kRanks = 4;
  const double L = 8.0;
  // Clustered: half the points in a tight blob, half background, so the
  // k-d leaves have genuinely different sizes.
  std::mt19937 rng(555);
  std::normal_distribution<double> blob(0.0, 0.06 * L);
  std::uniform_real_distribution<double> uni(0.0, L * (1.0 - 1e-12));
  std::vector<Particle> cloud;
  for (int i = 0; i < 600; ++i) {
    Vec3 p;
    if (i % 2 == 0)
      p = {std::clamp(0.3 * L + blob(rng), 0.0, L * (1.0 - 1e-12)),
           std::clamp(0.6 * L + blob(rng), 0.0, L * (1.0 - 1e-12)),
           std::clamp(0.4 * L + blob(rng), 0.0, L * (1.0 - 1e-12))};
    else
      p = {uni(rng), uni(rng), uni(rng)};
    cloud.push_back({p, i});
  }
  Runtime::run(kRanks, [&](Comm& c) {
    std::vector<Vec3> pts;
    for (const auto& p : cloud) pts.push_back(p.pos);
    const auto d =
        Decomposition::kd({0, 0, 0}, {L, L, L}, false, kRanks, pts);
    TessOptions opt;
    opt.ghost = 1.0;
    opt.auto_ghost = true;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? cloud : std::vector<Particle>{}, opt);
    tess::diy::Buffer buf;
    mesh.serialize(buf);
    tess::diy::write_blocks(c, path, buf);
  });
  built = true;
  return path;
}

// Nearest kept site over every block of the file — the ground truth locate
// must reproduce. Same embedded (unwrapped) metric locate uses.
struct BruteSite {
  std::int64_t site_id = -1;
  double d2 = std::numeric_limits<double>::infinity();
};
BruteSite brute_nearest(const std::vector<BlockMesh>& blocks, const Vec3& p) {
  BruteSite best;
  for (const auto& b : blocks)
    for (const auto& c : b.cells) {
      const double d2 = tess::geom::dist2(p, c.site);
      if (d2 < best.d2) {
        best.d2 = d2;
        best.site_id = c.site_id;
      }
    }
  return best;
}

std::vector<Vec3> random_points(std::size_t count, double lo, double hi,
                                unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(lo, hi);
  std::vector<Vec3> ps(count);
  for (auto& p : ps) p = {u(rng), u(rng), u(rng)};
  return ps;
}

void expect_same_locations(const std::vector<PointLocation>& a,
                           const std::vector<PointLocation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block, b[i].block) << i;
    EXPECT_EQ(a[i].site_id, b[i].site_id) << i;
    EXPECT_EQ(a[i].cell, b[i].cell) << i;
    EXPECT_EQ(a[i].site_dist2, b[i].site_dist2) << i;  // bitwise
  }
}

}  // namespace

TEST(ServeSnapshot, OpensLazily) {
  Snapshot snap(blocked_file());
  EXPECT_EQ(snap.num_blocks(), 8);
  EXPECT_EQ(snap.blocks_loaded(), 0);  // open touches only bounds
  EXPECT_EQ(snap.resident_bytes(), 0u);
  for (int b = 0; b < snap.num_blocks(); ++b) {
    const auto& bb = snap.block_bounds(b);
    EXPECT_LT(bb.min.x, bb.max.x);
    EXPECT_GE(bb.min.x, 0.0);
    EXPECT_LE(bb.max.x, 8.0);
  }
  const auto& mesh = snap.block(3);
  EXPECT_GT(mesh.cells.size(), 0u);
  EXPECT_EQ(snap.blocks_loaded(), 1);
  EXPECT_GT(snap.resident_bytes(), 0u);
  EXPECT_GT(snap.file_bytes(), snap.resident_bytes());
}

TEST(ServeSnapshot, LocateMatchesBruteForceSerial) {
  Snapshot snap(serial_file());
  const auto blocks = tess::analysis::TessReader(serial_file()).read_all();
  for (const auto& p : random_points(200, 0.0, 6.0, 99u)) {
    const auto loc = snap.locate(p);
    const auto ref = brute_nearest(blocks, p);
    ASSERT_TRUE(loc.found());
    EXPECT_EQ(loc.site_id, ref.site_id) << "point (" << p.x << ", " << p.y
                                        << ", " << p.z << ")";
    EXPECT_NEAR(loc.site_dist2, ref.d2, 1e-12);
  }
}

TEST(ServeSnapshot, LocateMatchesBruteForceAcrossBlocks) {
  Snapshot snap(blocked_file());
  const auto blocks = tess::analysis::TessReader(blocked_file()).read_all();
  for (const auto& p : random_points(200, 0.0, 8.0, 7u)) {
    const auto loc = snap.locate(p);
    const auto ref = brute_nearest(blocks, p);
    ASSERT_TRUE(loc.found());
    EXPECT_EQ(loc.site_id, ref.site_id) << "point (" << p.x << ", " << p.y
                                        << ", " << p.z << ")";
    EXPECT_NEAR(loc.site_dist2, ref.d2, 1e-12);
  }
}

// Regression: locate on snapshots whose blocks come from a k-d (non-grid)
// decomposition. The old router assumed any blocked file could be
// reconstructed as a uniform tensor grid; k-d leaves fail that check and
// must fall back to containment routing over the stored block extents.
TEST(ServeSnapshot, LocateMatchesBruteForceOnKdFile) {
  Snapshot snap(kd_file());
  EXPECT_EQ(snap.num_blocks(), 4);
  const auto blocks = tess::analysis::TessReader(kd_file()).read_all();
  for (const auto& p : random_points(200, 0.0, 8.0, 31u)) {
    const auto loc = snap.locate(p);
    const auto ref = brute_nearest(blocks, p);
    ASSERT_TRUE(loc.found());
    EXPECT_EQ(loc.site_id, ref.site_id) << "point (" << p.x << ", " << p.y
                                        << ", " << p.z << ")";
    EXPECT_NEAR(loc.site_dist2, ref.d2, 1e-12);
  }
  // The k-d leaves are a tiling with unequal extents — assert the file
  // really is non-grid so this test keeps exercising the fallback router.
  double vol0 = -1.0;
  bool uniform = true;
  for (int b = 0; b < snap.num_blocks(); ++b) {
    const auto& bb = snap.block_bounds(b);
    const double vol = (bb.max.x - bb.min.x) * (bb.max.y - bb.min.y) *
                       (bb.max.z - bb.min.z);
    if (vol0 < 0.0)
      vol0 = vol;
    else if (std::abs(vol - vol0) > 1e-9 * vol0)
      uniform = false;
  }
  EXPECT_FALSE(uniform) << "kd file degenerated into a uniform grid";
}

TEST(ServeSnapshot, LocatePeriodicInterior) {
  // On periodic files locate measures embedded (unwrapped) distance, so
  // only interior points — beyond a cell width of the boundary, where no
  // wrapped image can be the nearest site — have brute-force semantics.
  Snapshot snap(periodic_file());
  const auto blocks = tess::analysis::TessReader(periodic_file()).read_all();
  for (const auto& p : random_points(100, 1.5, 6.5, 21u)) {
    const auto loc = snap.locate(p);
    const auto ref = brute_nearest(blocks, p);
    ASSERT_TRUE(loc.found());
    EXPECT_EQ(loc.site_id, ref.site_id);
  }
}

TEST(ServeSnapshot, LocateReportsWalkAndSeedsEveryBlock) {
  Snapshot snap(blocked_file());
  // A point deep inside block 0's interior must be owned by block 0.
  const auto loc = snap.locate({1.0, 1.0, 1.0});
  ASSERT_TRUE(loc.found());
  EXPECT_EQ(loc.block, 0);
  // Octant centers route into their own block: deep in the interior the
  // nearest site always lives in the block that contains the point.
  for (int b = 0; b < 8; ++b) {
    const Vec3 p{(b & 4) ? 6.0 : 2.0, (b & 2) ? 6.0 : 2.0,
                 (b & 1) ? 6.0 : 2.0};
    const auto l = snap.locate(p);
    ASSERT_TRUE(l.found());
    EXPECT_TRUE(snap.block_bounds(l.block).contains(p));
  }
}

TEST(ServeSnapshot, ExtractRegionMatchesBruteForce) {
  Snapshot snap(blocked_file());
  const auto blocks = tess::analysis::TessReader(blocked_file()).read_all();
  tess::diy::Bounds box{{1.5, 2.0, 0.5}, {6.5, 7.0, 5.5}};
  const auto region = snap.extract_region(box);

  std::vector<std::int64_t> expect_ids;
  double expect_volume = 0.0;
  for (const auto& b : blocks)
    for (const auto& c : b.cells)
      if (box.contains(c.site)) {
        expect_ids.push_back(c.site_id);
        expect_volume += c.volume;
      }
  std::vector<std::int64_t> got_ids;
  double got_volume = 0.0;
  for (const auto& c : region.cells) {
    got_ids.push_back(c.site_id);
    got_volume += c.volume;
  }
  std::sort(expect_ids.begin(), expect_ids.end());
  std::sort(got_ids.begin(), got_ids.end());
  EXPECT_EQ(got_ids, expect_ids);
  EXPECT_NEAR(got_volume, expect_volume, 1e-9);
  EXPECT_FALSE(region.cells.empty());
  EXPECT_EQ(region.bounds.min.x, box.min.x);
  EXPECT_EQ(region.bounds.max.z, box.max.z);
}

TEST(ServeSnapshot, HistogramParityWithAnalysis) {
  Snapshot snap(blocked_file());
  const auto blocks = tess::analysis::TessReader(blocked_file()).read_all();

  const auto got = snap.volume_histogram(0.0, 3.0, 24);
  const auto ref = tess::analysis::volume_histogram(blocks, 0.0, 3.0, 24);
  ASSERT_EQ(got.bins(), ref.bins());
  EXPECT_EQ(got.counts(), ref.counts());
  EXPECT_EQ(got.underflow(), ref.underflow());
  EXPECT_EQ(got.overflow(), ref.overflow());

  const auto gd = snap.density_contrast_histogram(16);
  const auto rd = tess::analysis::density_contrast_histogram(blocks, 16);
  EXPECT_EQ(gd.counts(), rd.counts());
  EXPECT_DOUBLE_EQ(gd.lo(), rd.lo());
  EXPECT_DOUBLE_EQ(gd.hi(), rd.hi());
}

TEST(ServeSnapshot, VoidLookupConsistent) {
  Snapshot snap(blocked_file());
  // Median cell volume: roughly half the cells survive the threshold.
  auto volumes = tess::analysis::cell_volumes(snap.blocks());
  ASSERT_FALSE(volumes.empty());
  std::nth_element(volumes.begin(), volumes.begin() + volumes.size() / 2,
                   volumes.end());
  const double thr = volumes[volumes.size() / 2];

  const auto catalog = snap.voids(thr);
  EXPECT_GT(catalog->components->num_components(), 0u);
  EXPECT_EQ(snap.voids(thr).get(), catalog.get());  // cached per threshold

  for (const auto& p : random_points(50, 0.5, 7.5, 5u)) {
    const auto loc = snap.locate(p);
    ASSERT_TRUE(loc.found());
    const auto label = snap.void_of(p, thr);
    const auto& cell = snap.block(loc.block).cells[loc.cell];
    if (cell.volume >= thr) {
      EXPECT_EQ(label, catalog->components->label_of(loc.site_id));
      EXPECT_GE(label, 0);
    } else {
      EXPECT_EQ(label, -1);
    }
  }
}

TEST(ServeCache, HitMissEvictStats) {
  CacheConfig cfg;
  cfg.max_snapshots = 1;
  SnapshotCache cache(cfg);

  const auto a = cache.acquire(serial_file());
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.acquire(serial_file());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.resident(), 1u);

  // Second path evicts the first (cap 1) but `a` stays valid: eviction
  // only drops the cache's reference.
  const auto b = cache.acquire(blocked_file());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_TRUE(a->locate({3.0, 3.0, 3.0}).found());

  // Re-acquiring the evicted path is a fresh open (new instance).
  const auto a2 = cache.acquire(serial_file());
  EXPECT_NE(a2.get(), a.get());
  EXPECT_EQ(cache.stats().misses, 3u);

  cache.evict("no/such/entry");  // no-op
  cache.clear();
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_TRUE(b->locate({4.0, 4.0, 4.0}).found());
}

TEST(ServeCache, ByteCapEvicts) {
  Snapshot probe(serial_file());
  CacheConfig cfg;
  cfg.max_snapshots = 8;
  cfg.max_bytes = probe.file_bytes() + 1;  // room for one snapshot only
  SnapshotCache cache(cfg);
  cache.acquire(serial_file());
  cache.acquire(blocked_file());
  cache.acquire(serial_file());  // byte cap forces the first one out
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.resident(), 2u);
}

TEST(ServeCache, FailedOpenLeavesNoEntry) {
  SnapshotCache cache;
  EXPECT_THROW(cache.acquire("definitely/missing.bin"), std::runtime_error);
  EXPECT_EQ(cache.resident(), 0u);
  // A later acquire of a valid path still works.
  EXPECT_NO_THROW(cache.acquire(serial_file()));
}

TEST(ServeService, BatchResultsIndependentOfThreadCount) {
  const auto points = random_points(300, 0.0, 8.0, 42u);
  ServiceConfig one;
  one.threads = 1;
  ServiceConfig many;
  many.threads = 8;
  many.batch_grain = 16;
  QueryService s1(one), s8(many);
  EXPECT_EQ(s8.threads(), 8);
  const auto r1 = s1.point_locate(blocked_file(), points);
  const auto r8 = s8.point_locate(blocked_file(), points);
  expect_same_locations(r1, r8);
}

TEST(ServeService, VoidLookupBatch) {
  QueryService svc;
  const auto snap = svc.snapshot(blocked_file());
  auto volumes = tess::analysis::cell_volumes(snap->blocks());
  std::nth_element(volumes.begin(), volumes.begin() + volumes.size() / 2,
                   volumes.end());
  const double thr = volumes[volumes.size() / 2];

  const auto points = random_points(60, 0.5, 7.5, 17u);
  const auto labels = svc.void_lookup(blocked_file(), points, thr);
  ASSERT_EQ(labels.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(labels[i], snap->void_of(points[i], thr)) << i;
}

TEST(ServeService, RegionAndHistogramsThroughCache) {
  QueryService svc;
  tess::diy::Bounds box{{2.0, 2.0, 2.0}, {6.0, 6.0, 6.0}};
  const auto region = svc.extract_region(blocked_file(), box);
  EXPECT_FALSE(region.cells.empty());
  const auto vh = svc.volume_histogram(blocked_file(), 0.0, 3.0, 12);
  EXPECT_GT(vh.total(), 0u);
  const auto dh = svc.density_contrast_histogram(blocked_file(), 12);
  EXPECT_EQ(dh.bins(), 12u);
  // All three queries hit the same cached snapshot after the first open.
  EXPECT_EQ(svc.cache().stats().misses, 1u);
  EXPECT_EQ(svc.cache().stats().hits, 2u);
}

// The satellite concurrency test: many reader threads querying through the
// service while another thread evicts and clears the cache, forcing
// snapshot reload mid-flight. Every batch must be byte-identical to the
// cold single-threaded reference. Runs under TSan in CI (Serve* regex).
TEST(ServeCacheConcurrency, EvictionRacesReaders) {
  const auto path_a = serial_file();
  const auto path_b = blocked_file();
  const auto pts_a = random_points(64, 0.0, 6.0, 11u);
  const auto pts_b = random_points(64, 0.0, 8.0, 12u);

  // Cold single-threaded reference, computed on throwaway snapshots.
  std::vector<PointLocation> ref_a(pts_a.size()), ref_b(pts_b.size());
  {
    Snapshot sa(path_a), sb(path_b);
    for (std::size_t i = 0; i < pts_a.size(); ++i) ref_a[i] = sa.locate(pts_a[i]);
    for (std::size_t i = 0; i < pts_b.size(); ++i) ref_b[i] = sb.locate(pts_b[i]);
  }

  ServiceConfig cfg;
  cfg.threads = 4;
  cfg.batch_grain = 8;
  cfg.cache.max_snapshots = 1;  // A and B evict each other constantly
  QueryService svc(cfg);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 6; ++iter) {
        const bool use_a = (t + iter) % 2 == 0;
        const auto got = svc.point_locate(use_a ? path_a : path_b,
                                          use_a ? pts_a : pts_b);
        const auto& ref = use_a ? ref_a : ref_b;
        for (std::size_t i = 0; i < ref.size(); ++i)
          if (got[i].site_id != ref[i].site_id ||
              got[i].site_dist2 != ref[i].site_dist2 ||
              got[i].block != ref[i].block || got[i].cell != ref[i].cell)
            failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      svc.cache().evict(path_a);
      svc.cache().clear();
      std::this_thread::yield();
    }
  });
  for (auto& r : readers) r.join();
  stop.store(true, std::memory_order_relaxed);
  evictor.join();

  EXPECT_EQ(failures.load(), 0);
  // The cache took real churn: reloads outnumber the two cold opens.
  EXPECT_GT(svc.cache().stats().misses, 2u);
}

// Concurrent block loads within one snapshot: all threads hammer the same
// lazily-loaded blocks; once_flag must hand every thread the same mesh.
TEST(ServeCacheConcurrency, ConcurrentLazyLoads) {
  // Periodic file: every one of the 8^3 cells is complete and kept, so the
  // expected cell count is exact.
  Snapshot snap(periodic_file());
  std::vector<std::thread> threads;
  std::atomic<std::size_t> total{0};
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      std::size_t cells = 0;
      for (int b = 0; b < snap.num_blocks(); ++b)
        cells += snap.block(b).cells.size();
      total.fetch_add(cells, std::memory_order_relaxed);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(snap.blocks_loaded(), snap.num_blocks());
  const std::size_t per_pass = total.load() / 8;
  EXPECT_EQ(total.load(), per_pass * 8);  // every thread saw the same counts
  EXPECT_EQ(per_pass, 512u);              // 8^3 sites, all kept
}

// ---------------------------------------------------------------------------
// Corrupt files are untrusted input: a bad index is rejected with a
// diagnostic naming the block, and no byte mutation crashes a query. The
// suite name keeps these out of the TSan slice (Serve*); the sanitizer job
// runs them under ASan+UBSan with the rest of the suite.
// ---------------------------------------------------------------------------

namespace {

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string corrupt_path(const std::string& tag) {
  return ::testing::TempDir() + "tess_corrupt_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

/// File offsets of block b's five vector-length words (vertices, cells,
/// face_offsets, face_verts, face_neighbors), in wire order.
std::array<std::uint64_t, 5> length_word_offsets(const std::string& path,
                                                 int b) {
  const tess::diy::BlockFileReader reader(path);
  auto buf = reader.read_block(b);
  const auto m = BlockMesh::deserialize(buf);
  std::array<std::uint64_t, 5> at{};
  at[0] = reader.block_offset(b) + 2 * sizeof(Vec3);
  at[1] = at[0] + 8 + m.vertices.size() * sizeof(Vec3);
  at[2] = at[1] + 8 + m.cells.size() * sizeof(tess::core::CellRecord);
  at[3] = at[2] + 8 + m.face_offsets.size() * sizeof(std::uint32_t);
  at[4] = at[3] + 8 + m.face_verts.size() * sizeof(std::uint32_t);
  return at;
}

/// Opens `path` and runs point location, a region extraction and a volume
/// histogram. True when every query succeeded, false when one threw a
/// std::exception; anything else (a crash) fails the test run.
bool queries_succeed(const std::string& path, double extent) {
  try {
    Snapshot snap(path);
    for (const auto& p : random_points(12, 0.0, extent, 99u))
      (void)snap.locate(p);
    const double lo = 0.2 * extent, hi = 0.8 * extent;
    (void)snap.extract_region({{lo, lo, lo}, {hi, hi, hi}});
    (void)snap.volume_histogram(0.0, 2.0, 16);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

TEST(SnapshotCorruption, OutOfRangeFaceVertexThrows) {
  const auto good = serial_file();
  auto bytes = read_bytes(good);
  const auto at = length_word_offsets(good, 0)[3] + 8;  // face_verts[0]
  const std::uint32_t bad = 0x7fffffff;
  std::memcpy(bytes.data() + at, &bad, sizeof(bad));
  const auto path = corrupt_path("face_vert");
  write_bytes(path, bytes);

  Snapshot snap(path);  // the footer is intact, so the file opens
  try {
    (void)snap.block(0);
    FAIL() << "an out-of-range face vertex was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("block 0"), std::string::npos) << what;
    EXPECT_NE(what.find("face_verts[0]"), std::string::npos) << what;
  }
  EXPECT_THROW((void)snap.extract_region({{0, 0, 0}, {6, 6, 6}}),
               std::runtime_error);
  EXPECT_THROW((void)tess::analysis::TessReader(path).read_all(),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(SnapshotCorruption, ByteMutationSweepNeverCrashes) {
  // Periodic 4^3 jittered lattice on two blocks (~45 KB).
  const double extent = 4.0;
  const auto good = write_snapshot_file("sweep", 2, {2, 1, 1}, 4, true);
  const auto bytes = read_bytes(good);
  ASSERT_TRUE(queries_succeed(good, extent));
  const auto path = corrupt_path("sweep");
  const std::size_t n = bytes.size();
  std::size_t cases = 0, rejected = 0;
  auto check = [&](const std::vector<char>& mutated) {
    write_bytes(path, mutated);
    ++cases;
    if (!queries_succeed(path, extent)) ++rejected;
  };

  // Truncations: every 61st length, then every length across the footer.
  for (std::size_t len = 0; len < n; len += (len + 128 < n ? 61 : 1))
    check(std::vector<char>(bytes.begin(),
                            bytes.begin() + static_cast<std::ptrdiff_t>(len)));

  // Single-bit flips at a fixed stride, cycling through the bit positions.
  for (std::size_t i = 0; i < n; i += 37) {
    auto m = bytes;
    m[i] = static_cast<char>(m[i] ^ (1 << (i % 8)));
    check(m);
  }

  // Footer words (block count, per-block offset and size, footer offset)
  // and each block's vector lengths, set to boundary values.
  auto set_word = [&](std::uint64_t at, std::uint64_t value) {
    auto m = bytes;
    std::memcpy(m.data() + at, &value, sizeof(value));
    check(m);
  };
  std::uint64_t footer_off = 0;
  std::memcpy(&footer_off, bytes.data() + n - 16, sizeof(footer_off));
  std::vector<std::uint64_t> words;
  for (std::uint64_t at = footer_off; at + 8 < n; at += 8) words.push_back(at);
  for (int b = 0; b < 2; ++b)
    for (const auto at : length_word_offsets(good, b)) words.push_back(at);
  for (const auto at : words) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    const std::uint64_t one = 1;
    const std::uint64_t values[] = {
        0, 1, v - 1, v + 1, v + 8, v ^ (one << 40), n, n - 1,
        (one << 62) + 1, std::numeric_limits<std::uint64_t>::max()};
    for (const std::uint64_t value : values) set_word(at, value);
  }

  std::remove(path.c_str());
  EXPECT_GT(cases, 2000u);
  // Every truncation breaks the trailer, so at least those are rejected.
  EXPECT_GT(rejected, n / 61);
}
