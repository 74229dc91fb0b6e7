// Tests for the mesh query service (DESIGN.md §4.12): snapshot lazy
// loading, point location vs brute force and vs the site-map walk it
// replaced, region extraction, histogram parity with src/analysis, void
// lookups, locate telemetry totals, snapshot-cache semantics, and — under
// TSan via the Serve* name prefix — eviction racing live readers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/components.hpp"
#include "analysis/density.hpp"
#include "analysis/reader.hpp"
#include "analysis/threshold.hpp"
#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "diy/blockio.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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
// — a tiling but NOT a tensor grid (the locate oracle's grid
// reconstruction rejects it and scans the stored block extents).
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

// Every block of `path`, read with std::ifstream, located through the
// footer parsed here and deserialized from memory: a reference that never
// comes from a mapping.
std::vector<BlockMesh> stream_blocks(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> file{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
  const auto word = [&](std::uint64_t at) {
    std::uint64_t w = 0;
    std::memcpy(&w, file.data() + at, sizeof(w));
    return w;
  };
  const std::uint64_t footer = word(file.size() - 16);
  std::vector<BlockMesh> blocks;
  for (std::uint64_t b = 0; b < word(footer); ++b) {
    const auto offset = word(footer + 8 + 16 * b);
    const auto size = word(footer + 16 + 16 * b);
    blocks.push_back(BlockMesh::deserialize(
        {reinterpret_cast<const std::byte*>(file.data()) + offset, size}));
  }
  return blocks;
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

// Locate on snapshots whose blocks come from a k-d (non-grid)
// decomposition: routing by the stored block extents must not assume the
// blocks form a uniform tensor grid.
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
  // really is non-grid so this test keeps covering such a tiling.
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

  // Byte oracle: each block's kept cells copied out by filter_mesh, then
  // re-welded cell by cell into one mesh, block by block.
  BlockMesh oracle;
  for (const auto& b : blocks) {
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < b.cells.size(); ++i)
      if (box.contains(b.cells[i].site)) keep.push_back(i);
    const auto copy = tess::analysis::filter_mesh(b, keep);
    std::vector<std::uint32_t> remap(copy.vertices.size(), BlockMesh::kUnwelded);
    for (std::size_t c = 0; c < copy.cells.size(); ++c)
      oracle.append_cell(copy, c, remap);
  }
  oracle.bounds = box;
  tess::diy::Buffer got_bytes, want_bytes;
  region.serialize(got_bytes);
  oracle.serialize(want_bytes);
  EXPECT_EQ(got_bytes.data(), want_bytes.data());
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

// ---------------------------------------------------------------------------
// Locate oracle: Snapshot::locate as it was before the face-neighbour
// index and before routing by block bounds alone. Site grid and fallback
// are copied unchanged; routing rebuilds the block grid from the blocks'
// lower corners (three binary searches) whenever they tile a full grid,
// and scans the block bounds otherwise; the walk resolves each face's
// neighbour through a site-id map. Every PointLocation field must match it
// bit for bit, from a single locate and from the batch at any thread
// count, inside the domain and in a margin outside it.
// ---------------------------------------------------------------------------

namespace {

bool oracle_valid_bounds(const tess::diy::Bounds& b) {
  return b.min.x < b.max.x && b.min.y < b.max.y && b.min.z < b.max.z;
}

class LocateOracle {
 public:
  explicit LocateOracle(const Snapshot& snap) : bounds_(snap.num_blocks()) {
    const int nb = snap.num_blocks();
    for (int b = 0; b < nb; ++b) {
      bounds_[static_cast<std::size_t>(b)] = snap.block_bounds(b);
      Block blk;
      blk.mesh = &snap.block(b);
      blk.build();
      blocks_.push_back(std::move(blk));
    }
    std::vector<int> valid;
    for (int b = 0; b < nb; ++b)
      if (oracle_valid_bounds(bounds_[static_cast<std::size_t>(b)]))
        valid.push_back(b);
    for (std::size_t a = 0; a < 3; ++a) {
      auto& lo = axis_lo_[a];
      for (int b : valid) lo.push_back(bounds_[static_cast<std::size_t>(b)].min[a]);
      std::sort(lo.begin(), lo.end());
      lo.erase(std::unique(lo.begin(), lo.end()), lo.end());
    }
    const std::size_t nx = axis_lo_[0].size(), ny = axis_lo_[1].size(),
                      nz = axis_lo_[2].size();
    if (!valid.empty() && nx * ny * nz == valid.size()) {
      grid_to_block_.assign(nx * ny * nz, -1);
      grid_ok_ = true;
      for (int b : valid) {
        const auto& bb = bounds_[static_cast<std::size_t>(b)];
        std::size_t idx[3];
        for (std::size_t a = 0; a < 3; ++a) {
          const auto& lo = axis_lo_[a];
          idx[a] = static_cast<std::size_t>(
              std::lower_bound(lo.begin(), lo.end(), bb.min[a]) - lo.begin());
        }
        auto& cell = grid_to_block_[(idx[0] * ny + idx[1]) * nz + idx[2]];
        if (cell != -1) {
          grid_ok_ = false;
          break;
        }
        cell = b;
      }
      if (grid_ok_)
        for (int g : grid_to_block_)
          if (g == -1) {
            grid_ok_ = false;
            break;
          }
    }
  }

  /// The location of p; adds one per block searched beyond the owner to
  /// *cross_block.
  PointLocation locate(const Vec3& p, std::uint64_t* cross_block) const {
    PointLocation out;
    const int nb = static_cast<int>(blocks_.size());
    if (nb == 0) return out;
    int owner = -1;
    if (grid_ok_) {
      const std::size_t ny = axis_lo_[1].size(), nz = axis_lo_[2].size();
      std::size_t idx[3];
      for (std::size_t a = 0; a < 3; ++a) {
        const auto& lo = axis_lo_[a];
        const auto it = std::upper_bound(lo.begin(), lo.end(), p[a]);
        idx[a] = it == lo.begin()
                     ? 0
                     : static_cast<std::size_t>(it - lo.begin()) - 1;
      }
      owner = grid_to_block_[(idx[0] * ny + idx[1]) * nz + idx[2]];
    } else {
      double best = std::numeric_limits<double>::infinity();
      for (int b = 0; b < nb; ++b) {
        const auto& bb = bounds_[static_cast<std::size_t>(b)];
        if (!oracle_valid_bounds(bb)) continue;
        if (bb.contains(p)) {
          owner = b;
          break;
        }
        const double d = bb.distance(p);
        if (d < best) {
          best = d;
          owner = b;
        }
      }
    }
    if (owner < 0) return out;

    double best_d2 = std::numeric_limits<double>::infinity();
    bool certified = false;
    const auto& s = blocks_[static_cast<std::size_t>(owner)];
    if (!s.mesh->cells.empty()) {
      std::int64_t cur = s.seed(p);
      best_d2 =
          tess::geom::dist2(p, s.mesh->cells[static_cast<std::size_t>(cur)].site);
      for (;;) {
        const auto& c = s.mesh->cells[static_cast<std::size_t>(cur)];
        bool absent_neighbor = false;
        std::int64_t next = -1;
        for (std::uint32_t f = c.first_face; f < c.first_face + c.num_faces;
             ++f) {
          const auto nb_site = s.mesh->face_neighbors[f];
          if (nb_site < 0) continue;
          const auto it = s.cell_of_site.find(nb_site);
          if (it == s.cell_of_site.end()) {
            absent_neighbor = true;
            continue;
          }
          const double d2 = tess::geom::dist2(p, s.mesh->cells[it->second].site);
          if (d2 < best_d2) {
            best_d2 = d2;
            next = it->second;
          }
        }
        if (next < 0) {
          certified = !absent_neighbor;
          break;
        }
        cur = next;
        ++out.walk_steps;
      }
      out.block = owner;
      out.cell = static_cast<std::uint32_t>(cur);
      out.site_id = s.mesh->cells[static_cast<std::size_t>(cur)].site_id;
      out.site_dist2 = best_d2;
    }
    if (!certified) {
      out.grid_fallback = true;
      nearest_in_block(owner, p, &best_d2, &out);
      for (int b = 0; b < nb; ++b) {
        if (b == owner || !oracle_valid_bounds(bounds_[static_cast<std::size_t>(b)]))
          continue;
        const double d = bounds_[static_cast<std::size_t>(b)].distance(p);
        if (d * d >= best_d2) continue;
        ++*cross_block;
        nearest_in_block(b, p, &best_d2, &out);
      }
    }
    return out;
  }

 private:
  struct Block {
    const BlockMesh* mesh = nullptr;
    std::array<int, 3> dims{1, 1, 1};
    Vec3 origin{};
    Vec3 cell_size{1.0, 1.0, 1.0};
    std::vector<std::uint32_t> bin_offsets;
    std::vector<std::uint32_t> items;
    std::unordered_map<std::int64_t, std::uint32_t> cell_of_site;

    void build() {
      const std::size_t n = mesh->cells.size();
      for (std::uint32_t i = 0; i < n; ++i)
        cell_of_site.emplace(mesh->cells[i].site_id, i);
      if (n == 0) {
        bin_offsets.assign(2, 0);
        return;
      }
      const int k = std::clamp(
          static_cast<int>(std::lround(std::cbrt(static_cast<double>(n) / 2.0))),
          1, 64);
      dims = {k, k, k};
      origin = mesh->bounds.min;
      const Vec3 extent = mesh->bounds.max - mesh->bounds.min;
      cell_size = {extent.x > 0 ? extent.x / k : 1.0,
                   extent.y > 0 ? extent.y / k : 1.0,
                   extent.z > 0 ? extent.z / k : 1.0};
      const std::size_t nbins = static_cast<std::size_t>(k) * k * k;
      bin_offsets.assign(nbins + 1, 0);
      std::vector<std::uint32_t> bin(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto c = bin_of(mesh->cells[i].site);
        bin[i] = static_cast<std::uint32_t>(
            (static_cast<std::size_t>(c[0]) * dims[1] + c[1]) * dims[2] + c[2]);
        ++bin_offsets[bin[i] + 1];
      }
      for (std::size_t b = 0; b < nbins; ++b)
        bin_offsets[b + 1] += bin_offsets[b];
      items.resize(n);
      std::vector<std::uint32_t> cursor(bin_offsets.begin(),
                                        bin_offsets.end() - 1);
      for (std::size_t i = 0; i < n; ++i)
        items[cursor[bin[i]]++] = static_cast<std::uint32_t>(i);
    }

    std::array<int, 3> bin_of(const Vec3& p) const {
      std::array<int, 3> c{};
      for (std::size_t a = 0; a < 3; ++a) {
        const double t = std::floor((p[a] - origin[a]) / cell_size[a]);
        const double last = dims[a] - 1;
        c[a] = t >= 0.0 ? static_cast<int>(std::min(t, last)) : 0;
      }
      return c;
    }

    // Visits the bins at Chebyshev radius r around c; fn(bin) returns
    // false to stop the shell early.
    template <typename Fn>
    void shell(const std::array<int, 3>& c, int r, Fn&& fn) const {
      for (int dx = -r; dx <= r; ++dx)
        for (int dy = -r; dy <= r; ++dy)
          for (int dz = -r; dz <= r; ++dz) {
            if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) != r)
              continue;
            const int x = c[0] + dx, y = c[1] + dy, z = c[2] + dz;
            if (x < 0 || x >= dims[0] || y < 0 || y >= dims[1] || z < 0 ||
                z >= dims[2])
              continue;
            fn((static_cast<std::size_t>(x) * dims[1] + y) * dims[2] + z);
          }
    }

    std::int64_t seed(const Vec3& p) const {
      if (items.empty()) return -1;
      const auto c = bin_of(p);
      const int rmax = std::max({dims[0], dims[1], dims[2]});
      for (int r = 0; r <= rmax; ++r) {
        std::int64_t best = -1;
        shell(c, r, [&](std::size_t b) {
          if (bin_offsets[b] != bin_offsets[b + 1]) best = items[bin_offsets[b]];
        });
        if (best >= 0) return best;
      }
      return -1;
    }

    std::int64_t nearest(const Vec3& p, double* best_d2) const {
      if (items.empty()) return -1;
      const auto c = bin_of(p);
      const double w_min = std::min({cell_size.x, cell_size.y, cell_size.z});
      const int rmax = std::max({dims[0], dims[1], dims[2]});
      std::int64_t best = -1;
      for (int r = 0; r <= rmax; ++r) {
        if (r >= 1) {
          const double lb = (r - 1) * w_min;
          if (lb * lb > *best_d2) break;
        }
        shell(c, r, [&](std::size_t b) {
          for (std::uint32_t i = bin_offsets[b]; i < bin_offsets[b + 1]; ++i) {
            const double d2 = tess::geom::dist2(p, mesh->cells[items[i]].site);
            if (d2 < *best_d2) {
              *best_d2 = d2;
              best = items[i];
            }
          }
        });
      }
      return best;
    }
  };

  void nearest_in_block(int block, const Vec3& p, double* best_d2,
                        PointLocation* out) const {
    const auto& s = blocks_[static_cast<std::size_t>(block)];
    const auto cell = s.nearest(p, best_d2);
    if (cell >= 0) {
      out->block = block;
      out->cell = static_cast<std::uint32_t>(cell);
      out->site_id = s.mesh->cells[static_cast<std::size_t>(cell)].site_id;
      out->site_dist2 = *best_d2;
    }
  }

  std::vector<tess::diy::Bounds> bounds_;
  std::vector<Block> blocks_;
  std::array<std::vector<double>, 3> axis_lo_;
  std::vector<int> grid_to_block_;
  bool grid_ok_ = false;
};

/// Number of results that differ from `want` in any PointLocation field
/// (site_dist2 by its bits); the first few differences are reported.
std::size_t count_mismatches(const std::vector<PointLocation>& want,
                             const std::vector<PointLocation>& got,
                             const char* what) {
  EXPECT_EQ(want.size(), got.size()) << what;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    const auto& a = want[i];
    const auto& b = got[i];
    if (a.block == b.block && a.site_id == b.site_id && a.cell == b.cell &&
        std::bit_cast<std::uint64_t>(a.site_dist2) ==
            std::bit_cast<std::uint64_t>(b.site_dist2) &&
        a.walk_steps == b.walk_steps && a.grid_fallback == b.grid_fallback)
      continue;
    if (++bad <= 5)
      ADD_FAILURE() << what << ": point " << i << ": oracle (block " << a.block
                    << ", site " << a.site_id << ", cell " << a.cell
                    << ", d2 " << a.site_dist2 << ", walk " << a.walk_steps
                    << ", fallback " << a.grid_fallback << ") vs (block "
                    << b.block << ", site " << b.site_id << ", cell " << b.cell
                    << ", d2 " << b.site_dist2 << ", walk " << b.walk_steps
                    << ", fallback " << b.grid_fallback << ")";
  }
  return bad;
}

/// 10,000 seeded points from [lo, hi)^3 through the oracle, Snapshot::locate
/// and QueryService::point_locate at 1 and 4 threads.
void expect_oracle_locations(const std::string& path, double lo, double hi,
                             unsigned seed) {
  const auto points = random_points(10000, lo, hi, seed);
  Snapshot snap(path);
  const LocateOracle oracle(snap);
  std::vector<PointLocation> want(points.size());
  std::uint64_t cross_block = 0;
  std::size_t walked = 0, fallbacks = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    want[i] = oracle.locate(points[i], &cross_block);
    walked += want[i].walk_steps > 0 ? 1 : 0;
    fallbacks += want[i].grid_fallback ? 1 : 0;
  }
  // The inputs exercise both the walk and the fallback.
  EXPECT_GT(walked, 0u);
  EXPECT_GT(fallbacks, 0u);

  std::vector<PointLocation> single(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    single[i] = snap.locate(points[i]);
  EXPECT_EQ(count_mismatches(want, single, "Snapshot::locate"), 0u);
  for (const int threads : {1, 4}) {
    ServiceConfig cfg;
    cfg.threads = threads;
    QueryService svc(cfg);
    const auto got = svc.point_locate(path, points);
    EXPECT_EQ(count_mismatches(want, got, "QueryService::point_locate"), 0u)
        << threads << " threads";
  }
}

double median_cell_volume(const Snapshot& snap) {
  auto volumes = tess::analysis::cell_volumes(snap.blocks());
  std::nth_element(volumes.begin(), volumes.begin() + volumes.size() / 2,
                   volumes.end());
  return volumes[volumes.size() / 2];
}

}  // namespace

TEST(ServeLocateOracle, GridFile) {
  // A margin outside the domain also routes through the block grid's edge.
  expect_oracle_locations(blocked_file(), -0.5, 8.5, 1001u);
}

TEST(ServeLocateOracle, KdFile) {
  expect_oracle_locations(kd_file(), -0.5, 8.5, 1002u);
}

TEST(ServeLocateOracle, PeriodicFile) {
  expect_oracle_locations(periodic_file(), 0.0, 8.0, 1003u);
}

// The void catalog labels the kept cells in place; labels, component order
// and volumes equal those of components built over filter_mesh copies.
TEST(ServeLocateOracle, VoidLabelsMatchFilteredCopies) {
  for (const auto& path : {blocked_file(), kd_file(), periodic_file()}) {
    Snapshot snap(path);
    const double thr = median_cell_volume(snap);
    std::vector<BlockMesh> filtered;
    for (int b = 0; b < snap.num_blocks(); ++b)
      filtered.push_back(tess::analysis::filter_mesh(
          snap.block(b), tess::analysis::threshold_cells(snap.block(b), thr)));
    const tess::analysis::ConnectedComponents want(filtered);
    const auto& got = *snap.voids(thr)->components;
    EXPECT_EQ(got.labeled_sites(), want.labeled_sites()) << path;
    ASSERT_EQ(got.num_components(), want.num_components()) << path;
    ASSERT_GT(want.num_components(), 0u) << path;
    for (std::size_t k = 0; k < want.num_components(); ++k) {
      const auto& a = want.components()[k];
      const auto& b = got.components()[k];
      EXPECT_EQ(a.label, b.label) << path << " component " << k;
      EXPECT_EQ(a.num_cells, b.num_cells) << path << " component " << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.volume),
                std::bit_cast<std::uint64_t>(b.volume))
          << path << " component " << k;
    }
  }
}

// A loaded block's mapped pages are released once its mesh is copied out.
// With every block loaded, and so released, the answers equal references
// built from blocks read with std::ifstream, never through a mapping:
// locate (interior points, where a periodic file has brute-force
// semantics), region, histograms and void labels, on the three test files.
TEST(ServeSnapshot, AnswersUnchangedOnceBlocksReleased) {
  for (const auto& path : {blocked_file(), kd_file(), periodic_file()}) {
    const auto blocks = stream_blocks(path);
    Snapshot snap(path);
    (void)snap.blocks();
    ASSERT_EQ(snap.blocks_loaded(), snap.num_blocks()) << path;

    for (const auto& p : random_points(300, 1.5, 6.5, 77u)) {
      const auto loc = snap.locate(p);
      const auto ref = brute_nearest(blocks, p);
      ASSERT_TRUE(loc.found()) << path;
      EXPECT_EQ(loc.site_id, ref.site_id) << path;
      EXPECT_EQ(loc.site_dist2, ref.d2) << path;
    }

    const tess::diy::Bounds box{{1.5, 2.0, 0.5}, {6.5, 7.0, 5.5}};
    std::vector<std::int64_t> want_ids, got_ids;
    for (const auto& b : blocks)
      for (const auto& c : b.cells)
        if (box.contains(c.site)) want_ids.push_back(c.site_id);
    for (const auto& c : snap.extract_region(box).cells)
      got_ids.push_back(c.site_id);
    std::sort(want_ids.begin(), want_ids.end());
    std::sort(got_ids.begin(), got_ids.end());
    EXPECT_EQ(got_ids, want_ids) << path;

    EXPECT_EQ(snap.volume_histogram(0.0, 3.0, 24).counts(),
              tess::analysis::volume_histogram(blocks, 0.0, 3.0, 24).counts())
        << path;
    EXPECT_EQ(snap.density_contrast_histogram(16).counts(),
              tess::analysis::density_contrast_histogram(blocks, 16).counts())
        << path;

    auto volumes = tess::analysis::cell_volumes(blocks);
    std::nth_element(volumes.begin(), volumes.begin() + volumes.size() / 2,
                     volumes.end());
    const double thr = volumes[volumes.size() / 2];
    std::vector<BlockMesh> filtered;
    for (const auto& b : blocks)
      filtered.push_back(tess::analysis::filter_mesh(
          b, tess::analysis::threshold_cells(b, thr)));
    const tess::analysis::ConnectedComponents want(filtered);
    const auto& got = *snap.voids(thr)->components;
    EXPECT_EQ(got.labeled_sites(), want.labeled_sites()) << path;
    ASSERT_EQ(got.num_components(), want.num_components()) << path;
    for (const auto& p : random_points(100, 1.5, 6.5, 78u))
      EXPECT_EQ(snap.void_of(p, thr),
                want.label_of(brute_nearest(blocks, p).site_id))
          << path;
  }
}

// write_blocks renames a finished file over its path, so a snapshot that
// holds the old file keeps reading it: blocks loaded after a much smaller
// file replaced the path still hold the old bytes. A writer that truncated
// the file in place would fault (SIGBUS) on the old file's pages past the
// new end, so the scenario runs in a child process that must exit cleanly.
TEST(ServeSnapshotDeathTest, HeldSnapshotReadsOldFileAfterRewrite) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto path = ::testing::TempDir() + "tess_serve_rewrite_" +
                    std::to_string(::getpid()) + ".bin";
  EXPECT_EXIT(
      {
        std::vector<std::vector<std::byte>> written(8);
        Runtime::run(8, [&](Comm& c) {
          Decomposition d({0, 0, 0}, {8, 8, 8}, {2, 2, 2}, false);
          TessOptions opt;
          opt.ghost = 2.0;
          const auto mesh = tess::core::standalone_tessellate(
              c, d, c.rank() == 0 ? jittered_lattice(8, 99u)
                                  : std::vector<Particle>{},
              opt);
          tess::diy::Buffer buf;
          mesh.serialize(buf);
          written[static_cast<std::size_t>(c.rank())] = buf.data();
          tess::diy::write_blocks(c, path, buf);
        });
        bool same = false;
        {
          const Snapshot snap(path);
          Runtime::run(1, [&](Comm& c) {
            tess::diy::Buffer tiny;
            tiny.write<int>(1);
            tess::diy::write_blocks(c, path, tiny);
          });
          // The old file went with the temporary name it swapped into.
          same = !std::ifstream(path + ".partial").good();
          // The last blocks lie far past the new file's end.
          for (int b = snap.num_blocks() - 1; b >= 0; --b) {
            tess::diy::Buffer got;
            snap.block(b).serialize(got);
            same = same && got.data() == written[static_cast<std::size_t>(b)];
          }
          same = same && snap.num_blocks() == 8;
        }
        std::remove(path.c_str());
        std::exit(same ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
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

// A zero-bin histogram query throws before it bins a sample, and the
// service answers the next query normally.
TEST(ServeService, ZeroBinHistogramThrows) {
  QueryService svc;
  EXPECT_THROW(svc.volume_histogram(blocked_file(), 0.0, 3.0, 0),
               std::invalid_argument);
  EXPECT_THROW(svc.density_contrast_histogram(blocked_file(), 0),
               std::invalid_argument);
  const auto vh = svc.volume_histogram(blocked_file(), 0.0, 3.0, 12);
  EXPECT_EQ(vh.counts(),
            svc.snapshot(blocked_file())->volume_histogram(0.0, 3.0, 12).counts());
  EXPECT_GT(vh.total(), 0u);
}

// The batch paths tally locate telemetry per chunk. After a point_locate
// and a void_lookup of the same points, every serve.locate counter and the
// walk_steps histogram moved by exactly twice the per-point sums.
TEST(ServeService, LocateTelemetryTotals) {
#if !TESS_OBS_ENABLED
  GTEST_SKIP() << "locate telemetry requires TESS_OBS";
#else
  const auto path = blocked_file();
  const auto points = random_points(5000, -0.5, 8.5, 2024u);
  std::uint64_t oracle_cross_block = 0;
  {
    Snapshot snap(path);
    const LocateOracle oracle(snap);
    for (const auto& p : points) (void)oracle.locate(p, &oracle_cross_block);
  }
  auto& reg = tess::obs::metrics();
  auto& count = reg.counter("serve.locate.count");
  auto& fallback = reg.counter("serve.locate.grid_fallback");
  auto& cross = reg.counter("serve.locate.cross_block");
  auto& walk = reg.histogram("serve.locate.walk_steps");
  for (const int threads : {4, 1}) {
    ServiceConfig cfg;
    cfg.threads = threads;
    cfg.batch_grain = 128;
    QueryService svc(cfg);
    const double thr = median_cell_volume(*svc.snapshot(path));
    const auto count0 = count.value(), fallback0 = fallback.value(),
               cross0 = cross.value(), walk_count0 = walk.count(),
               walk_sum0 = walk.sum();
    std::array<std::uint64_t, tess::obs::ExpHistogram::kBins> bins0{};
    for (int k = 0; k < tess::obs::ExpHistogram::kBins; ++k)
      bins0[static_cast<std::size_t>(k)] = walk.bin_count(k);

    const auto locs = svc.point_locate(path, points);
    (void)svc.void_lookup(path, points, thr);

    tess::obs::ExpHistogram::Local want_walk;
    std::uint64_t want_fallback = 0;
    for (const auto& loc : locs) {
      ASSERT_TRUE(loc.found());  // every block of this file has cells
      want_walk.add(loc.walk_steps);
      want_fallback += loc.grid_fallback ? 1 : 0;
    }
    EXPECT_GT(want_fallback, 0u);
    EXPECT_GT(oracle_cross_block, 0u);
    EXPECT_EQ(count.value() - count0, 2 * points.size()) << threads;
    EXPECT_EQ(fallback.value() - fallback0, 2 * want_fallback) << threads;
    EXPECT_EQ(cross.value() - cross0, 2 * oracle_cross_block) << threads;
    EXPECT_EQ(walk.count() - walk_count0, 2 * want_walk.count) << threads;
    EXPECT_EQ(walk.sum() - walk_sum0, 2 * want_walk.sum) << threads;
    for (int k = 0; k < tess::obs::ExpHistogram::kBins; ++k)
      EXPECT_EQ(walk.bin_count(k) - bins0[static_cast<std::size_t>(k)],
                2 * want_walk.bins[static_cast<std::size_t>(k)])
          << threads << " threads, bin " << k;
  }
#endif
}

// A traced batch records one serve.locate.chunk span per parallel_for
// chunk and no per-point serve.locate span; a single locate keeps its own.
TEST(ServeService, OneLocateSpanPerChunk) {
#if !TESS_OBS_ENABLED
  GTEST_SKIP() << "spans require TESS_OBS";
#else
  ServiceConfig cfg;
  cfg.threads = 4;
  cfg.batch_grain = 100;
  QueryService svc(cfg);
  const auto points = random_points(1050, 0.0, 8.0, 77u);
  const auto snap = svc.snapshot(blocked_file());
  (void)snap->blocks();  // block loads stay out of the traced window
  auto& tracer = tess::obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  (void)svc.point_locate(blocked_file(), points);
  (void)snap->locate(points[0]);
  tracer.set_enabled(false);
  std::size_t chunks = 0, singles = 0;
  for (const auto& lane : tracer.drain().lanes)
    for (const auto& rec : lane.spans) {
      chunks += std::strcmp(rec.name, "serve.locate.chunk") == 0 ? 1 : 0;
      singles += std::strcmp(rec.name, "serve.locate") == 0 ? 1 : 0;
    }
  EXPECT_EQ(chunks, 11u);  // ceil(1050 / 100)
  EXPECT_EQ(singles, 1u);
#endif
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
  const auto m = BlockMesh::deserialize(reader.block_view(b));
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

// A corrupt block that repeats site ids: a face whose neighbour id names
// two cells resolves to the first of them, as the site-map walk did, so
// every PointLocation field still matches the oracle.
TEST(SnapshotCorruption, RepeatedSiteIdResolvesToFirstCell) {
  const auto good = serial_file();
  auto bytes = read_bytes(good);
  const auto cells_at = length_word_offsets(good, 0)[1] + 8;
  std::uint64_t num_cells = 0;
  std::memcpy(&num_cells, bytes.data() + cells_at - 8, sizeof(num_cells));
  constexpr auto kRecord = sizeof(tess::core::CellRecord);
  constexpr auto kId = offsetof(tess::core::CellRecord, site_id);
  for (std::uint64_t i = 1; i < num_cells; i += 2)  // cell i takes i-1's id
    std::memcpy(bytes.data() + cells_at + i * kRecord + kId,
                bytes.data() + cells_at + (i - 1) * kRecord + kId,
                sizeof(std::int64_t));
  const auto path = corrupt_path("repeated_site");
  write_bytes(path, bytes);
  {
    Snapshot snap(path);
    const LocateOracle oracle(snap);
    const auto points = random_points(10000, 0.0, 6.0, 1004u);
    std::vector<PointLocation> want(points.size()), got(points.size());
    std::uint64_t cross_block = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      want[i] = oracle.locate(points[i], &cross_block);
      got[i] = snap.locate(points[i]);
    }
    EXPECT_EQ(count_mismatches(want, got, "repeated site ids"), 0u);
  }
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
