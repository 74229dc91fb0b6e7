// Integration tests of the parallel tessellation pipeline: completeness,
// the partition property, rank-count invariance (the essence of the paper's
// Table I at full ghost size), threshold culling, and the file round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/blockio.hpp"
#include "geom/cell_builder.hpp"
#include "geom/convex_hull.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::BlockMesh;
using tess::core::TessOptions;
using tess::core::TessStats;
using tess::core::Tessellator;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

std::vector<Particle> random_particles(std::uint64_t seed, int n, double domain) {
  Rng rng(seed);
  std::vector<Particle> ps;
  for (int i = 0; i < n; ++i)
    ps.push_back({{rng.uniform(0, domain), rng.uniform(0, domain),
                   rng.uniform(0, domain)},
                  i});
  return ps;
}

std::vector<Particle> lattice_particles(int n) {
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        ps.push_back({{x + 0.5, y + 0.5, z + 0.5}, id++});
  return ps;
}

// Collects (site_id -> volume) across all blocks on rank 0.
struct IdVolume {
  std::int64_t id;
  double volume;
};
std::map<std::int64_t, double> gather_cell_volumes(Comm& c, const BlockMesh& mesh) {
  std::vector<IdVolume> mine;
  for (const auto& cell : mesh.cells) mine.push_back({cell.site_id, cell.volume});
  auto all = c.gatherv(mine);
  std::map<std::int64_t, double> out;
  for (const auto& iv : all) out[iv.id] = iv.volume;
  return out;
}

}  // namespace

TEST(Tessellator, PeriodicLatticeAllCellsUnitCubes) {
  Runtime::run(4, [&](Comm& c) {
    const int n = 8;
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(4), true);
    TessOptions opt;
    opt.ghost = 2.0;
    TessStats stats;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? lattice_particles(n) : std::vector<Particle>{}, opt,
        &stats);
    // Periodic lattice: every cell is a complete unit cube.
    EXPECT_EQ(stats.cells_incomplete, 0u);
    for (const auto& cell : mesh.cells) {
      EXPECT_NEAR(cell.volume, 1.0, 1e-9);
      EXPECT_NEAR(cell.area, 6.0, 1e-9);
      EXPECT_EQ(cell.num_faces, 6u);
    }
    const auto total = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_EQ(total, 512);
  });
}

class TessellatorRanks : public ::testing::TestWithParam<int> {};

TEST_P(TessellatorRanks, PartitionOfDomainVolume) {
  const int nranks = GetParam();
  const double domain = 8.0;
  Runtime::run(nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(nranks), true);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? random_particles(1, 500, domain) : std::vector<Particle>{},
        opt);
    double vol = 0.0;
    for (const auto& cell : mesh.cells) vol += cell.volume;
    const double total = c.allreduce_sum(vol);
    // Periodic domain, ample ghost: every cell complete, cells tile the box.
    EXPECT_NEAR(total, domain * domain * domain, 1e-6);
    const auto kept = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_EQ(kept, 500);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TessellatorRanks, ::testing::Values(1, 2, 4, 8));

TEST(Tessellator, RankCountInvariance) {
  // The parallel result with sufficient ghost must match the serial result
  // cell for cell — the 100%-accuracy row of the paper's Table I.
  const double domain = 6.0;
  const auto particles = random_particles(9, 300, domain);
  std::map<std::int64_t, double> serial;
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain}, {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(c, d, particles, opt);
    serial = gather_cell_volumes(c, mesh);
  });
  ASSERT_EQ(serial.size(), 300u);
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);
    auto parallel = gather_cell_volumes(c, mesh);
    if (c.rank() == 0) {
      ASSERT_EQ(parallel.size(), serial.size());
      for (const auto& [id, vol] : serial) {
        ASSERT_TRUE(parallel.contains(id)) << "cell " << id << " missing";
        EXPECT_NEAR(parallel.at(id), vol, 1e-9 * (1.0 + vol)) << "cell " << id;
      }
    }
  });
}

TEST(Tessellator, SmallGhostLosesAccuracy) {
  // With a ghost zone far smaller than typical spacing, boundary cells are
  // wrong or missing — the upper rows of Table I.
  const double domain = 6.0;
  const auto particles = random_particles(10, 200, domain);
  long long kept = 0;
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 0.05;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);
    if (c.rank() == 0) kept = 0;
    const auto total = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    if (c.rank() == 0) kept = total;
  });
  EXPECT_LT(kept, 200);  // incomplete boundary cells were dropped
}

TEST(Tessellator, ThresholdCulling) {
  const double domain = 6.0;
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 3.0;
    opt.min_volume = 1.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? random_particles(11, 400, domain) : std::vector<Particle>{},
        opt);
    for (const auto& cell : mesh.cells) EXPECT_GE(cell.volume, 1.0);
  });
}

TEST(Tessellator, EarlyCullMatchesExactCull) {
  // The conservative circumsphere bound must never cull a cell the exact
  // volume test would keep.
  const double domain = 6.0;
  const auto particles = random_particles(12, 400, domain);
  std::set<std::int64_t> with_early, without_early;
  for (bool early : {true, false}) {
    Runtime::run(4, [&](Comm& c) {
      Decomposition d({0, 0, 0}, {domain, domain, domain},
                      Decomposition::factor(4), true);
      TessOptions opt;
      opt.ghost = 3.0;
      opt.min_volume = 0.5;
      opt.early_cull = early;
      auto mesh = tess::core::standalone_tessellate(
          c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);
      std::vector<std::int64_t> ids;
      for (const auto& cell : mesh.cells) ids.push_back(cell.site_id);
      auto all = c.gatherv(ids);
      if (c.rank() == 0)
        (early ? with_early : without_early) =
            std::set<std::int64_t>(all.begin(), all.end());
    });
  }
  EXPECT_EQ(with_early, without_early);
}

// The paper orders each cell's vertices into faces with Qhull and takes
// the cell's volume and area from the hull (§III-C). The clipped cell
// carries all three itself; the convex hull of each kept cell's vertices,
// read through its faces in the block mesh, must agree with them under a
// fixed and under an automatic ghost.
TEST(Tessellator, HullPassAgreesWithClippedCell) {
  const double domain = 5.0;
  const auto particles = random_particles(13, 200, domain);
  for (const bool auto_ghost : {false, true}) {
    std::atomic<std::size_t> checked{0};
    Runtime::run(2, [&](Comm& c) {
      Decomposition d({0, 0, 0}, {domain, domain, domain},
                      Decomposition::factor(2), true);
      TessOptions opt;
      opt.ghost = auto_ghost ? 0.5 : 2.5;
      opt.auto_ghost = auto_ghost;
      const auto mesh = tess::core::standalone_tessellate(
          c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);
      for (const auto& cell : mesh.cells) {
        // Every face corner; the hull drops the repeats of shared vertices.
        std::vector<Vec3> corners;
        for (std::uint32_t f = cell.first_face;
             f < cell.first_face + cell.num_faces; ++f)
          for (std::uint32_t k = mesh.face_offsets[f];
               k < mesh.face_offsets[f + 1]; ++k)
            corners.push_back(mesh.vertices[mesh.face_verts[k]]);
        const auto hull = tess::geom::convex_hull(corners);
        ASSERT_FALSE(hull.degenerate) << "cell " << cell.site_id;
        EXPECT_NEAR(hull.volume, cell.volume, 1e-8 * (1.0 + cell.volume))
            << "cell " << cell.site_id << " auto_ghost=" << auto_ghost;
        EXPECT_NEAR(hull.area, cell.area, 1e-8 * (1.0 + cell.area))
            << "cell " << cell.site_id << " auto_ghost=" << auto_ghost;
      }
      checked += mesh.cells.size();
    });
    EXPECT_EQ(checked, particles.size()) << "auto_ghost=" << auto_ghost;
  }
}

TEST(Tessellator, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "tess_core_roundtrip.bin";
  const double domain = 5.0;
  const auto particles = random_particles(14, 150, domain);
  Runtime::run(4, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(4), true);
    TessOptions opt;
    opt.ghost = 2.5;
    Tessellator t(c, d, opt);
    auto mine = tess::diy::migrate_items(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{},
        [](Particle& p) -> Vec3& { return p.pos; });
    auto mesh = t.tessellate(mine);
    const auto bytes = t.write(path, mesh);
    EXPECT_GT(bytes, 0u);
    EXPECT_GT(t.stats().output_seconds, 0.0);

    c.barrier();
    // Read back this rank's block and compare.
    tess::diy::BlockFileReader reader(path);
    auto back = BlockMesh::deserialize(reader.block_view(c.rank()));
    ASSERT_EQ(back.cells.size(), mesh.cells.size());
    for (std::size_t i = 0; i < mesh.cells.size(); ++i) {
      EXPECT_EQ(back.cells[i].site_id, mesh.cells[i].site_id);
      EXPECT_DOUBLE_EQ(back.cells[i].volume, mesh.cells[i].volume);
    }
    EXPECT_EQ(back.face_verts, mesh.face_verts);
    EXPECT_EQ(back.face_neighbors, mesh.face_neighbors);
  });
  std::remove(path.c_str());
}

TEST(Tessellator, StatsAccounting) {
  const double domain = 5.0;
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 2.0;
    TessStats stats;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? random_particles(15, 100, domain) : std::vector<Particle>{},
        opt, &stats);
    EXPECT_EQ(stats.cells_kept, mesh.cells.size());
    EXPECT_EQ(stats.local_particles,
              stats.cells_kept + stats.cells_incomplete + stats.cells_culled_early +
                  stats.cells_culled_volume);
    EXPECT_GT(stats.ghost_received, 0u);
    EXPECT_GT(stats.compute_seconds, 0.0);
  });
}

TEST(Tessellator, EmptyBlockIsHandled) {
  // All particles crowd one corner; some blocks own nothing.
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(8), true);
    std::vector<Particle> ps;
    if (c.rank() == 0) {
      Rng rng(16);
      for (int i = 0; i < 50; ++i)
        ps.push_back({{rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2)}, i});
    }
    TessOptions opt;
    opt.ghost = 2.0;
    auto mesh = tess::core::standalone_tessellate(c, d, std::move(ps), opt);
    // Just verify the collective completes and totals are consistent.
    const auto kept = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_LE(kept, 50);
  });
}

TEST(BlockMesh, DataModelStats) {
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = 2.0;
    auto mesh =
        tess::core::standalone_tessellate(c, d, lattice_particles(8), opt);
    EXPECT_DOUBLE_EQ(mesh.avg_faces_per_cell(), 6.0);
    EXPECT_DOUBLE_EQ(mesh.avg_verts_per_face(), 4.0);
    EXPECT_GT(mesh.bytes_per_cell(), 0.0);
    // Welding: vertices shared between cells are listed once. In absolute
    // coordinates the periodic 8^3 lattice exposes a 9^3 grid of corner
    // positions (x = 0 and x = 8 are periodic images but distinct points).
    EXPECT_EQ(mesh.vertices.size(), 729u);
    // Without welding there would be 8 corners x 512 cells = 4096 entries.
    EXPECT_LT(mesh.vertices.size(), 4096u);
  });
}

// ---------------------------------------------------------------------------
// Mesh assembly against a per-corner weld oracle. The oracle hashes every
// face corner into a node-based map, the way BlockMesh welded before it
// staged each cell's vertices and welded each staged vertex once through its
// flat table; the key (std::llround of position / kWeldQuantum) and the
// first-occurrence rule are the same, so serialized bytes must match
// exactly.
// ---------------------------------------------------------------------------

namespace {

using tess::core::kWeldQuantum;
using tess::core::StagedCells;
using tess::geom::VoronoiCell;

class PerCornerWeldOracle {
 public:
  explicit PerCornerWeldOracle(const tess::diy::Bounds& bounds) {
    mesh.bounds = bounds;
  }

  void add_cell(std::int64_t site_id, const VoronoiCell& cell) {
    tess::core::CellRecord rec;
    rec.site_id = site_id;
    rec.site = cell.site();
    rec.volume = cell.volume();
    rec.area = cell.area();
    rec.first_face = static_cast<std::uint32_t>(mesh.num_faces());
    rec.num_faces = static_cast<std::uint32_t>(cell.faces().size());
    for (const auto& f : cell.faces()) {
      for (int v : f.verts)
        mesh.face_verts.push_back(weld(cell.vertices()[static_cast<std::size_t>(v)]));
      mesh.face_offsets.push_back(static_cast<std::uint32_t>(mesh.face_verts.size()));
      mesh.face_neighbors.push_back(f.source);
    }
    mesh.cells.push_back(rec);
  }

  /// Cell `c` of an already welded mesh, re-welded corner by corner.
  void add_mesh_cell(const BlockMesh& src, std::size_t c) {
    auto rec = src.cells[c];
    rec.first_face = static_cast<std::uint32_t>(mesh.num_faces());
    const auto& in = src.cells[c];
    for (std::size_t f = in.first_face; f < in.first_face + in.num_faces; ++f) {
      for (std::size_t k = src.face_offsets[f]; k < src.face_offsets[f + 1]; ++k)
        mesh.face_verts.push_back(weld(src.vertices[src.face_verts[k]]));
      mesh.face_offsets.push_back(static_cast<std::uint32_t>(mesh.face_verts.size()));
      mesh.face_neighbors.push_back(src.face_neighbors[f]);
    }
    mesh.cells.push_back(rec);
  }

  BlockMesh mesh;

 private:
  struct Key {
    std::int64_t x, y, z;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::int64_t>()(k.x) * 31 * 31 +
             std::hash<std::int64_t>()(k.y) * 31 + std::hash<std::int64_t>()(k.z);
    }
  };

  std::uint32_t weld(const Vec3& v) {
    const Key key{std::llround(v.x / kWeldQuantum), std::llround(v.y / kWeldQuantum),
                  std::llround(v.z / kWeldQuantum)};
    const auto [it, fresh] =
        map_.emplace(key, static_cast<std::uint32_t>(mesh.vertices.size()));
    if (fresh) mesh.vertices.push_back(v);
    return it->second;
  }

  std::unordered_map<Key, std::uint32_t, KeyHash> map_;
};

std::vector<std::byte> mesh_bytes(const BlockMesh& mesh) {
  tess::diy::Buffer buf;
  mesh.serialize(buf);
  return buf.data();
}

struct SiteCell {
  std::int64_t site_id;
  VoronoiCell cell;
};

/// Complete, compacted cells of the first `n_sites` points, in site order.
std::vector<SiteCell> build_cells(std::vector<Vec3> pts,
                                  std::vector<std::int64_t> ids,
                                  std::size_t n_sites, const Vec3& lo,
                                  const Vec3& hi) {
  tess::geom::CellBuilder builder(std::move(pts), ids, lo, hi);
  std::vector<SiteCell> out;
  for (std::size_t i = 0; i < n_sites; ++i) {
    auto cell = builder.build(static_cast<int>(i), lo, hi);
    if (!cell.complete()) continue;
    cell.compact();
    out.push_back({ids[i], std::move(cell)});
  }
  return out;
}

/// Random cloud in the periodic box [-2, 2)^3 plus its periodic images
/// within 1.5 of the box, so every original site gets a complete cell.
std::vector<SiteCell> periodic_cloud_cells() {
  const double lo = -2.0, hi = 2.0, ghost = 1.5, side = hi - lo;
  Rng rng(4242);
  std::vector<Vec3> pts;
  std::vector<std::int64_t> ids;
  const int n = 250;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi)});
    ids.push_back(i);
  }
  for (int i = 0; i < n; ++i)
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dz = -1; dz <= 1; ++dz) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const Vec3 q{pts[i].x + dx * side, pts[i].y + dy * side,
                       pts[i].z + dz * side};
          if (q.x < lo - ghost || q.x > hi + ghost || q.y < lo - ghost ||
              q.y > hi + ghost || q.z < lo - ghost || q.z > hi + ghost)
            continue;
          pts.push_back(q);
          ids.push_back(ids[i]);
        }
  return build_cells(std::move(pts), std::move(ids), n,
                     {lo - ghost, lo - ghost, lo - ghost},
                     {hi + ghost, hi + ghost, hi + ghost});
}

/// Cells of the interior 5^3 sites of a 7^3 unit lattice at (i - 4.5):
/// unit cubes whose corners sit at integer coordinates -4..1, on both
/// sides of zero.
std::vector<SiteCell> lattice_cells() {
  std::vector<Vec3> pts;
  std::vector<std::int64_t> ids;
  for (int z = 0; z < 7; ++z)
    for (int y = 0; y < 7; ++y)
      for (int x = 0; x < 7; ++x) {
        pts.push_back({x - 4.5, y - 4.5, z - 4.5});
        ids.push_back(static_cast<std::int64_t>(pts.size()) - 1);
      }
  // Interior 5^3 sites first, so the built cells are all complete.
  std::vector<Vec3> ordered;
  std::vector<std::int64_t> ordered_ids;
  std::vector<Vec3> rest;
  std::vector<std::int64_t> rest_ids;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const bool inner = std::abs(pts[i].x + 1.5) < 2.6 &&
                       std::abs(pts[i].y + 1.5) < 2.6 &&
                       std::abs(pts[i].z + 1.5) < 2.6;
    (inner ? ordered : rest).push_back(pts[i]);
    (inner ? ordered_ids : rest_ids).push_back(ids[i]);
  }
  const std::size_t n_inner = ordered.size();
  ordered.insert(ordered.end(), rest.begin(), rest.end());
  ordered_ids.insert(ordered_ids.end(), rest_ids.begin(), rest_ids.end());
  return build_cells(std::move(ordered), std::move(ordered_ids), n_inner,
                     {-5, -5, -5}, {3, 3, 3});
}

/// Compacted box cells whose corners straddle weld-quantum rounding
/// boundaries: the pair at (k + 0.5) q -/+ eps lies 2 eps apart yet
/// quantizes to distinct keys (two vertices), the pair at k q -/+ eps welds
/// into one, on both sides of zero; the thin box's four corners at each end
/// share one key within one cell.
std::vector<SiteCell> quantum_boundary_cells(std::int64_t first_id) {
  const double q = kWeldQuantum, eps = 1e-5 * q;
  const double half = (12345678 + 0.5) * q, whole = 23456789 * q;
  std::vector<SiteCell> out;
  std::int64_t id = first_id;
  auto add_box = [&](const Vec3& lo, const Vec3& hi) {
    const Vec3 site{0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y), 0.5 * (lo.z + hi.z)};
    out.push_back({id++, VoronoiCell(site, lo, hi)});
    out.back().cell.compact();
  };
  for (const double sign : {1.0, -1.0}) {
    for (const double edge : {half, whole}) {
      const double a = sign * edge;
      // Left box ends at a - eps, right box starts at a + eps (x axis).
      add_box({a - 1.0, -0.75, -0.5}, {a - eps, 0.25, 0.5});
      add_box({a + eps, -0.75, -0.5}, {a + 1.0, 0.25, 0.5});
    }
  }
  // 4e-9 wide: compact() keeps its 8 corners (they lie past its weld bound
  // of 1e-9 times the cell radius) and prunes its two near-zero-area ends,
  // but the corners at each end share one weld key.
  const double thin = 2e-9;
  add_box({whole - thin, whole - thin, -1.0}, {whole + thin, whole + thin, 1.0});
  return out;
}

/// The two assembly inputs: a random periodic cloud and a lattice, each
/// followed by the quantum-boundary boxes (site ids stay ascending).
std::vector<std::vector<SiteCell>> assembly_inputs() {
  std::vector<std::vector<SiteCell>> inputs{periodic_cloud_cells(), lattice_cells()};
  for (auto& cells : inputs) {
    auto boxes = quantum_boundary_cells(cells.back().site_id + 1);
    for (auto& b : boxes) cells.push_back(std::move(b));
  }
  return inputs;
}

const tess::diy::Bounds kAssemblyBounds{{-5, -5, -5}, {3, 3, 3}};

/// Cells [begin, end) staged in that order.
StagedCells stage_cells(std::vector<SiteCell>& cells, std::size_t begin,
                        std::size_t end) {
  StagedCells stage;
  for (std::size_t i = begin; i < end; ++i) stage.add_cell(cells[i].site_id, cells[i].cell);
  return stage;
}

/// Every cell of `stage`, welded into `mesh` in staged order.
void append_stage(BlockMesh& mesh, const StagedCells& stage) {
  for (std::size_t c = 0; c < stage.cells.size(); ++c) mesh.append_cell(stage, c);
}

/// Cells [begin, end) staged as one shard and assembled into a block.
BlockMesh add_cells(std::vector<SiteCell>& cells, std::size_t begin,
                    std::size_t end) {
  BlockMesh mesh;
  mesh.bounds = kAssemblyBounds;
  append_stage(mesh, stage_cells(cells, begin, end));
  return mesh;
}

BlockMesh oracle_mesh(const std::vector<SiteCell>& cells) {
  PerCornerWeldOracle oracle(kAssemblyBounds);
  for (const auto& sc : cells) oracle.add_cell(sc.site_id, sc.cell);
  return oracle.mesh;
}

}  // namespace

TEST(MeshAssembly, AddCellMatchesPerCornerOracle) {
  for (auto& cells : assembly_inputs()) {
    ASSERT_GT(cells.size(), 100u);
    const BlockMesh mesh = add_cells(cells, 0, cells.size());
    const BlockMesh expected = oracle_mesh(cells);
    EXPECT_EQ(mesh.vertices.size(), expected.vertices.size());
    EXPECT_EQ(mesh_bytes(mesh), mesh_bytes(expected));
  }
  // The straddling pairs stay apart and the on-grid pairs weld: each pair
  // of boxes shares its 4 face corners only when they quantize together.
  auto boxes = quantum_boundary_cells(0);
  const BlockMesh straddle = add_cells(boxes, 0, 2);
  EXPECT_EQ(straddle.vertices.size(), 16u);
  const BlockMesh welded = add_cells(boxes, 2, 4);
  EXPECT_EQ(welded.vertices.size(), 12u);
  const BlockMesh thin = add_cells(boxes, boxes.size() - 1, boxes.size());
  EXPECT_EQ(thin.vertices.size(), 2u);
  // Staging welds nothing: the thin box's corners collapse only in the block.
  EXPECT_EQ(stage_cells(boxes, boxes.size() - 1, boxes.size()).vertices.size(), 8u);
}

TEST(MeshAssembly, ShardMergeMatchesPerCornerOracle) {
  for (auto& cells : assembly_inputs()) {
    const auto expected = mesh_bytes(oracle_mesh(cells));
    for (const std::size_t grain : {1u, 7u, 64u}) {
      // Staged shards of `grain` sites, assembled into one block in site
      // order, as the tessellator assembles its chunk shards.
      BlockMesh staged;
      staged.bounds = kAssemblyBounds;
      for (std::size_t b = 0; b < cells.size(); b += grain)
        append_stage(staged, stage_cells(cells, b, std::min(cells.size(), b + grain)));
      EXPECT_EQ(mesh_bytes(staged), expected) << "grain " << grain;
      // Welded blocks of `grain` sites, re-welded cell by cell through one
      // reused remap, as region extraction welds a block's kept cells.
      BlockMesh merged;
      merged.bounds = kAssemblyBounds;
      std::vector<std::uint32_t> remap;
      for (std::size_t b = 0; b < cells.size(); b += grain) {
        const BlockMesh shard =
            add_cells(cells, b, std::min(cells.size(), b + grain));
        remap.assign(shard.vertices.size(), BlockMesh::kUnwelded);
        for (std::size_t c = 0; c < shard.cells.size(); ++c)
          merged.append_cell(shard, c, remap);
      }
      EXPECT_EQ(mesh_bytes(merged), expected) << "grain " << grain;
    }
  }
}

TEST(MeshAssembly, CanonicalMergeMatchesPerCornerOracle) {
  for (auto& cells : assembly_inputs()) {
    // Three blocks with interleaved site ids, each assembled in its own
    // (descending) order, so the merge re-welds across blocks.
    std::vector<StagedCells> stages(3);
    for (std::size_t i = cells.size(); i-- > 0;) {
      auto& sc = cells[i];
      stages[static_cast<std::size_t>(sc.site_id % 3)].add_cell(sc.site_id, sc.cell);
    }
    std::vector<BlockMesh> blocks(3);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      blocks[b].bounds = kAssemblyBounds;
      append_stage(blocks[b], stages[b]);
    }
    PerCornerWeldOracle oracle(kAssemblyBounds);
    std::vector<std::pair<std::int64_t, std::pair<std::size_t, std::size_t>>> order;
    for (std::size_t b = 0; b < blocks.size(); ++b)
      for (std::size_t c = 0; c < blocks[b].cells.size(); ++c)
        order.push_back({blocks[b].cells[c].site_id, {b, c}});
    std::sort(order.begin(), order.end());
    for (const auto& [site, loc] : order)
      oracle.add_mesh_cell(blocks[loc.first], loc.second);
    EXPECT_EQ(mesh_bytes(tess::core::canonical_merge(blocks)),
              mesh_bytes(oracle.mesh));
  }
}

// reduced_stats() folds every field in one gathered record: the result
// must equal a fold of every rank's own stats, and the message count of
// the call must not grow with the number of auto-ghost passes.
TEST(Tessellator, ReducedStatsMatchesFoldOfRankStats) {
  const int kRanks = 4;
  const auto particles = random_particles(31, 800, 6.0);
  const auto path = ::testing::TempDir() + "tess_reduced_stats.bin";
  std::vector<TessStats> per_rank(kRanks);
  std::vector<TessStats> reduced(kRanks);
  std::uint64_t messages = 0;
  Runtime::run(kRanks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {6, 6, 6}, Decomposition::factor(kRanks), true);
    TessOptions opt;
    opt.ghost = 0.25;
    opt.auto_ghost = true;
    Tessellator t(c, d, opt);
    std::vector<Particle> mine;
    for (const auto& p : particles)
      if (d.block_of_point(p.pos) == c.rank()) mine.push_back(p);
    const auto mesh = t.tessellate(mine);
    t.write(path, mesh);
    per_rank[static_cast<std::size_t>(c.rank())] = t.stats();
    c.barrier();
    auto& counter = tess::obs::metrics().counter("comm.messages");
    const auto before = counter.value();
    c.barrier();
    reduced[static_cast<std::size_t>(c.rank())] = t.reduced_stats();
    c.barrier();
    if (c.rank() == 0) messages = counter.value() - before;
  });
  std::remove(path.c_str());

  TessStats expect = per_rank[0];
  ASSERT_GE(expect.iterations.size(), 2u) << "needs a multi-pass run";
  for (int r = 1; r < kRanks; ++r) {
    const auto& s = per_rank[static_cast<std::size_t>(r)];
    ASSERT_EQ(s.iterations.size(), expect.iterations.size());
    expect.exchange_seconds = std::max(expect.exchange_seconds, s.exchange_seconds);
    expect.compute_seconds = std::max(expect.compute_seconds, s.compute_seconds);
    expect.output_seconds = std::max(expect.output_seconds, s.output_seconds);
    expect.local_particles += s.local_particles;
    expect.ghost_received += s.ghost_received;
    expect.ghost_sent += s.ghost_sent;
    expect.cells_kept += s.cells_kept;
    expect.cells_incomplete += s.cells_incomplete;
    expect.cells_culled_early += s.cells_culled_early;
    expect.cells_culled_volume += s.cells_culled_volume;
    expect.ghost_used = std::max(expect.ghost_used, s.ghost_used);
    expect.auto_iterations = std::max(expect.auto_iterations, s.auto_iterations);
    expect.cells_uncertified += s.cells_uncertified;
    for (std::size_t k = 0; k < s.iterations.size(); ++k) {
      auto& e = expect.iterations[k];
      const auto& it = s.iterations[k];
      e.ghost = std::max(e.ghost, it.ghost);
      e.exchange_seconds = std::max(e.exchange_seconds, it.exchange_seconds);
      e.compute_seconds = std::max(e.compute_seconds, it.compute_seconds);
      e.ghost_sent += it.ghost_sent;
      e.ghost_received += it.ghost_received;
      e.cells_built += it.cells_built;
      e.cells_incomplete += it.cells_incomplete;
      e.cells_uncertified += it.cells_uncertified;
    }
  }
  EXPECT_EQ(expect.local_particles, particles.size());
  for (int r = 0; r < kRanks; ++r) {
    const auto& got = reduced[static_cast<std::size_t>(r)];
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(got.exchange_seconds, expect.exchange_seconds);
    EXPECT_EQ(got.compute_seconds, expect.compute_seconds);
    EXPECT_EQ(got.output_seconds, expect.output_seconds);
    EXPECT_EQ(got.local_particles, expect.local_particles);
    EXPECT_EQ(got.ghost_received, expect.ghost_received);
    EXPECT_EQ(got.ghost_sent, expect.ghost_sent);
    EXPECT_EQ(got.cells_kept, expect.cells_kept);
    EXPECT_EQ(got.cells_incomplete, expect.cells_incomplete);
    EXPECT_EQ(got.cells_culled_early, expect.cells_culled_early);
    EXPECT_EQ(got.cells_culled_volume, expect.cells_culled_volume);
    EXPECT_EQ(got.output_bytes, per_rank[static_cast<std::size_t>(r)].output_bytes);
    EXPECT_EQ(got.ghost_used, expect.ghost_used);
    EXPECT_EQ(got.auto_iterations, expect.auto_iterations);
    EXPECT_EQ(got.cells_uncertified, expect.cells_uncertified);
    ASSERT_EQ(got.iterations.size(), expect.iterations.size());
    for (std::size_t k = 0; k < got.iterations.size(); ++k) {
      SCOPED_TRACE("pass " + std::to_string(k));
      const auto& g = got.iterations[k];
      const auto& e = expect.iterations[k];
      EXPECT_EQ(g.ghost, e.ghost);
      EXPECT_EQ(g.exchange_seconds, e.exchange_seconds);
      EXPECT_EQ(g.compute_seconds, e.compute_seconds);
      EXPECT_EQ(g.ghost_sent, e.ghost_sent);
      EXPECT_EQ(g.ghost_received, e.ghost_received);
      EXPECT_EQ(g.cells_built, e.cells_built);
      EXPECT_EQ(g.cells_incomplete, e.cells_incomplete);
      EXPECT_EQ(g.cells_uncertified, e.cells_uncertified);
    }
  }
  // One gather and one broadcast (plus a token barrier on shifted planes):
  // at most 4 (P - 1) messages, however many passes the run took.
  EXPECT_LE(messages, static_cast<std::uint64_t>(4 * (kRanks - 1)));
}
