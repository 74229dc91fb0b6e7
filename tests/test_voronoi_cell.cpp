// Tests for the half-space-clipped Voronoi cell: exact geometry on known
// configurations, completeness detection, generator bookkeeping, and
// randomized invariants (Euler formula, volume monotonicity).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geom/voronoi_cell.hpp"
#include "util/rng.hpp"

namespace tg = tess::geom;
using tg::Vec3;
using tg::VoronoiCell;
using tess::util::Rng;

namespace {

// V - E + F must equal 2 for a convex polyhedron; E counted as half the
// total loop length (each edge appears in exactly two faces).
void expect_euler(const VoronoiCell& cell) {
  std::set<int> verts;
  std::size_t loop_len = 0;
  for (const auto& f : cell.faces()) {
    verts.insert(f.verts.begin(), f.verts.end());
    loop_len += f.verts.size();
  }
  ASSERT_EQ(loop_len % 2, 0u);
  const auto V = static_cast<long>(verts.size());
  const auto E = static_cast<long>(loop_len / 2);
  const auto F = static_cast<long>(cell.faces().size());
  EXPECT_EQ(V - E + F, 2) << "V=" << V << " E=" << E << " F=" << F;
}

}  // namespace

TEST(VoronoiCell, InitialBox) {
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  EXPECT_EQ(cell.faces().size(), 6u);
  EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
  EXPECT_NEAR(cell.area(), 6.0, 1e-12);
  EXPECT_FALSE(cell.complete());  // bounded by box planes only
  EXPECT_FALSE(cell.empty());
  expect_euler(cell);
  const Vec3 c = cell.centroid();
  EXPECT_NEAR(c.x, 0.5, 1e-12);
  EXPECT_NEAR(c.y, 0.5, 1e-12);
  EXPECT_NEAR(c.z, 0.5, 1e-12);
}

TEST(VoronoiCell, SingleCutHalvesBox) {
  VoronoiCell cell({0.25, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  // Neighbor mirrored across x = 0.5.
  EXPECT_TRUE(cell.cut({0.75, 0.5, 0.5}, 7));
  EXPECT_NEAR(cell.volume(), 0.5, 1e-12);
  EXPECT_EQ(cell.faces().size(), 6u);
  expect_euler(cell);
  // The new face carries the neighbor id.
  bool found = false;
  for (const auto& f : cell.faces())
    if (f.source == 7) found = true;
  EXPECT_TRUE(found);
  auto ids = cell.neighbor_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 7);
}

TEST(VoronoiCell, CutKeepsSiteSide) {
  VoronoiCell cell({0.25, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  cell.cut({0.75, 0.5, 0.5}, 1);
  // All remaining vertices must satisfy x <= 0.5.
  for (const auto& f : cell.faces())
    for (int v : f.verts)
      EXPECT_LE(cell.vertices()[static_cast<std::size_t>(v)].x, 0.5 + 1e-12);
}

TEST(VoronoiCell, TangentCutIsNoop) {
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  // Bisector at x = 1.0 exactly on the box face.
  EXPECT_FALSE(cell.cut({1.5, 0.5, 0.5}, 3));
  EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
}

TEST(VoronoiCell, FarNeighborDoesNotChangeCell) {
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  EXPECT_FALSE(cell.cut({5, 5, 5}, 9));
  EXPECT_EQ(cell.neighbor_ids().size(), 0u);
}

TEST(VoronoiCell, CubicLatticeCellIsUnitCube) {
  // Site at the center of a 3x3x3 lattice with spacing 1: its Voronoi cell
  // is the unit cube centered on the site.
  const Vec3 site{0, 0, 0};
  VoronoiCell cell(site, {-2, -2, -2}, {2, 2, 2});
  std::int64_t id = 0;
  for (int x = -1; x <= 1; ++x)
    for (int y = -1; y <= 1; ++y)
      for (int z = -1; z <= 1; ++z) {
        if (x == 0 && y == 0 && z == 0) continue;
        cell.cut({static_cast<double>(x), static_cast<double>(y),
                  static_cast<double>(z)},
                 id++);
      }
  EXPECT_TRUE(cell.complete());
  EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
  EXPECT_NEAR(cell.area(), 6.0, 1e-12);
  EXPECT_NEAR(cell.max_radius2(), 0.75, 1e-12);  // corner at (±.5,±.5,±.5)
  // Diagonal-neighbor bisectors graze the cell exactly along its edges and
  // corners, leaving zero-area faces that compact() prunes; only the 6 axis
  // neighbors bound the cell.
  cell.compact();
  EXPECT_EQ(cell.faces().size(), 6u);
  EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
}

TEST(VoronoiCell, BccCellIsTruncatedOctahedron) {
  // Body-centered cubic: Voronoi cell of the center site is the truncated
  // octahedron with 14 faces (8 hexagons + 6 squares) and volume = a^3/2
  // for conventional cube edge a = 2 (neighbors at corners and face
  // centers of the cube of side 2).
  const Vec3 site{0, 0, 0};
  VoronoiCell cell(site, {-4, -4, -4}, {4, 4, 4});
  std::int64_t id = 0;
  // 8 nearest neighbors at (±1, ±1, ±1).
  for (int sx : {-1, 1})
    for (int sy : {-1, 1})
      for (int sz : {-1, 1}) cell.cut({double(sx), double(sy), double(sz)}, id++);
  // 6 second neighbors at (±2, 0, 0) etc.
  for (int a = 0; a < 3; ++a)
    for (int s : {-2, 2}) {
      Vec3 p{0, 0, 0};
      p[static_cast<std::size_t>(a)] = s;
      cell.cut(p, id++);
    }
  EXPECT_TRUE(cell.complete());
  EXPECT_EQ(cell.faces().size(), 14u);
  EXPECT_NEAR(cell.volume(), 4.0, 1e-12);  // half of 2^3
  expect_euler(cell);
  EXPECT_EQ(cell.neighbor_ids().size(), 14u);
}

TEST(VoronoiCell, CellClippedAwayEntirely) {
  VoronoiCell cell({0.1, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  // A neighbor so close on the other side that the bisector excludes the
  // whole box: neighbor at -10 -> bisector near x = -5 keeps x <= -5.
  // Use a plane directly instead.
  EXPECT_TRUE(cell.clip({{1, 0, 0}, -1.0, 42}));
  EXPECT_TRUE(cell.empty());
  EXPECT_EQ(cell.volume(), 0.0);
  EXPECT_FALSE(cell.complete());
}

TEST(VoronoiCell, VertexGeneratorsTrackCuttingPlanes) {
  const Vec3 site{0, 0, 0};
  VoronoiCell cell(site, {-2, -2, -2}, {2, 2, 2});
  std::int64_t id = 100;
  for (int x = -1; x <= 1; ++x)
    for (int y = -1; y <= 1; ++y)
      for (int z = -1; z <= 1; ++z) {
        if (x == 0 && y == 0 && z == 0) continue;
        cell.cut({double(x), double(y), double(z)}, id++);
      }
  cell.compact();
  ASSERT_TRUE(cell.complete());
  // Every vertex of the complete cell must have three known generators
  // with non-negative (particle) sources.
  ASSERT_EQ(cell.vertices().size(), cell.vertex_generators().size());
  std::size_t used = cell.vertices().size();
  EXPECT_EQ(used, 8u);  // unit-cube cell
  for (const auto& g : cell.vertex_generators()) {
    for (auto s : g) {
      EXPECT_NE(s, VoronoiCell::kNoGenerator);
      EXPECT_GE(s, 100);
    }
  }
}

TEST(VoronoiCell, MaxVertexSeparationBoundsDiameter) {
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(cell.max_vertex_separation2(), 3.0, 1e-12);  // cube diagonal^2
}

// The live-vertex invariant: after every cut each stored vertex is
// referenced by a face and the generator table stays in step, so compact()
// of a cleanly cut cell has no vertex to drop.
TEST(VoronoiCell, CutsStoreOnlyLiveVertices) {
  auto expect_all_live = [](const VoronoiCell& cell) {
    ASSERT_EQ(cell.vertices().size(), cell.vertex_generators().size());
    std::vector<char> used(cell.vertices().size(), 0);
    for (const auto& f : cell.faces())
      for (int v : f.verts) used[static_cast<std::size_t>(v)] = 1;
    EXPECT_EQ(std::count(used.begin(), used.end(), 0), 0);
  };

  VoronoiCell cell({0.25, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  expect_all_live(cell);
  ASSERT_TRUE(cell.cut({0.75, 0.5, 0.5}, 1));
  expect_all_live(cell);
  EXPECT_EQ(cell.vertices().size(), 8u);  // half-box has 8 corners
  cell.compact();
  EXPECT_EQ(cell.vertices().size(), 8u);
  EXPECT_NEAR(cell.volume(), 0.5, 1e-12);
  expect_euler(cell);

  // Random cuts, effective and no-op alike; a cell clipped away entirely
  // keeps no vertex.
  Rng rng(7);
  VoronoiCell rnd({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  for (int i = 0; i < 200; ++i) {
    const double spread = i < 100 ? 1.0 : 0.2;
    rnd.cut({0.5 + spread * (rng.uniform() - 0.5), 0.5 + spread * (rng.uniform() - 0.5),
             0.5 + spread * (rng.uniform() - 0.5)},
            i);
    expect_all_live(rnd);
    if (i == 99) {
      const auto before = rnd.vertices().size();
      VoronoiCell compacted = rnd;
      compacted.compact();
      EXPECT_EQ(compacted.vertices().size(), before);
    }
  }
  ASSERT_TRUE(rnd.clip({{1, 0, 0}, -10.0, 42}));
  EXPECT_TRUE(rnd.empty());
  expect_all_live(rnd);
  EXPECT_TRUE(rnd.vertices().empty());
}

TEST(VoronoiCell, VolumeNeverIncreasesUnderCuts) {
  Rng rng(2024);
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  double vol = cell.volume();
  for (int i = 0; i < 50; ++i) {
    const Vec3 nb{rng.uniform(), rng.uniform(), rng.uniform()};
    cell.cut(nb, i);
    if (cell.empty()) break;
    const double v = cell.volume();
    EXPECT_LE(v, vol + 1e-12);
    vol = v;
    expect_euler(cell);
  }
}

class RandomCellInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCellInvariants, EulerVolumeRadius) {
  Rng rng(GetParam());
  const Vec3 site{rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)};
  VoronoiCell cell(site, {0, 0, 0}, {1, 1, 1});
  for (int i = 0; i < 30; ++i) {
    const Vec3 nb{rng.uniform(), rng.uniform(), rng.uniform()};
    if (tg::dist2(nb, site) < 1e-6) continue;
    cell.cut(nb, i);
    if (cell.empty()) return;
  }
  expect_euler(cell);
  EXPECT_GT(cell.volume(), 0.0);
  EXPECT_LE(cell.volume(), 1.0 + 1e-12);
  EXPECT_GT(cell.area(), 0.0);
  // max_radius2 must actually bound the vertex distances.
  for (const auto& f : cell.faces())
    for (int v : f.verts)
      EXPECT_LE(tg::dist2(site, cell.vertices()[static_cast<std::size_t>(v)]),
                cell.max_radius2() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCellInvariants,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));
