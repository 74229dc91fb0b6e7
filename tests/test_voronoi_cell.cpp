// Tests for the half-space-clipped Voronoi cell: exact geometry on known
// configurations, completeness detection, generator bookkeeping, and
// randomized invariants (Euler formula, volume monotonicity).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "geom/convex_hull.hpp"
#include "geom/kernels.hpp"
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

// ---------------------------------------------------------------------------
// Edge-table clip vs the face-list clip. The oracle below is a face-list
// clip on a mirror of the cell's public state: it rebuilds every face loop
// (Sutherland-Hodgman), chains the cap from the crossing edges, marks the
// referenced vertices and slides them down in index order, then recomputes
// the radius. Faces of both cells are in plane-creation order, and each
// crossing is computed in the direction the older of its two faces runs the
// edge, so after every cut the two cells must agree bit for bit up to
// vertex numbering, loop rotation and face order. The one exception is a
// cut after which the oracle's own cell is not a closed 2-manifold (its cap
// chain failed and it fell back to an angular sort): there the edge-table
// cell must still be closed, its volume must match the convex hull of the
// oracle's vertices to within kFallbackVolumeTol of the cell's size, and
// the mirror re-syncs.
// ---------------------------------------------------------------------------

namespace {

struct MirrorCell {
  Vec3 site;
  std::vector<Vec3> verts;
  std::vector<std::array<std::int64_t, 3>> gens;
  std::vector<VoronoiCell::Face> faces;
  double max_radius2 = 0.0;
};

MirrorCell mirror(const VoronoiCell& cell) {
  return {cell.site(), cell.vertices(), cell.vertex_generators(), cell.faces(),
          cell.max_radius2()};
}

void oracle_add_generator(MirrorCell& c, int vertex, std::int64_t source) {
  auto& g = c.gens[static_cast<std::size_t>(vertex)];
  for (auto s : g)
    if (s == source) return;
  for (auto& s : g)
    if (s == VoronoiCell::kNoGenerator) {
      s = source;
      return;
    }
}

void oracle_clear(MirrorCell& c) {
  c.faces.clear();
  c.verts.clear();
  c.gens.clear();
  c.max_radius2 = 0.0;
}

// Which part of kernels::plane_distances gives the oracle its distances:
// kScalar feeds the vertices one at a time, so only the kernel's scalar tail
// runs; kSimd passes them in one call, so the 4-lane sweep takes all but the
// last n % 4. The production clip always makes the one call, so the kScalar
// oracle also pins that the sweep and the tail agree bit for bit.
enum class OracleSweep : std::uint8_t { kScalar = 1, kSimd = 2 };

void oracle_plane_distances(OracleSweep sweep, const std::vector<Vec3>& verts,
                            const tg::Plane& plane, double* dist,
                            double* vert_scale) {
  if (sweep == OracleSweep::kSimd) {
    tg::kernels::plane_distances(verts.data(), verts.size(), plane.n, plane.d, dist,
                                 vert_scale);
    return;
  }
  *vert_scale = 0.0;
  for (std::size_t i = 0; i < verts.size(); ++i) {
    double scale = 0.0;
    tg::kernels::plane_distances(&verts[i], 1, plane.n, plane.d, dist + i, &scale);
    *vert_scale = std::max(*vert_scale, scale);
  }
}

bool oracle_clip(MirrorCell& c, const tg::Plane& plane, OracleSweep sweep,
                 int* cap_fallbacks) {
  using Face = VoronoiCell::Face;
  if (c.faces.empty()) return false;
  const std::size_t nv0 = c.verts.size();
  std::vector<double> dist(nv0);
  double vert_scale = 0.0;
  oracle_plane_distances(sweep, c.verts, plane, dist.data(), &vert_scale);
  const double eps = 1e-12 * (std::fabs(plane.d) + vert_scale + 1.0);
  auto outside = [&](int v) { return dist[static_cast<std::size_t>(v)] > eps; };
  std::size_t n_out = 0;
  for (std::size_t i = 0; i < nv0; ++i) n_out += dist[i] > eps ? 1 : 0;
  if (n_out == 0) return false;
  if (n_out == nv0) {
    oracle_clear(c);
    return true;
  }
  const Vec3 cap_gen = std::isnan(plane.gen.x) ? c.site + plane.n : plane.gen;

  std::vector<std::pair<std::uint64_t, int>> cut_vertex;
  std::vector<int> cap_next;
  auto intersect = [&](int u, int v) -> int {
    const auto key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::min(u, v))) << 32) |
        static_cast<std::uint32_t>(std::max(u, v));
    for (const auto& [k, idx] : cut_vertex)
      if (k == key) return idx;
    const double du = dist[static_cast<std::size_t>(u)];
    const double dv = dist[static_cast<std::size_t>(v)];
    const double t = std::clamp(du / (du - dv), 0.0, 1.0);
    const Vec3& pu = c.verts[static_cast<std::size_t>(u)];
    const Vec3 p = pu + (c.verts[static_cast<std::size_t>(v)] - pu) * t;
    const int idx = static_cast<int>(c.verts.size());
    c.verts.push_back(p);
    c.gens.push_back({plane.source, VoronoiCell::kNoGenerator,
                      VoronoiCell::kNoGenerator});
    cut_vertex.emplace_back(key, idx);
    cap_next.push_back(-1);
    return idx;
  };

  std::vector<Face> rebuilt;
  int cap_edges = 0;
  for (const auto& f : c.faces) {
    std::vector<int> loop;
    const std::size_t m = f.verts.size();
    int exit_w = -1, entry_w = -1;
    for (std::size_t i = 0; i < m; ++i) {
      const int u = f.verts[i];
      const int v = f.verts[(i + 1) % m];
      const bool u_out = outside(u), v_out = outside(v);
      if (!u_out) loop.push_back(u);
      if (u_out != v_out) {
        const int w = intersect(u, v);
        loop.push_back(w);
        oracle_add_generator(c, w, f.source);
        (u_out ? entry_w : exit_w) = w;
      }
    }
    if (exit_w >= 0 && entry_w >= 0 && exit_w != entry_w) {
      int& slot = cap_next[static_cast<std::size_t>(entry_w) - nv0];
      if (slot < 0) ++cap_edges;
      slot = exit_w;
    }
    if (loop.size() >= 3) {
      Face nf = f;
      nf.verts.assign(loop.begin(), loop.end());
      rebuilt.push_back(nf);
    }
  }

  if (cap_edges >= 3) {
    Face cap;
    cap.source = plane.source;
    cap.plane_n = plane.n;
    cap.plane_d = plane.d;
    cap.gen = cap_gen;
    int start = -1;
    for (std::size_t i = 0; i < cap_next.size() && start < 0; ++i)
      if (cap_next[i] >= 0) start = static_cast<int>(nv0 + i);
    int cur = start;
    for (int guard = 0; guard <= cap_edges; ++guard) {
      cap.verts.push_back(cur);
      const int nxt = cap_next[static_cast<std::size_t>(cur) - nv0];
      if (nxt < 0) break;
      cur = nxt;
      if (cur == start) break;
    }
    if (static_cast<int>(cap.verts.size()) == cap_edges && cur == start) {
      rebuilt.push_back(cap);
    } else {
      ++*cap_fallbacks;
      std::vector<int> cv;
      for (std::size_t i = 0; i < cap_next.size(); ++i)
        if (cap_next[i] >= 0) cv.push_back(static_cast<int>(nv0 + i));
      for (const int v : cap_next)
        if (v >= 0 && std::find(cv.begin(), cv.end(), v) == cv.end()) cv.push_back(v);
      if (cv.size() >= 3) {
        auto pos = [&](int v) { return c.verts[static_cast<std::size_t>(v)]; };
        Vec3 ctr{};
        for (const int v : cv) ctr += pos(v);
        ctr = ctr / static_cast<double>(cv.size());
        const Vec3 nz = tg::normalized(plane.n);
        Vec3 ux = tg::cross(nz, Vec3{1, 0, 0});
        if (tg::norm2(ux) < 1e-12) ux = tg::cross(nz, Vec3{0, 1, 0});
        ux = tg::normalized(ux);
        const Vec3 uy = tg::cross(nz, ux);
        std::sort(cv.begin(), cv.end(), [&](int a, int b) {
          const Vec3 pa = pos(a) - ctr;
          const Vec3 pb = pos(b) - ctr;
          return std::atan2(tg::dot(pa, uy), tg::dot(pa, ux)) <
                 std::atan2(tg::dot(pb, uy), tg::dot(pb, ux));
        });
        Vec3 nrm{};
        for (std::size_t i = 1; i + 1 < cv.size(); ++i)
          nrm += tg::cross(pos(cv[i]) - pos(cv[0]), pos(cv[i + 1]) - pos(cv[0]));
        if (tg::dot(nrm, plane.n) < 0.0) std::reverse(cv.begin(), cv.end());
        cap.verts.assign(cv.begin(), cv.end());
        rebuilt.push_back(cap);
      }
    }
  }

  c.faces = std::move(rebuilt);
  if (c.faces.size() < 4) {
    oracle_clear(c);
    return true;
  }
  // Mark and slide.
  std::vector<int> remap(c.verts.size(), -1);
  for (const auto& f : c.faces)
    for (const int v : f.verts) remap[static_cast<std::size_t>(v)] = 0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < c.verts.size(); ++i) {
    if (remap[i] < 0) continue;
    remap[i] = static_cast<int>(live);
    c.verts[live] = c.verts[i];
    c.gens[live] = c.gens[i];
    ++live;
  }
  c.verts.resize(live);
  c.gens.resize(live);
  for (auto& f : c.faces)
    for (auto& v : f.verts) v = remap[static_cast<std::size_t>(v)];
  c.max_radius2 = 0.0;
  for (const Vec3& v : c.verts) c.max_radius2 = std::max(c.max_radius2, tg::dist2(c.site, v));
  return true;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Every directed face edge appears exactly once, and so does its reverse.
bool closed_manifold(const std::vector<VoronoiCell::Face>& faces) {
  std::vector<std::pair<int, int>> edges;
  for (const auto& f : faces)
    for (std::size_t i = 0; i < f.verts.size(); ++i)
      edges.emplace_back(f.verts[i], f.verts[(i + 1) % f.verts.size()]);
  std::sort(edges.begin(), edges.end());
  if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) return false;
  for (const auto& [a, b] : edges)
    if (a == b || !std::binary_search(edges.begin(), edges.end(), std::pair{b, a}))
      return false;
  return true;
}

// A vertex as the comparison sees it: position bits and generator set.
using VertexKey = std::array<std::uint64_t, 6>;

VertexKey vertex_key(const std::vector<Vec3>& verts,
                     const std::vector<std::array<std::int64_t, 3>>& gens, int v) {
  VertexKey k{};
  std::memcpy(k.data(), &verts[static_cast<std::size_t>(v)], sizeof(Vec3));
  auto g = gens[static_cast<std::size_t>(v)];
  std::sort(g.begin(), g.end());
  for (std::size_t i = 0; i < 3; ++i) k[3 + i] = static_cast<std::uint64_t>(g[i]);
  return k;
}

// A face as the comparison sees it: source, plane and generator bits, then
// its loop's vertex keys from the smallest rotation.
using FaceKey = std::vector<std::uint64_t>;

FaceKey face_key(const VoronoiCell::Face& f, const std::vector<Vec3>& verts,
                 const std::vector<std::array<std::int64_t, 3>>& gens) {
  FaceKey k(8);
  k[0] = static_cast<std::uint64_t>(f.source);
  std::memcpy(&k[1], &f.plane_n, sizeof(Vec3));
  std::memcpy(&k[4], &f.plane_d, sizeof(double));
  std::memcpy(&k[5], &f.gen, sizeof(Vec3));
  std::vector<VertexKey> loop, best;
  for (const int v : f.verts) loop.push_back(vertex_key(verts, gens, v));
  for (std::size_t r = 0; r < loop.size(); ++r) {
    std::rotate(loop.begin(), loop.begin() + 1, loop.end());
    if (best.empty() || loop < best) best = loop;
  }
  for (const auto& vk : best) k.insert(k.end(), vk.begin(), vk.end());
  return k;
}

// Compares the cell with the oracle's mirror up to vertex numbering, loop
// rotation and the order of faces (a plane split into two loops by an
// earlier degenerate cut lists them in either order); returns false (with
// gtest failures naming `what`) at the first difference.
bool expect_matches_oracle(const VoronoiCell& cell, const MirrorCell& m,
                           const std::string& what) {
  EXPECT_TRUE(same_bits(cell.max_radius2(), m.max_radius2)) << what;
  const auto& verts = cell.vertices();
  const auto& gens = cell.vertex_generators();
  std::vector<VertexKey> va, vb;
  for (std::size_t v = 0; v < verts.size(); ++v)
    va.push_back(vertex_key(verts, gens, static_cast<int>(v)));
  for (std::size_t v = 0; v < m.verts.size(); ++v)
    vb.push_back(vertex_key(m.verts, m.gens, static_cast<int>(v)));
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  EXPECT_EQ(va, vb) << what << ": vertex positions or generator sets differ";
  std::vector<FaceKey> fa, fb;
  for (const auto& f : cell.faces()) fa.push_back(face_key(f, verts, gens));
  for (const auto& f : m.faces) fb.push_back(face_key(f, m.verts, m.gens));
  std::sort(fa.begin(), fa.end());
  std::sort(fb.begin(), fb.end());
  EXPECT_EQ(fa.size(), fb.size()) << what << ": face counts differ";
  EXPECT_TRUE(fa == fb) << what << ": faces differ";
  return !::testing::Test::HasFailure();
}

// Volume agreement asked of the edge-table cell where the oracle's cell is
// not closed, against the convex hull of the oracle's vertices, relative to
// the cube of the cell radius.
constexpr double kFallbackVolumeTol = 1e-9;

// A bisector cut by `neighbor`, tagged `id`.
struct Cut {
  Vec3 neighbor;
  std::int64_t id = 0;
};

// One input of the ClipOracle families: bisector cuts in order, or (when
// `adversarial`) a warm-up of bisector cuts followed by 60 planes drawn
// from the cell's own state.
struct ClipCase {
  std::string name;
  Vec3 site, lo, hi;
  std::vector<Cut> cuts;
  bool adversarial = false;
  std::uint64_t seed = 0;
};

// Drives one case through a fresh cell: `begin(cell)` once the cell is
// ready to be compared, then `step(cell, plane, label)` per plane, which
// applies the plane and returns false to stop the case. Adversarial planes
// pass through existing vertices, or sit off an existing face by exactly
// the clip tolerance (vertices at the in/out threshold, up to rounding).
template <typename Begin, typename Step>
void drive(const ClipCase& c, tg::ClipScratch& scratch, Begin&& begin, Step&& step) {
  VoronoiCell cell(c.site, c.lo, c.hi);
  if (!c.adversarial) {
    begin(cell);
    for (std::size_t i = 0; i < c.cuts.size(); ++i) {
      const Cut& cut = c.cuts[i];
      const Vec3 n = cut.neighbor - c.site;
      const tg::Plane plane{n, tg::dot(n, (cut.neighbor + c.site) * 0.5), cut.id,
                            cut.neighbor};
      if (!step(cell, plane, c.name + " cut " + std::to_string(i))) return;
    }
    return;
  }
  for (const Cut& cut : c.cuts) cell.cut(cut.neighbor, cut.id, scratch);
  begin(cell);
  Rng rng(c.seed);
  for (int i = 0; i < 60 && !cell.empty(); ++i) {
    tg::Plane plane;
    plane.source = 1000 + i;
    if (i % 2 == 0) {
      const Vec3& v = cell.vertices()[rng.uniform_index(cell.vertices().size())];
      plane.n = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
      if (i % 4 == 0) plane.n = {0, 0, 1};  // axis-aligned through a vertex
      plane.d = tg::dot(plane.n, v);
    } else {
      const auto& f = cell.faces()[rng.uniform_index(cell.faces().size())];
      double scale = 0.0;
      for (const Vec3& v : cell.vertices())
        scale = std::max(scale, std::fabs(tg::dot(f.plane_n, v)));
      plane.n = f.plane_n;
      plane.d = f.plane_d - 1e-12 * (std::fabs(f.plane_d) + scale + 1.0);
    }
    if (!step(cell, plane, c.name + " plane " + std::to_string(i))) return;
  }
}

std::vector<Cut> random_cuts(Rng& rng, int n, const Vec3& lo, const Vec3& hi) {
  std::vector<Cut> cuts;
  for (int i = 0; i < n; ++i)
    cuts.push_back({{rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                     rng.uniform(lo.z, hi.z)},
                    i});
  return cuts;
}

std::vector<ClipCase> uniform_cases() {
  std::vector<ClipCase> cases;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Vec3 site{rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)};
    cases.push_back({"uniform seed " + std::to_string(seed), site, {0, 0, 0}, {1, 1, 1},
                     random_cuts(rng, 80, {0, 0, 0}, {1, 1, 1})});
  }
  return cases;
}

std::vector<ClipCase> blob_cases() {
  std::vector<ClipCase> cases;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Vec3 blobs[2] = {{0.3, 0.3, 0.4}, {0.7, 0.6, 0.6}};
    std::vector<Cut> cuts;
    for (int i = 0; i < 120; ++i) {
      const Vec3& b = blobs[i % 3 == 0 ? 1 : 0];
      cuts.push_back({{b.x + 0.03 * rng.normal(), b.y + 0.03 * rng.normal(),
                       b.z + 0.03 * rng.normal()},
                      i});
    }
    const Vec3 site = blobs[seed % 2] + Vec3{0.01 * rng.normal(), 0.01 * rng.normal(),
                                             0.01 * rng.normal()};
    cases.push_back({"blobs seed " + std::to_string(seed), site, {0, 0, 0}, {1, 1, 1},
                     cuts});
  }
  return cases;
}

std::vector<ClipCase> coplanar_cases() {
  std::vector<ClipCase> cases;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Cut> cuts;
    for (int i = 0; i < 60; ++i)
      cuts.push_back({{rng.uniform(0, 2), rng.uniform(0, 2), 0.7}, i});
    cases.push_back({"coplanar seed " + std::to_string(seed), {1.0, 1.0, 0.7},
                     {0, 0, 0}, {2, 2, 2}, cuts});
  }
  return cases;
}

// Lattice neighbors in random order: diagonal bisectors pass exactly
// through existing vertices and edges, repeated neighbors (fresh ids) give
// exactly tangent planes, and the box-face bisectors at distance 4 are
// tangent to the seed box.
std::vector<ClipCase> lattice_cases() {
  std::vector<ClipCase> cases;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Cut> cuts;
    for (int x = -2; x <= 2; ++x)
      for (int y = -2; y <= 2; ++y)
        for (int z = -2; z <= 2; ++z)
          if (x != 0 || y != 0 || z != 0)
            cuts.push_back({{double(x), double(y), double(z)}, 0});
    cuts.push_back({{4, 0, 0}, 0});
    cuts.push_back({{0, -4, 0}, 0});
    for (int i = 0; i < 30; ++i) cuts.push_back(cuts[rng.uniform_index(cuts.size())]);
    for (std::size_t i = cuts.size(); i > 1; --i)
      std::swap(cuts[i - 1], cuts[rng.uniform_index(i)]);
    for (std::size_t i = 0; i < cuts.size(); ++i) cuts[i].id = static_cast<std::int64_t>(i);
    cases.push_back({"lattice seed " + std::to_string(seed), {0, 0, 0}, {-2, -2, -2},
                     {2, 2, 2}, cuts});
  }
  return cases;
}

std::vector<ClipCase> adversarial_cases() {
  std::vector<ClipCase> cases;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Cut> lattice;
    for (int x = -1; x <= 1; ++x)
      for (int y = -1; y <= 1; ++y)
        if (x != 0 || y != 0) lattice.push_back({{double(x), double(y), 0}, 10 * x + y});
    cases.push_back({"lattice adversarial seed " + std::to_string(seed), {0, 0, 0},
                     {-2, -2, -2}, {2, 2, 2}, lattice, true, seed});
    cases.push_back({"uniform adversarial seed " + std::to_string(seed),
                     {0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1},
                     random_cuts(rng, 20, {0, 0, 0}, {1, 1, 1}), true, seed});
  }
  return cases;
}

class ClipOracle : public ::testing::TestWithParam<OracleSweep> {
 protected:
  // Drives every case through the cell and the oracle, comparing after
  // each plane.
  void run(const std::vector<ClipCase>& cases) {
    tg::ClipScratch scratch;
    for (const ClipCase& c : cases) {
      MirrorCell m;
      drive(c, scratch, [&](const VoronoiCell& cell) { m = mirror(cell); },
            [&](VoronoiCell& cell, const tg::Plane& plane, const std::string& what) {
              return clip_both(cell, m, plane, scratch, what);
            });
    }
  }

  // Clips the cell and its mirror by `plane`; false on any difference.
  bool clip_both(VoronoiCell& cell, MirrorCell& m, const tg::Plane& plane,
                 tg::ClipScratch& scratch, const std::string& what) {
    const bool got = cell.clip(plane, scratch);
    const bool want = oracle_clip(m, plane, GetParam(), &cap_fallbacks_);
    EXPECT_EQ(got, want) << what;
    effective_ += got ? 1 : 0;
    if (got != want) return false;
    if (!closed_manifold(m.faces)) {
      ++open_oracle_cuts_;
      EXPECT_TRUE(closed_manifold(cell.faces())) << what;
      // The oracle's open surface has no meaningful volume, but its
      // vertices are right: the clipped cell is their convex hull.
      const auto hull = tg::convex_hull(m.verts);
      EXPECT_FALSE(hull.degenerate) << what;
      const double r = std::sqrt(cell.max_radius2());
      EXPECT_NEAR(cell.volume(), hull.volume, kFallbackVolumeTol * r * r * r) << what;
      m = mirror(cell);
      return !::testing::Test::HasFailure();
    }
    return expect_matches_oracle(cell, m, what);
  }

  int effective_ = 0;
  int cap_fallbacks_ = 0;
  int open_oracle_cuts_ = 0;
};

}  // namespace

TEST_P(ClipOracle, UniformSites) {
  run(uniform_cases());
  EXPECT_GT(effective_, 200);
  EXPECT_EQ(open_oracle_cuts_, 0);
}

TEST_P(ClipOracle, TwoBlobClusters) {
  run(blob_cases());
  EXPECT_GT(effective_, 200);
  EXPECT_EQ(open_oracle_cuts_, 0);
}

TEST_P(ClipOracle, CoplanarSites) {
  run(coplanar_cases());
  EXPECT_GT(effective_, 100);
}

TEST_P(ClipOracle, ExactLattice) {
  run(lattice_cases());
  EXPECT_GT(effective_, 100);
}

TEST_P(ClipOracle, PlanesThroughVerticesAndAtTolerance) {
  run(adversarial_cases());
  EXPECT_GT(effective_, 100);
  // Tolerance-offset planes break the oracle's cap chain; the angular
  // fallback, and the open oracle cells it leaves, must be covered too.
  EXPECT_GT(cap_fallbacks_, 0);
  EXPECT_GT(open_oracle_cuts_, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ClipOracle,
                         ::testing::Values(OracleSweep::kScalar, OracleSweep::kSimd),
                         [](const auto& info) {
                           return std::string(info.param == OracleSweep::kScalar
                                                  ? "scalar"
                                                  : "simd");
                         });

// ---------------------------------------------------------------------------
// Every cut leaves a closed 2-manifold: after each plane of the ClipOracle
// families, every directed face edge appears exactly once, and so does its
// reverse. The edge table guarantees this by construction, also where the
// face-list clip's cap chain breaks (the tolerance-plane sequences).
// ---------------------------------------------------------------------------

namespace {

int expect_closed_after_every_cut(const std::vector<ClipCase>& cases) {
  tg::ClipScratch scratch;
  int cuts = 0;
  for (const ClipCase& c : cases)
    drive(c, scratch, [](const VoronoiCell&) {},
          [&](VoronoiCell& cell, const tg::Plane& plane, const std::string& what) {
            cell.clip(plane, scratch);
            ++cuts;
            EXPECT_TRUE(closed_manifold(cell.faces())) << what;
            return !::testing::Test::HasFailure();
          });
  return cuts;
}

}  // namespace

TEST(CutManifold, UniformSites) { EXPECT_GT(expect_closed_after_every_cut(uniform_cases()), 1000); }

TEST(CutManifold, TwoBlobClusters) { EXPECT_GT(expect_closed_after_every_cut(blob_cases()), 1000); }

TEST(CutManifold, CoplanarSites) { EXPECT_GT(expect_closed_after_every_cut(coplanar_cases()), 1000); }

TEST(CutManifold, ExactLattice) { EXPECT_GT(expect_closed_after_every_cut(lattice_cases()), 1000); }

TEST(CutManifold, PlanesThroughVerticesAndAtTolerance) {
  EXPECT_GT(expect_closed_after_every_cut(adversarial_cases()), 400);
}
