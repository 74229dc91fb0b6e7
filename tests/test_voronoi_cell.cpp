// Tests for the half-space-clipped Voronoi cell: exact geometry on known
// configurations, completeness detection, generator bookkeeping, and
// randomized invariants (Euler formula, volume monotonicity).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

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
// In-place clip vs the two-array clip it replaced. The oracle below is the
// earlier algorithm on a mirror of the cell's public state: it rebuilds
// every face into a second array, marks the referenced vertices and slides
// them down in index order, then recomputes the radius. The in-place clip
// must match it bit for bit after every cut.
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

bool oracle_clip(MirrorCell& c, const tg::Plane& plane, tg::TessBackend backend,
                 int* cap_fallbacks) {
  using Face = VoronoiCell::Face;
  if (c.faces.empty()) return false;
  const std::size_t nv0 = c.verts.size();
  std::vector<double> dist(nv0);
  double vert_scale = 0.0;
  tg::kernels::plane_distances(backend, c.verts.data(), nv0, plane.n, plane.d,
                               dist.data(), &vert_scale);
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
    const double t = du / (du - dv);
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

bool same_bits(const Vec3& a, const Vec3& b) { return std::memcmp(&a, &b, sizeof(Vec3)) == 0; }
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Compares the cell with the oracle's mirror; returns false (with gtest
// failures naming `what`) at the first difference.
bool expect_matches_oracle(const VoronoiCell& cell, const MirrorCell& m,
                           const std::string& what) {
  EXPECT_TRUE(same_bits(cell.max_radius2(), m.max_radius2)) << what;
  EXPECT_EQ(cell.vertex_generators(), m.gens) << what;
  EXPECT_EQ(cell.vertices().size(), m.verts.size()) << what;
  if (cell.vertices().size() != m.verts.size()) return false;
  for (std::size_t i = 0; i < m.verts.size(); ++i)
    EXPECT_TRUE(same_bits(cell.vertices()[i], m.verts[i])) << what << " vertex " << i;
  EXPECT_EQ(cell.faces().size(), m.faces.size()) << what;
  if (cell.faces().size() != m.faces.size()) return false;
  for (std::size_t i = 0; i < m.faces.size(); ++i) {
    const auto& a = cell.faces()[i];
    const auto& b = m.faces[i];
    EXPECT_EQ(a.source, b.source) << what << " face " << i;
    EXPECT_TRUE(same_bits(a.plane_n, b.plane_n) && same_bits(a.plane_d, b.plane_d))
        << what << " face " << i;
    EXPECT_TRUE(same_bits(a.gen, b.gen)) << what << " face " << i;
    EXPECT_EQ(std::vector<int>(a.verts.begin(), a.verts.end()),
              std::vector<int>(b.verts.begin(), b.verts.end()))
        << what << " face " << i;
  }
  return !::testing::Test::HasFailure();
}

// A bisector cut by `neighbor`, tagged `id`.
struct Cut {
  Vec3 neighbor;
  std::int64_t id = 0;
};

class ClipOracle : public ::testing::TestWithParam<tg::TessBackend> {
 protected:
  // Clips the cell and its mirror by `plane`; false on any difference.
  bool clip_both(VoronoiCell& cell, MirrorCell& m, const tg::Plane& plane,
                 tg::ClipScratch& scratch, const std::string& what) {
    const bool got = cell.clip(plane, scratch);
    const bool want = oracle_clip(m, plane, GetParam(), &cap_fallbacks_);
    EXPECT_EQ(got, want) << what;
    effective_ += got ? 1 : 0;
    return got == want && expect_matches_oracle(cell, m, what);
  }

  // Drives `cuts` through a cell and the oracle, comparing after each.
  void run(const Vec3& site, const Vec3& lo, const Vec3& hi,
           const std::vector<Cut>& cuts, const std::string& name) {
    tg::ClipScratch scratch;
    scratch.backend = GetParam();
    VoronoiCell cell(site, lo, hi);
    MirrorCell m = mirror(cell);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      const Cut& c = cuts[i];
      const Vec3 n = c.neighbor - site;
      const tg::Plane plane{n, tg::dot(n, (c.neighbor + site) * 0.5), c.id,
                            c.neighbor};
      if (!clip_both(cell, m, plane, scratch, name + " cut " + std::to_string(i)))
        return;
    }
  }

  // Planes through existing vertices, and planes offset from an existing
  // face by exactly the clip tolerance (vertices sit at the in/out
  // threshold, up to their rounding).
  void run_adversarial(const Vec3& site, const Vec3& lo, const Vec3& hi,
                       const std::vector<Cut>& warmup, std::uint64_t seed,
                       const std::string& name) {
    tg::ClipScratch scratch;
    scratch.backend = GetParam();
    VoronoiCell cell(site, lo, hi);
    for (const Cut& c : warmup) cell.cut(c.neighbor, c.id, scratch);
    MirrorCell m = mirror(cell);
    Rng rng(seed);
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
      if (!clip_both(cell, m, plane, scratch, name + " plane " + std::to_string(i)))
        return;
    }
  }

  int effective_ = 0;
  int cap_fallbacks_ = 0;
};

std::vector<Cut> random_cuts(Rng& rng, int n, const Vec3& lo, const Vec3& hi) {
  std::vector<Cut> cuts;
  for (int i = 0; i < n; ++i)
    cuts.push_back({{rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                     rng.uniform(lo.z, hi.z)},
                    i});
  return cuts;
}

}  // namespace

TEST_P(ClipOracle, UniformSites) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Vec3 site{rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)};
    run(site, {0, 0, 0}, {1, 1, 1}, random_cuts(rng, 80, {0, 0, 0}, {1, 1, 1}),
        "uniform seed " + std::to_string(seed));
  }
  EXPECT_GT(effective_, 200);
}

TEST_P(ClipOracle, TwoBlobClusters) {
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
    run(site, {0, 0, 0}, {1, 1, 1}, cuts, "blobs seed " + std::to_string(seed));
  }
  EXPECT_GT(effective_, 200);
}

TEST_P(ClipOracle, CoplanarSites) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Cut> cuts;
    for (int i = 0; i < 60; ++i)
      cuts.push_back({{rng.uniform(0, 2), rng.uniform(0, 2), 0.7}, i});
    run({1.0, 1.0, 0.7}, {0, 0, 0}, {2, 2, 2}, cuts,
        "coplanar seed " + std::to_string(seed));
  }
  EXPECT_GT(effective_, 100);
}

// Lattice neighbors in random order: diagonal bisectors pass exactly
// through existing vertices and edges, repeated neighbors (fresh ids) give
// exactly tangent planes, and the box-face bisectors at distance 4 are
// tangent to the seed box.
TEST_P(ClipOracle, ExactLattice) {
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
    run({0, 0, 0}, {-2, -2, -2}, {2, 2, 2}, cuts, "lattice seed " + std::to_string(seed));
  }
  EXPECT_GT(effective_, 100);
}

TEST_P(ClipOracle, PlanesThroughVerticesAndAtTolerance) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Cut> lattice;
    for (int x = -1; x <= 1; ++x)
      for (int y = -1; y <= 1; ++y)
        if (x != 0 || y != 0) lattice.push_back({{double(x), double(y), 0}, 10 * x + y});
    run_adversarial({0, 0, 0}, {-2, -2, -2}, {2, 2, 2}, lattice, seed,
                    "lattice adversarial seed " + std::to_string(seed));
    run_adversarial({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1},
                    random_cuts(rng, 20, {0, 0, 0}, {1, 1, 1}), seed,
                    "uniform adversarial seed " + std::to_string(seed));
  }
  EXPECT_GT(effective_, 100);
  // Tolerance-offset planes break the cap chain; the angular fallback must
  // be covered too.
  EXPECT_GT(cap_fallbacks_, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ClipOracle,
                         ::testing::Values(tg::TessBackend::kScalar,
                                           tg::TessBackend::kSimd),
                         [](const auto& info) {
                           return std::string(tg::to_string(info.param));
                         });
