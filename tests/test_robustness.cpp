// Failure-injection and degenerate-input robustness across the stack:
// pathological point configurations for the geometry kernel, extreme
// options for the tessellation pipeline, and malformed analysis inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "geom/cell_builder.hpp"
#include "geom/convex_hull.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::TessOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

TEST(Robustness, CosphericalPointsHull) {
  // Many exactly cospherical points (vertices of a subdivided octahedron
  // normalized to the sphere would not be exactly cospherical in doubles;
  // use symmetric integer points on a sphere of radius^2 = 9).
  std::vector<Vec3> pts;
  for (int x = -3; x <= 3; ++x)
    for (int y = -3; y <= 3; ++y)
      for (int z = -3; z <= 3; ++z)
        if (x * x + y * y + z * z == 9)
          pts.push_back({double(x), double(y), double(z)});
  ASSERT_GE(pts.size(), 6u);
  const auto hull = tess::geom::convex_hull(pts);
  ASSERT_FALSE(hull.degenerate);
  EXPECT_EQ(hull.vertices.size(), pts.size());  // all on the hull
  EXPECT_GT(hull.volume, 0.0);
}

TEST(Robustness, NearlyCoincidentClusterTessellation) {
  // A tight cluster (spacing ~1e-9) plus regular points: cells of the
  // cluster members are minuscule but the pipeline must not crash and the
  // partition property must hold.
  Rng rng(99);
  std::vector<Particle> ps;
  for (int i = 0; i < 20; ++i)
    ps.push_back({{5.0 + 1e-9 * rng.normal(), 5.0 + 1e-9 * rng.normal(),
                   5.0 + 1e-9 * rng.normal()},
                  i});
  for (int i = 20; i < 120; ++i)
    ps.push_back({{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)}, i});
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {10, 10, 10}, Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 5.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    double vol = 0.0;
    for (const auto& cell : mesh.cells) vol += cell.volume;
    const double total = c.allreduce_sum(vol);
    EXPECT_NEAR(total, 1000.0, 1e-3);
  });
}

TEST(Robustness, CollinearAndCoplanarParticles) {
  // All particles on one plane: every 3D Voronoi cell is a slab reaching
  // the seed box -> all incomplete, none emitted, no crash.
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int x = 0; x < 6; ++x)
    for (int y = 0; y < 6; ++y) ps.push_back({{x + 0.5, y + 0.5, 3.0}, id++});
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {6, 6, 6}, {1, 1, 1}, false);
    TessOptions opt;
    opt.ghost = 1.0;
    tess::core::TessStats stats;
    auto mesh = tess::core::standalone_tessellate(c, d, ps, opt, &stats);
    EXPECT_EQ(mesh.cells.size(), 0u);
    EXPECT_EQ(stats.cells_incomplete, 36u);
  });
}

TEST(Robustness, GhostLargerThanBlock) {
  // Ghost region wider than the block itself must still work (every
  // particle goes everywhere).
  Rng rng(7);
  std::vector<Particle> ps;
  for (int i = 0; i < 64; ++i)
    ps.push_back({{rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0, 4)}, i});
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {4, 4, 4}, Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 3.5;  // block side is 2
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    const auto kept = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_EQ(kept, 64);
  });
}

TEST(Robustness, SingleParticlePeriodicDomain) {
  // One particle in a periodic box: its cell is the whole box (bounded by
  // its own periodic images).
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {5, 5, 5}, {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = 1.0;
    opt.auto_ghost = true;  // must grow until the images close the cell
    tess::core::TessStats stats;
    auto mesh = tess::core::standalone_tessellate(
        c, d, {{{2.5, 2.5, 2.5}, 0}}, opt, &stats);
    ASSERT_EQ(mesh.cells.size(), 1u);
    EXPECT_NEAR(mesh.cells[0].volume, 125.0, 1e-9);
    EXPECT_GT(stats.auto_iterations, 1);
  });
}

TEST(Robustness, MaxVolumeThresholdDropsVoidCells) {
  Rng rng(13);
  std::vector<Particle> ps;
  for (int i = 0; i < 200; ++i)
    ps.push_back({{rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)}, i});
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 4.0;
    opt.max_volume = 2.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    for (const auto& cell : mesh.cells) EXPECT_LE(cell.volume, 2.0);
  });
}

TEST(Robustness, DegenerateLatticeAcrossManyRanks) {
  // Exactly degenerate (cospherical everywhere) input on 8 ranks, with
  // duplicate-prone block boundaries aligned with the lattice planes.
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) ps.push_back({{x + 0.5, y + 0.5, z + 0.5}, id++});
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 2.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    double vol = 0.0;
    for (const auto& cell : mesh.cells) {
      EXPECT_NEAR(cell.volume, 1.0, 1e-9);
      vol += cell.volume;
    }
    EXPECT_NEAR(c.allreduce_sum(vol), 512.0, 1e-6);
  });
}

namespace {

/// Periodic m^3 unit lattice jittered by up to 1e-9 per axis, ids reversed
/// (the lattice_jitter_* input of tools/mesh_hashes).
std::vector<Particle> jittered_lattice(int m) {
  Rng rng(12);
  const std::int64_t total = static_cast<std::int64_t>(m) * m * m;
  std::vector<Particle> ps;
  for (int k = 0; k < m; ++k)
    for (int j = 0; j < m; ++j)
      for (int i = 0; i < m; ++i) {
        const Vec3 p = Vec3{i + 0.5, j + 0.5, k + 0.5} +
                       Vec3{rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9),
                            rng.uniform(-1e-9, 1e-9)};
        ps.push_back({p, total - 1 - static_cast<std::int64_t>(ps.size())});
      }
  return ps;
}

/// Sum of the kept volumes and the largest squared site-to-vertex distance
/// over every rank's block.
struct KeptSummary {
  double volume = 0.0;
  double max_radius2 = 0.0;
};

KeptSummary auto_ghost_summary(const std::vector<Particle>& ps, double domain,
                               bool periodic, int ranks, bool incremental,
                               double ghost) {
  std::vector<KeptSummary> per_rank(static_cast<std::size_t>(ranks));
  Runtime::run(ranks, [&](Comm& c) {
    const Decomposition d({0, 0, 0}, {domain, domain, domain},
                          Decomposition::factor(ranks), periodic);
    TessOptions opt;
    opt.ghost = ghost;
    opt.auto_ghost = true;
    opt.incremental = incremental;
    const auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    KeptSummary& k = per_rank[static_cast<std::size_t>(c.rank())];
    for (const auto& cell : mesh.cells) {
      k.volume += cell.volume;
      for (std::uint32_t f = cell.first_face; f < cell.first_face + cell.num_faces;
           ++f)
        for (std::uint32_t i = mesh.face_offsets[f]; i < mesh.face_offsets[f + 1];
             ++i)
          k.max_radius2 = std::max(
              k.max_radius2,
              tess::geom::dist2(cell.site, mesh.vertices[mesh.face_verts[i]]));
    }
  });
  KeptSummary all;
  for (const auto& k : per_rank) {
    all.volume += k.volume;
    all.max_radius2 = std::max(all.max_radius2, k.max_radius2);
  }
  return all;
}

}  // namespace

// A periodic unit lattice jittered by 1e-9 under auto ghost: every true
// cell is a unit cube (Rmax^2 = 0.75), so the kept cells must tile the box
// exactly on every decomposition and with incremental passes on or off.
// Two faults once broke this: a crossing computed off its edge (a kept
// vertex up to the clip tolerance outside the plane), and canonicalize()
// taking an ill-conditioned generator solve that moved vertices by up to
// the cell size; kept volumes then summed to 1765.5-1766.2 and Rmax^2
// reached 1414. canonicalize() now keeps such vertices clipped and counts
// them in geom.canon_kept_clipped.
TEST(Robustness, JitteredLatticeAutoGhostTilesTheBox) {
  constexpr int kSide = 12;
  constexpr double kBox = kSide * kSide * kSide;
  const auto ps = jittered_lattice(kSide);
  tess::obs::metrics().reset();
  for (const int ranks : {1, 2, 4, 8})
    for (const bool incremental : {true, false}) {
      const std::string what = std::to_string(ranks) + " ranks, incremental " +
                               (incremental ? "on" : "off");
      const KeptSummary k =
          auto_ghost_summary(ps, kSide, true, ranks, incremental, 0.5);
      EXPECT_NEAR(k.volume, kBox, 1e-9 * kBox) << what;
      EXPECT_LE(k.max_radius2, 0.75 + 1e-6) << what;
    }
#if TESS_OBS_ENABLED
  EXPECT_GT(tess::obs::metrics().counter("geom.canon_kept_clipped").value(), 0u);
#endif
}

// On generic input the generator solve is well conditioned: canonicalize()
// keeps no vertex clipped on the two-blob open cloud of tools/mesh_hashes.
TEST(Robustness, CanonicalizeKeepsNoVertexClippedOnClusteredCloud) {
  constexpr double kDomain = 6.0;
  Rng rng(7);
  const Vec3 c1{0.30 * kDomain, 0.62 * kDomain, 0.40 * kDomain};
  const Vec3 c2{0.72 * kDomain, 0.22 * kDomain, 0.66 * kDomain};
  const auto reflect = [](double x) {
    if (x < 0.0) x = -x;
    if (x >= kDomain) x = 2.0 * kDomain - x;
    return std::fmin(std::fmax(x, 0.0), std::nextafter(kDomain, 0.0));
  };
  std::vector<Particle> ps;
  for (int i = 0; i < 3000; ++i) {
    Vec3 p;
    if (i % 2 == 0) {
      p = {rng.normal(c1.x, 0.05 * kDomain), rng.normal(c1.y, 0.05 * kDomain),
           rng.normal(c1.z, 0.05 * kDomain)};
    } else if (i % 4 == 1) {
      p = {rng.normal(c2.x, 0.08 * kDomain), rng.normal(c2.y, 0.08 * kDomain),
           rng.normal(c2.z, 0.08 * kDomain)};
    } else {
      p = {rng.uniform(0.0, kDomain), rng.uniform(0.0, kDomain),
           rng.uniform(0.0, kDomain)};
    }
    ps.push_back({{reflect(p.x), reflect(p.y), reflect(p.z)}, i});
  }
  tess::obs::metrics().reset();
  const KeptSummary k = auto_ghost_summary(ps, kDomain, false, 4, true, 0.3);
  EXPECT_GT(k.volume, 0.0);
  EXPECT_EQ(tess::obs::metrics().counter("geom.canon_kept_clipped").value(), 0u);
}
