// Tests for the paper's §V future-work features implemented here as
// extensions: automatic ghost-size determination and distributed (in situ)
// connected-component labeling; plus a genus-1 Minkowski validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "analysis/components.hpp"
#include "analysis/components_distributed.hpp"
#include "analysis/minkowski.hpp"
#include "analysis/threshold.hpp"
#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::BlockMesh;
using tess::core::TessOptions;
using tess::core::TessStats;
using tess::diy::Decomposition;
using tess::diy::Particle;
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

}  // namespace

// ---------------------------------------------------------------------------
// Automatic ghost-size determination.
// ---------------------------------------------------------------------------

TEST(AutoGhost, ConvergesFromTinyGuess) {
  const double domain = 6.0;
  const auto particles = random_particles(21, 250, domain);

  // Reference with a generous fixed ghost.
  std::map<std::int64_t, double> ref;
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain}, {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(c, d, particles, opt);
    for (const auto& cell : mesh.cells) ref[cell.site_id] = cell.volume;
  });

  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 0.05;  // hopeless starting guess
    opt.auto_ghost = true;
    TessStats stats;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt, &stats);
    EXPECT_GT(stats.auto_iterations, 1);
    EXPECT_GT(stats.ghost_used, 0.05);
    EXPECT_EQ(stats.cells_uncertified, 0u);
    EXPECT_EQ(stats.cells_incomplete, 0u);
    for (const auto& cell : mesh.cells) {
      ASSERT_TRUE(ref.contains(cell.site_id));
      EXPECT_NEAR(cell.volume, ref.at(cell.site_id), 1e-9);
    }
    const auto total = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_EQ(total, 250);
  });
}

TEST(AutoGhost, SingleIterationWhenGuessSufficient) {
  const double domain = 6.0;
  const auto particles = random_particles(22, 300, domain);
  Runtime::run(4, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(4), true);
    TessOptions opt;
    opt.ghost = 3.0;  // already ample
    opt.auto_ghost = true;
    TessStats stats;
    tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt, &stats);
    EXPECT_EQ(stats.auto_iterations, 1);
    EXPECT_DOUBLE_EQ(stats.ghost_used, 3.0);
  });
}

TEST(AutoGhost, CapStopsRunawayGrowth) {
  // Two particles in a big box: cells span the whole domain and can never
  // be certified with a small cap; the loop must stop at the cap.
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {10, 10, 10}, Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 0.5;
    opt.auto_ghost = true;
    opt.auto_ghost_max_fraction = 0.3;
    TessStats stats;
    std::vector<Particle> two;
    if (c.rank() == 0) two = {{{2, 5, 5}, 0}, {{8, 5, 5}, 1}};
    tess::core::standalone_tessellate(c, d, std::move(two), opt, &stats);
    EXPECT_LE(stats.ghost_used, 3.0 + 1e-12);
  });
}

// The stop rule, read back from the output: auto ghost stops at the cap,
// or else at the first doubling of the starting ghost that covers every
// kept cell's security radius 2*Rmax, recomputed here from the mesh's
// vertices and sites. Around the empty ball the cells are large, and the
// vertex-ball certificate proves them exact passes before 2*Rmax fits, so
// a loop that stopped on that certificate would stop early and fail here.
// The tests comparing incremental and scratch runs cannot see that: both
// share the rule.
TEST(AutoGhost, StopsWhereEveryKeptSecurityRadiusFits) {
  constexpr double kDomain = 6.0, kVoid = 1.2, kStart = 0.2;
  const tess::geom::Vec3 centre{3.0, 3.0, 3.0};
  Rng rng(5);
  std::vector<Particle> particles;
  while (particles.size() < 2000) {
    const tess::geom::Vec3 p{rng.uniform(0, kDomain), rng.uniform(0, kDomain),
                             rng.uniform(0, kDomain)};
    if (tess::geom::dist2(p, centre) < kVoid * kVoid) continue;
    particles.push_back({p, static_cast<std::int64_t>(particles.size())});
  }
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain}, {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = kStart;
    opt.auto_ghost = true;
    TessStats stats;
    const BlockMesh mesh =
        tess::core::standalone_tessellate(c, d, particles, opt, &stats);
    ASSERT_EQ(mesh.cells.size(), particles.size());
    double security2 = 0.0;  // largest (2*Rmax)^2 of a kept cell
    for (const auto& cell : mesh.cells)
      for (std::uint32_t f = cell.first_face;
           f < cell.first_face + cell.num_faces; ++f)
        for (std::uint32_t k = mesh.face_offsets[f];
             k < mesh.face_offsets[f + 1]; ++k) {
          const auto& v = mesh.vertices[mesh.face_verts[k]];
          security2 = std::max(security2, 4.0 * tess::geom::dist2(v, cell.site));
        }
    const double cap = opt.auto_ghost_max_fraction * kDomain;
    double expected = kStart;
    int passes = 1;
    while (expected < cap && expected * expected < security2) {
      expected = std::min(2.0 * expected, cap);
      ++passes;
    }
    EXPECT_EQ(stats.ghost_used, expected);
    EXPECT_EQ(stats.auto_iterations, passes);
    EXPECT_GE(passes, 4);  // the void cells drive the later passes
  });
}

TEST(AutoGhost, FixedModeReportsUncertifiedCells) {
  const double domain = 6.0;
  const auto particles = random_particles(23, 60, domain);  // sparse -> big cells
  Runtime::run(4, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(4), true);
    TessOptions opt;
    opt.ghost = 0.8;  // too small for this density
    TessStats stats;
    tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt, &stats);
    const auto uncertified =
        c.allreduce_sum(static_cast<long long>(stats.cells_uncertified));
    EXPECT_GT(uncertified, 0);
  });
}

// ---------------------------------------------------------------------------
// Distributed connected components.
// ---------------------------------------------------------------------------

class DistributedCC : public ::testing::TestWithParam<int> {};

TEST_P(DistributedCC, MatchesSerialLabeling) {
  const int nranks = GetParam();
  const double domain = 8.0;
  const auto particles = random_particles(31, 600, domain);

  Runtime::run(nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(nranks), true);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);

    // Keep only large cells so several separated components exist.
    auto filtered = tess::analysis::filter_mesh(
        mesh, tess::analysis::threshold_cells(mesh, 1.4));

    const auto dist = tess::analysis::distributed_components(c, filtered);
    auto blocks = tess::core::gather_meshes(c, filtered);
    if (c.rank() == 0) {
      tess::analysis::ConnectedComponents serial(blocks);
      ASSERT_EQ(dist.components.size(), serial.num_components());
      for (std::size_t i = 0; i < dist.components.size(); ++i) {
        EXPECT_EQ(dist.components[i].label, serial.components()[i].label);
        EXPECT_EQ(dist.components[i].num_cells, serial.components()[i].num_cells);
        EXPECT_NEAR(dist.components[i].volume, serial.components()[i].volume, 1e-9);
      }
    }
    // Per-cell labels agree with the serial labeling everywhere.
    std::vector<std::int64_t> pairs;
    for (std::size_t i = 0; i < filtered.cells.size(); ++i) {
      pairs.push_back(filtered.cells[i].site_id);
      pairs.push_back(dist.cell_labels[i]);
    }
    auto all = c.gatherv(pairs);
    if (c.rank() == 0) {
      tess::analysis::ConnectedComponents serial(blocks);
      for (std::size_t i = 0; i + 1 < all.size(); i += 2)
        EXPECT_EQ(all[i + 1], serial.label_of(all[i])) << "site " << all[i];
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedCC, ::testing::Values(1, 2, 4, 8));

TEST(DistributedCC, SpanningComponentAcrossAllBlocks) {
  // Full periodic lattice: one component spanning every block.
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 2.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? lattice_particles(8) : std::vector<Particle>{}, opt);
    const auto dist = tess::analysis::distributed_components(c, mesh);
    ASSERT_EQ(dist.components.size(), 1u);
    EXPECT_EQ(dist.components[0].num_cells, 512u);
    EXPECT_EQ(dist.components[0].label, 0);
    for (auto l : dist.cell_labels) EXPECT_EQ(l, 0);
  });
}

TEST(DistributedCC, EmptyBlocksHandled) {
  Runtime::run(4, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(4), true);
    // All particles in one octant; some blocks end up empty after a harsh
    // threshold.
    std::vector<Particle> ps;
    if (c.rank() == 0) ps = random_particles(37, 40, 3.0);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(c, d, std::move(ps), opt);
    const auto dist = tess::analysis::distributed_components(c, mesh);
    EXPECT_EQ(dist.cell_labels.size(), mesh.cells.size());
  });
}

// ---------------------------------------------------------------------------
// Minkowski genus on a nontrivial topology.
// ---------------------------------------------------------------------------

TEST(Minkowski, SquareRingHasGenusOne) {
  // An 3x3 ring of cells (8 cells around a hole) in a 5^3 periodic lattice:
  // the boundary surface is a torus -> Euler characteristic 0, genus 1.
  const int n = 5;
  BlockMesh mesh;
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0},
                    {static_cast<double>(n), static_cast<double>(n),
                     static_cast<double>(n)},
                    {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = 2.0;
    mesh = tess::core::standalone_tessellate(c, d, lattice_particles(n), opt);
  });
  auto lattice_id = [&](int x, int y, int z) {
    return static_cast<std::int64_t>((z * n + y) * n + x);
  };
  std::vector<std::size_t> ring;
  for (std::size_t i = 0; i < mesh.cells.size(); ++i) {
    const auto id = mesh.cells[i].site_id;
    for (int x = 1; x <= 3; ++x)
      for (int y = 1; y <= 3; ++y)
        if (!(x == 2 && y == 2) && id == lattice_id(x, y, 2)) ring.push_back(i);
  }
  ASSERT_EQ(ring.size(), 8u);
  auto torus = tess::analysis::filter_mesh(mesh, ring);
  tess::analysis::ConnectedComponents cc({torus});
  ASSERT_EQ(cc.num_components(), 1u);
  const auto m = tess::analysis::minkowski_functionals({torus}, cc,
                                                       cc.components()[0].label);
  EXPECT_NEAR(m.volume, 8.0, 1e-9);
  EXPECT_NEAR(m.area, 8.0 * 4.0 + 2.0 * (9.0 - 1.0) - 8.0 * 2.0, 1e-9);
  EXPECT_EQ(m.euler, 0);  // torus
  EXPECT_NEAR(m.genus(), 1.0, 1e-12);
}
