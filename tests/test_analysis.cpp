// Tests for the postprocessing stack: reader, threshold filter, connected
// components, Minkowski functionals (validated against closed-form values
// for boxes), and density-contrast statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <numbers>

#include "analysis/components.hpp"
#include "analysis/density.hpp"
#include "analysis/minkowski.hpp"
#include "analysis/reader.hpp"
#include "analysis/threshold.hpp"
#include "comm/comm.hpp"
#include "core/standalone.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::BlockMesh;
using tess::core::TessOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::analysis::ConnectedComponents;

namespace {

std::vector<Particle> lattice_particles(int n) {
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        ps.push_back({{x + 0.5, y + 0.5, z + 0.5}, id++});
  return ps;
}

// Tessellate an n^3 periodic lattice serially and return the single block.
BlockMesh lattice_mesh(int n) {
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
  return mesh;
}

// Keep only the cells whose site ids are in `keep`.
BlockMesh select_sites(const BlockMesh& mesh, const std::vector<std::int64_t>& keep) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < mesh.cells.size(); ++i)
    if (std::find(keep.begin(), keep.end(), mesh.cells[i].site_id) != keep.end())
      idx.push_back(i);
  return tess::analysis::filter_mesh(mesh, idx);
}

std::int64_t lattice_id(int n, int x, int y, int z) {
  return (static_cast<std::int64_t>(z) * n + y) * n + x;
}

}  // namespace

TEST(Threshold, SelectsVolumeRange) {
  auto mesh = lattice_mesh(4);
  // All cells have volume 1.
  EXPECT_EQ(tess::analysis::threshold_cells(mesh, 0.5).size(), 64u);
  EXPECT_EQ(tess::analysis::threshold_cells(mesh, 1.5).size(), 0u);
  EXPECT_EQ(tess::analysis::threshold_cells(mesh, 0.5, 0.9).size(), 0u);
  EXPECT_EQ(tess::analysis::threshold_cells(mesh, 0.0, 2.0).size(), 64u);
}

TEST(Threshold, FilterMeshKeepsGeometry) {
  auto mesh = lattice_mesh(4);
  auto filtered = tess::analysis::filter_mesh(mesh, {0, 5, 10});
  ASSERT_EQ(filtered.cells.size(), 3u);
  for (const auto& c : filtered.cells) {
    EXPECT_NEAR(c.volume, 1.0, 1e-9);
    EXPECT_EQ(c.num_faces, 6u);
  }
  EXPECT_EQ(filtered.face_neighbors.size(), 18u);
}

TEST(ConnectedComponents, FullLatticeIsOneComponent) {
  auto mesh = lattice_mesh(4);
  ConnectedComponents cc({mesh});
  EXPECT_EQ(cc.num_components(), 1u);
  EXPECT_EQ(cc.components()[0].num_cells, 64u);
  EXPECT_NEAR(cc.components()[0].volume, 64.0, 1e-6);
}

TEST(ConnectedComponents, TwoSlabsAreTwoComponents) {
  const int n = 8;
  auto mesh = lattice_mesh(n);
  // Two x-slabs separated by empty layers (periodic gap on both sides).
  std::vector<std::int64_t> keep;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        if (x == 1 || x == 2 || x == 5) keep.push_back(lattice_id(n, x, y, z));
  auto two = select_sites(mesh, keep);
  ConnectedComponents cc({two});
  ASSERT_EQ(cc.num_components(), 2u);
  // Sorted by volume: the double slab first.
  EXPECT_EQ(cc.components()[0].num_cells, 2u * n * n);
  EXPECT_EQ(cc.components()[1].num_cells, 1u * n * n);
}

TEST(ConnectedComponents, LabelsAreConsistent) {
  const int n = 4;
  auto mesh = lattice_mesh(n);
  ConnectedComponents cc({mesh});
  const auto label = cc.components()[0].label;
  for (const auto& cell : mesh.cells) EXPECT_EQ(cc.label_of(cell.site_id), label);
  EXPECT_EQ(cc.label_of(999999), -1);
  EXPECT_EQ(cc.sites_of(label).size(), 64u);
}

TEST(ConnectedComponents, DiagonalCellsAreSeparate) {
  // Two cells touching only along an edge/corner do not share a face and
  // must not connect.
  const int n = 4;
  auto mesh = lattice_mesh(n);
  auto two = select_sites(mesh, {lattice_id(n, 0, 0, 0), lattice_id(n, 1, 1, 1)});
  ConnectedComponents cc({two});
  EXPECT_EQ(cc.num_components(), 2u);
}

TEST(Minkowski, UnitCubeClosedForm) {
  const int n = 4;
  auto mesh = lattice_mesh(n);
  auto one = select_sites(mesh, {lattice_id(n, 1, 1, 1)});
  ConnectedComponents cc({one});
  ASSERT_EQ(cc.num_components(), 1u);
  const auto m = tess::analysis::minkowski_functionals({one}, cc,
                                                       cc.components()[0].label);
  EXPECT_NEAR(m.volume, 1.0, 1e-9);
  EXPECT_NEAR(m.area, 6.0, 1e-9);
  // Integrated mean curvature of a unit cube: 3*pi*a = 3*pi.
  EXPECT_NEAR(m.curvature, 3.0 * std::numbers::pi, 1e-9);
  EXPECT_EQ(m.euler, 2);
  EXPECT_NEAR(m.genus(), 0.0, 1e-12);
  EXPECT_EQ(m.boundary_faces, 6u);
  EXPECT_EQ(m.boundary_edges, 12u);
  EXPECT_EQ(m.boundary_vertices, 8u);
  // Derived SURFGEN metrics.
  EXPECT_NEAR(m.thickness(), 0.5, 1e-9);
  EXPECT_NEAR(m.breadth(), 6.0 / (3.0 * std::numbers::pi), 1e-9);
  EXPECT_NEAR(m.length(), 0.75, 1e-9);
}

TEST(Minkowski, TwoCellBoxClosedForm) {
  // A 2x1x1 box of two cells: V=2, S=10, C=pi*(2+1+1)=4*pi, genus 0. The
  // shared interior face must be excluded and its edges welded.
  const int n = 4;
  auto mesh = lattice_mesh(n);
  auto pair = select_sites(mesh, {lattice_id(n, 1, 1, 1), lattice_id(n, 2, 1, 1)});
  ConnectedComponents cc({pair});
  ASSERT_EQ(cc.num_components(), 1u);
  const auto m = tess::analysis::minkowski_functionals({pair}, cc,
                                                       cc.components()[0].label);
  EXPECT_NEAR(m.volume, 2.0, 1e-9);
  EXPECT_NEAR(m.area, 10.0, 1e-9);
  EXPECT_NEAR(m.curvature, 4.0 * std::numbers::pi, 1e-9);
  EXPECT_EQ(m.euler, 2);
  EXPECT_NEAR(m.genus(), 0.0, 1e-12);
}

TEST(Minkowski, LShapeClosedForm) {
  // Three cells in an L-tromino: the concave edge contributes -pi/4 and two
  // extra convex vertical edges contribute +pi/4 each relative to the
  // straight row, so C is exactly the row value 5*pi as well — but with a
  // genuinely concave edge in the sum. Volume and area differ from a box.
  const int n = 4;
  auto mesh = lattice_mesh(n);
  auto row = select_sites(mesh, {lattice_id(n, 0, 1, 1), lattice_id(n, 1, 1, 1),
                                 lattice_id(n, 2, 1, 1)});
  ConnectedComponents ccr({row});
  const auto mr =
      tess::analysis::minkowski_functionals({row}, ccr, ccr.components()[0].label);
  EXPECT_NEAR(mr.curvature, 5.0 * std::numbers::pi, 1e-9);

  auto ell = select_sites(mesh, {lattice_id(n, 1, 1, 1), lattice_id(n, 2, 1, 1),
                                 lattice_id(n, 2, 2, 1)});
  ConnectedComponents cce({ell});
  ASSERT_EQ(cce.num_components(), 1u);
  const auto me =
      tess::analysis::minkowski_functionals({ell}, cce, cce.components()[0].label);
  EXPECT_NEAR(me.volume, 3.0, 1e-9);
  EXPECT_NEAR(me.area, 14.0, 1e-9);
  EXPECT_NEAR(me.curvature, 5.0 * std::numbers::pi, 1e-9);
  EXPECT_EQ(me.euler, 2);
}

TEST(Minkowski, AllComponents) {
  const int n = 4;
  auto mesh = lattice_mesh(n);
  auto two = select_sites(mesh, {lattice_id(n, 0, 0, 0), lattice_id(n, 2, 2, 2)});
  ConnectedComponents cc({two});
  const auto all = tess::analysis::minkowski_all({two}, cc);
  ASSERT_EQ(all.size(), 2u);
  for (const auto& m : all) EXPECT_NEAR(m.volume, 1.0, 1e-9);
}

TEST(Density, ContrastOfUniformLatticeIsZero) {
  auto mesh = lattice_mesh(4);
  const auto d = tess::analysis::density_contrast({mesh});
  ASSERT_EQ(d.size(), 64u);
  for (double x : d) EXPECT_NEAR(x, 0.0, 1e-9);
}

TEST(Density, VolumesAndHistogram) {
  auto mesh = lattice_mesh(4);
  const auto v = tess::analysis::cell_volumes({mesh});
  ASSERT_EQ(v.size(), 64u);
  auto h = tess::analysis::volume_histogram({mesh}, 0.0, 2.0, 10);
  EXPECT_EQ(h.total(), 64u);
  // All volumes are 1 +/- rounding, landing in the bins adjoining 1.0.
  EXPECT_EQ(h.count(4) + h.count(5), 64u);
  auto hd = tess::analysis::density_contrast_histogram({mesh}, 8);
  EXPECT_EQ(hd.moments().count(), 64u);
}

TEST(Reader, RoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "tess_analysis_reader.bin";
  Runtime::run(4, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {6, 6, 6}, Decomposition::factor(4), true);
    TessOptions opt;
    opt.ghost = 2.0;
    tess::core::Tessellator t(c, d, opt);
    auto mine = tess::diy::migrate_items(
        c, d, c.rank() == 0 ? lattice_particles(6) : std::vector<Particle>{},
        [](Particle& p) -> tess::geom::Vec3& { return p.pos; });
    auto mesh = t.tessellate(mine);
    t.write(path, mesh);
  });
  tess::analysis::TessReader reader(path);
  EXPECT_EQ(reader.num_blocks(), 4);
  auto all = reader.read_all();
  std::size_t cells = 0;
  for (const auto& m : all) cells += m.cells.size();
  EXPECT_EQ(cells, 216u);
  // Round-robin split covers everything exactly once.
  std::size_t split = 0;
  for (int r = 0; r < 3; ++r)
    for (const auto& m : reader.read_my_blocks(r, 3)) split += m.cells.size();
  EXPECT_EQ(split, 216u);
  // Components across blocks: the full periodic lattice is one void.
  ConnectedComponents cc(all);
  EXPECT_EQ(cc.num_components(), 1u);
  std::remove(path.c_str());
  // The footer index was read and validated once, when the reader opened.
  EXPECT_EQ(reader.num_blocks(), 4);
}
