// Tests for the block decomposition: bounds tiling, point lookup, neighbor
// symmetry, periodic shifts, and the mass-weighted k-d tiling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>

#include "diy/decomposition.hpp"
#include "util/rng.hpp"

using tess::diy::Bounds;
using tess::diy::Decomposition;
using tess::diy::Neighbor;
using tess::geom::Vec3;
using tess::util::Rng;

TEST(Bounds, ContainsAndDistance) {
  Bounds b{{0, 0, 0}, {1, 2, 3}};
  EXPECT_TRUE(b.contains({0.5, 1.0, 2.9}));
  EXPECT_TRUE(b.contains({0, 0, 0}));       // min inclusive
  EXPECT_FALSE(b.contains({1, 0.5, 0.5}));  // max exclusive
  EXPECT_DOUBLE_EQ(b.distance({0.5, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(b.distance({-1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(b.distance({2, 3, 3}), std::sqrt(2.0));
}

TEST(Bounds, Grown) {
  Bounds b{{0, 0, 0}, {1, 1, 1}};
  const auto g = b.grown(0.25);
  EXPECT_DOUBLE_EQ(g.min.x, -0.25);
  EXPECT_DOUBLE_EQ(g.max.z, 1.25);
}

TEST(Decomposition, FactorNearCubic) {
  EXPECT_EQ(Decomposition::factor(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(Decomposition::factor(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(Decomposition::factor(64), (std::array<int, 3>{4, 4, 4}));
  const auto f12 = Decomposition::factor(12);
  EXPECT_EQ(f12[0] * f12[1] * f12[2], 12);
  const auto f7 = Decomposition::factor(7);
  EXPECT_EQ(f7[0] * f7[1] * f7[2], 7);
}

TEST(Decomposition, BlockBoundsTileDomain) {
  Decomposition d({0, 0, 0}, {10, 10, 10}, {2, 2, 2}, false);
  double vol = 0.0;
  for (int b = 0; b < d.num_blocks(); ++b) {
    const auto bb = d.block_bounds(b);
    vol += (bb.max.x - bb.min.x) * (bb.max.y - bb.min.y) * (bb.max.z - bb.min.z);
  }
  EXPECT_DOUBLE_EQ(vol, 1000.0);
}

TEST(Decomposition, BlockOfPointConsistent) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {3, 2, 4}, false);
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    const int b = d.block_of_point(p);
    EXPECT_TRUE(d.block_bounds(b).contains(p));
  }
}

TEST(Decomposition, IndexRoundTrip) {
  // Grid blocks are numbered x fastest: block (cz * 4 + cy) * 3 + cx spans
  // grid cell (cx, cy, cz), and routing that cell's centre finds it again.
  const std::array<int, 3> dims{3, 4, 5};
  Decomposition d({0, 0, 0}, {1, 1, 1}, dims, true);
  for (int b = 0; b < d.num_blocks(); ++b) {
    const std::array<int, 3> c{b % 3, (b / 3) % 4, b / 12};
    const auto bb = d.block_bounds(b);
    Vec3 centre;
    for (std::size_t a = 0; a < 3; ++a) {
      centre[a] = (c[a] + 0.5) / dims[a];
      EXPECT_LT(bb.min[a], centre[a]) << "block " << b;
      EXPECT_GT(bb.max[a], centre[a]) << "block " << b;
    }
    EXPECT_EQ(d.block_of_point(centre), b);
  }
  EXPECT_THROW((void)d.block_bounds(d.num_blocks()), std::out_of_range);
}

TEST(Decomposition, BlockOfPointAgreesWithBoundsNearPlanes) {
  // Every double within 64 ulps of an interior grid plane routes to a block
  // whose half-open bounds contain it: x = 1.9999999999999998 on [0, 6)
  // with 3 blocks belongs to block 0, [0, 2), although truncating
  // (x - min) / size * dims gives 1.
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<Vec3, Vec3> domains[] = {
      {{0, 0, 0}, {6, 6, 6}}, {{0.1, -2.5, 3.3}, {1.7, 0.9, 8.45}}};
  for (const auto& [lo, hi] : domains)
    for (int n : {2, 3, 5, 6})
      for (bool periodic : {false, true}) {
        const Decomposition d(lo, hi, {n, n, n}, periodic);
        const int stride[3] = {1, n, n * n};
        for (std::size_t a = 0; a < 3; ++a)
          for (int c = 1; c < n; ++c) {
            const double plane = d.block_bounds(c * stride[a]).min[a];
            Vec3 p = lo + 0.37 * (hi - lo);
            p[a] = plane;
            for (int k = 0; k < 64; ++k) p[a] = std::nextafter(p[a], -inf);
            for (int k = 0; k <= 128; ++k, p[a] = std::nextafter(p[a], inf))
              EXPECT_TRUE(d.block_bounds(d.block_of_point(p)).contains(p))
                  << "n " << n << " axis " << a << " plane " << c << " at "
                  << p[a];
          }
      }

  // Grid bounds are the grid planes, bit for bit: min + (size / dims) * c,
  // with the domain maximum on the last block of each axis.
  const Vec3 lo{0.1, -2.5, 3.3}, hi{1.7, 0.9, 8.45};
  const std::array<int, 3> dims{3, 4, 5};
  const Decomposition d(lo, hi, dims, false);
  const Vec3 size = hi - lo;
  for (int b = 0; b < d.num_blocks(); ++b) {
    const std::array<int, 3> c{b % 3, (b / 3) % 4, b / 12};
    const auto bb = d.block_bounds(b);
    for (std::size_t a = 0; a < 3; ++a) {
      const double w = size[a] / dims[a];
      EXPECT_EQ(bb.min[a], lo[a] + w * c[a]) << "block " << b;
      EXPECT_EQ(bb.max[a], c[a] + 1 == dims[a] ? hi[a] : lo[a] + w * (c[a] + 1))
          << "block " << b;
    }
  }
}

TEST(Decomposition, NonPeriodicCornerHas7Neighbors) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {2, 2, 2}, false);
  // Corner block of a 2x2x2 grid.
  EXPECT_EQ(d.neighbors_within(0, 0.0).size(), 7u);
  for (const auto& nb : d.neighbors_within(0, 0.0))
    EXPECT_EQ(nb.shift, (Vec3{0, 0, 0}));
}

TEST(Decomposition, PeriodicBlockHas26NeighborRelations) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {3, 3, 3}, true);
  // 3^3 grid: all 26 neighbor blocks are distinct.
  // Center block, no shifts.
  EXPECT_EQ(d.neighbors_within(13, 0.0).size(), 26u);
  for (const auto& nb : d.neighbors_within(13, 0.0))
    EXPECT_EQ(nb.shift, (Vec3{0, 0, 0}));
  // Corner block: all 26 relations exist, some with shifts.
  const auto nbrs = d.neighbors_within(0, 0.0);
  EXPECT_EQ(nbrs.size(), 26u);
  int shifted = 0;
  for (const auto& nb : nbrs)
    if (!(nb.shift == Vec3{0, 0, 0})) ++shifted;
  EXPECT_GT(shifted, 0);
}

TEST(Decomposition, PeriodicShiftMovesPointAcrossDomain) {
  Decomposition d({0, 0, 0}, {10, 10, 10}, {2, 1, 1}, true);
  // Block 0 spans x in [0,5); its -x neighbor is block 1 with shift +10.
  bool found = false;
  for (const auto& nb : d.neighbors_within(0, 0.0)) {
    if (nb.block == 1 && nb.shift == (Vec3{10, 0, 0})) {
      found = true;
      // A particle at x=0.1 imaged for that neighbor lands at x=10.1, just
      // outside block 1's high edge — the correct ghost position.
      const Vec3 img = Vec3{0.1, 5, 5} + nb.shift;
      EXPECT_NEAR(d.block_bounds(1).distance(img), 0.1, 1e-12);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Decomposition, NeighborSymmetry) {
  // If A has neighbor (B, s) then B has neighbor (A, -s).
  for (bool periodic : {false, true}) {
    Decomposition d({0, 0, 0}, {1, 1, 1}, {2, 3, 2}, periodic);
    for (int a = 0; a < d.num_blocks(); ++a)
      for (const auto& nb : d.neighbors_within(a, 0.0)) {
        const auto back = d.neighbors_within(nb.block, 0.0);
        const Neighbor expect{a, -nb.shift};
        EXPECT_NE(std::find(back.begin(), back.end(), expect), back.end())
            << "block " << a << " -> " << nb.block << " periodic " << periodic;
      }
  }
}

TEST(Decomposition, SingleBlockPeriodicSelfNeighbors) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {1, 1, 1}, true);
  const auto nbrs = d.neighbors_within(0, 0.0);
  EXPECT_FALSE(nbrs.empty());
  for (const auto& nb : nbrs) {
    EXPECT_EQ(nb.block, 0);
    EXPECT_FALSE(nb.shift == (Vec3{0, 0, 0}));  // all are wrap images
  }
}

TEST(Decomposition, WrapPoint) {
  Decomposition d({0, 0, 0}, {10, 10, 10}, {2, 2, 2}, true);
  const Vec3 w = d.wrap({-1, 11, 5});
  EXPECT_DOUBLE_EQ(w.x, 9);
  EXPECT_DOUBLE_EQ(w.y, 1);
  EXPECT_DOUBLE_EQ(w.z, 5);
  Decomposition dn({0, 0, 0}, {10, 10, 10}, {2, 2, 2}, false);
  EXPECT_DOUBLE_EQ(dn.wrap({-1, 11, 5}).x, -1);  // no-op
}

TEST(Decomposition, InvalidArgumentsThrow) {
  EXPECT_THROW(Decomposition({0, 0, 0}, {1, 1, 1}, {0, 1, 1}, false),
               std::invalid_argument);
  EXPECT_THROW(Decomposition({0, 0, 0}, {0, 1, 1}, {1, 1, 1}, false),
               std::invalid_argument);
  EXPECT_THROW(Decomposition::factor(0), std::invalid_argument);
  EXPECT_THROW((Decomposition{{0, 0, 0}, {1, 1, 1}, false, 2, {}}),
               std::invalid_argument);  // split count != nblocks - 1
}

// ---------------------------------------------------------------------------
// Neighbor discovery (neighbors_within)
// ---------------------------------------------------------------------------

namespace {

/// The 26-stencil of a grid block, numbered x fastest: each offset's block,
/// wrapped across a periodic face with the shift a point sent there needs
/// (dropped at a non-periodic face), each distinct (block, shift) once.
std::vector<Neighbor> grid_stencil(const std::array<int, 3>& dims,
                                   const Vec3& size, bool periodic,
                                   int block) {
  const std::array<int, 3> c{block % dims[0], (block / dims[0]) % dims[1],
                             block / (dims[0] * dims[1])};
  std::vector<Neighbor> out;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        std::array<int, 3> nc{c[0] + dx, c[1] + dy, c[2] + dz};
        Vec3 shift{};
        bool valid = true;
        for (std::size_t a = 0; a < 3; ++a) {
          if (nc[a] < 0 || nc[a] >= dims[a]) {
            valid = valid && periodic;
            // Crossing the low face reappears near the high face: +size.
            shift[a] = nc[a] < 0 ? size[a] : -size[a];
            nc[a] = (nc[a] + dims[a]) % dims[a];
          }
        }
        if (!valid) continue;
        const Neighbor nb{(nc[2] * dims[1] + nc[1]) * dims[0] + nc[0], shift};
        if (std::find(out.begin(), out.end(), nb) == out.end())
          out.push_back(nb);
      }
  return out;
}

}  // namespace

TEST(Decomposition, NeighborsWithinMatchesGridStencilForSmallReach) {
  // For a reach below the block width, box-overlap discovery must find the
  // exact 26-stencil set (same blocks, same shifts) on a regular grid.
  auto key = [](const Neighbor& n) {
    return std::make_tuple(n.block, n.shift.x, n.shift.y, n.shift.z);
  };
  auto cmp = [&](const Neighbor& a, const Neighbor& c) {
    return key(a) < key(c);
  };
  for (const std::array<int, 3> dims :
       {std::array<int, 3>{3, 3, 3}, std::array<int, 3>{1, 2, 4}})
    for (bool periodic : {false, true}) {
      Decomposition d({0, 0, 0}, {9, 9, 9}, dims, periodic);
      for (int b = 0; b < d.num_blocks(); ++b) {
        auto stencil = grid_stencil(dims, d.domain_size(), periodic, b);
        std::sort(stencil.begin(), stencil.end(), cmp);
        for (double reach : {0.0, 0.5}) {
          auto within = d.neighbors_within(b, reach);
          std::sort(within.begin(), within.end(), cmp);
          EXPECT_EQ(stencil, within) << "block " << b << " periodic "
                                     << periodic << " reach " << reach;
        }
      }
    }
}

TEST(Decomposition, NeighborsWithinReachesPastAdjacentBlocks) {
  // A reach wider than one block must discover blocks two cells away —
  // the latent gap the fixed 26-stencil could not express.
  Decomposition d({0, 0, 0}, {12, 12, 12}, {4, 1, 1}, false);
  const auto near = d.neighbors_within(0, 1.0);   // only block 1 (width 3)
  const auto far = d.neighbors_within(0, 3.5);    // blocks 1 and 2
  auto has_block = [](const std::vector<Neighbor>& v, int b) {
    return std::any_of(v.begin(), v.end(),
                       [b](const Neighbor& n) { return n.block == b; });
  };
  EXPECT_TRUE(has_block(near, 1));
  EXPECT_FALSE(has_block(near, 2));
  EXPECT_TRUE(has_block(far, 1));
  EXPECT_TRUE(has_block(far, 2));
  EXPECT_FALSE(has_block(far, 3));
}

TEST(Decomposition, NeighborsWithinSymmetry) {
  // (A has (B, s) within r) <=> (B has (A, -s) within r), for both layouts.
  Rng rng(31);
  std::vector<Vec3> pts;
  for (int i = 0; i < 500; ++i)
    pts.push_back({rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)});
  for (bool periodic : {false, true}) {
    const Decomposition grid({0, 0, 0}, {8, 8, 8}, {2, 2, 2}, periodic);
    const auto tree =
        Decomposition::kd({0, 0, 0}, {8, 8, 8}, periodic, 8, pts);
    for (const Decomposition* d : {&grid, &tree}) {
      for (int a = 0; a < d->num_blocks(); ++a)
        for (const auto& nb : d->neighbors_within(a, 1.3)) {
          const auto back = d->neighbors_within(nb.block, 1.3);
          const Neighbor expect{a, -nb.shift};
          EXPECT_NE(std::find(back.begin(), back.end(), expect), back.end())
              << "block " << a << " -> " << nb.block << " periodic "
              << periodic;
        }
    }
  }
}

// ---------------------------------------------------------------------------
// Mass-weighted k-d decomposition
// ---------------------------------------------------------------------------

namespace {

/// Clustered cloud: a dense Plummer-like blob plus a uniform background.
std::vector<Vec3> clustered_points(int n, double domain, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  const Vec3 center{0.3 * domain, 0.6 * domain, 0.4 * domain};
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 2 == 0) {
      p = {center.x + rng.normal(0.0, 0.05 * domain),
           center.y + rng.normal(0.0, 0.05 * domain),
           center.z + rng.normal(0.0, 0.05 * domain)};
      for (std::size_t a = 0; a < 3; ++a)
        p[a] = std::clamp(p[a], 0.0, domain * (1.0 - 1e-12));
    } else {
      p = {rng.uniform(0, domain), rng.uniform(0, domain),
           rng.uniform(0, domain)};
    }
    pts.push_back(p);
  }
  return pts;
}

}  // namespace

TEST(Decomposition, KdTilesDomainAndRoutesPoints) {
  const double domain = 10.0;
  const auto pts = clustered_points(2000, domain, 77);
  for (int nblocks : {1, 2, 5, 8}) {
    const auto d =
        Decomposition::kd({0, 0, 0}, {domain, domain, domain}, false, nblocks,
                          pts);
    EXPECT_EQ(d.num_blocks(), nblocks);
    double vol = 0.0;
    for (int b = 0; b < nblocks; ++b) {
      const auto bb = d.block_bounds(b);
      for (std::size_t a = 0; a < 3; ++a) EXPECT_LT(bb.min[a], bb.max[a]);
      vol += (bb.max.x - bb.min.x) * (bb.max.y - bb.min.y) *
             (bb.max.z - bb.min.z);
    }
    EXPECT_NEAR(vol, domain * domain * domain, 1e-6);
    // Routing agrees with containment, and every point routes somewhere.
    for (const auto& p : pts) {
      const int b = d.block_of_point(p);
      EXPECT_TRUE(d.block_bounds(b).contains(p));
    }
  }
}

TEST(Decomposition, KdBalancesClusteredCounts) {
  // The count-weighted median splits must spread a heavily clustered cloud
  // far more evenly than the uniform grid does.
  const double domain = 10.0;
  const auto pts = clustered_points(4000, domain, 99);
  const int nblocks = 8;
  const Decomposition grid({0, 0, 0}, {domain, domain, domain},
                           Decomposition::factor(nblocks), false);
  const auto tree = Decomposition::kd({0, 0, 0}, {domain, domain, domain},
                                      false, nblocks, pts);
  auto max_count = [&](const Decomposition& d) {
    std::vector<int> counts(static_cast<std::size_t>(nblocks), 0);
    for (const auto& p : pts)
      ++counts[static_cast<std::size_t>(d.block_of_point(p))];
    return *std::max_element(counts.begin(), counts.end());
  };
  const int grid_max = max_count(grid);
  const int tree_max = max_count(tree);
  const int ideal = 4000 / nblocks;
  EXPECT_LT(tree_max, grid_max / 2) << "k-d did not rebalance the cluster";
  EXPECT_LE(tree_max, ideal + ideal / 2);  // within 1.5x of perfect
}

TEST(Decomposition, KdMassWeightedSplitsFollowWeight) {
  // All mass on the left quarter: with weights the first x-split must land
  // near the weighted median, far left of the geometric middle.
  std::vector<Vec3> pts;
  std::vector<double> w;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.25 * (i + 0.5) / 100.0;
    pts.push_back({x * 10.0, 5.0, 5.0});
    w.push_back(100.0);
    pts.push_back({10.0 * (0.5 + 0.5 * (i + 0.5) / 100.0), 5.0, 5.0});
    w.push_back(1.0);
  }
  const auto d = Decomposition::kd({0, 0, 0}, {10, 10, 10}, false, 2, pts, &w);
  ASSERT_EQ(d.splits().size(), 1u);
  EXPECT_EQ(d.splits()[0].axis, 0);
  EXPECT_LT(d.splits()[0].coord, 3.0)
      << "weighted median ignored the heavy left cluster";
}

TEST(Decomposition, KdDeterministicAcrossInputOrder) {
  const auto pts = clustered_points(1000, 5.0, 13);
  auto shuffled = pts;
  Rng rng(14);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.uniform_index(i)]);
  const auto a = Decomposition::kd({0, 0, 0}, {5, 5, 5}, true, 6, pts);
  const auto b = Decomposition::kd({0, 0, 0}, {5, 5, 5}, true, 6, shuffled);
  ASSERT_EQ(a.splits().size(), b.splits().size());
  for (std::size_t i = 0; i < a.splits().size(); ++i) {
    EXPECT_EQ(a.splits()[i].axis, b.splits()[i].axis) << i;
    EXPECT_DOUBLE_EQ(a.splits()[i].coord, b.splits()[i].coord) << i;
  }
}

TEST(Decomposition, KdSplitsRoundTripThroughExplicitCtor) {
  // The broadcast path: reconstructing from the split nodes must give the
  // same bounds and routing as the original build.
  const auto pts = clustered_points(800, 7.0, 21);
  const auto built = Decomposition::kd({0, 0, 0}, {7, 7, 7}, true, 5, pts);
  const Decomposition rebuilt({0, 0, 0}, {7, 7, 7}, true, 5, built.splits());
  for (int b = 0; b < 5; ++b) {
    const auto ba = built.block_bounds(b), bb = rebuilt.block_bounds(b);
    EXPECT_EQ(ba.min, bb.min);
    EXPECT_EQ(ba.max, bb.max);
  }
  for (const auto& p : pts)
    EXPECT_EQ(built.block_of_point(p), rebuilt.block_of_point(p));
}
