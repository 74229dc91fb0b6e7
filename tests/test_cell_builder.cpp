// Tests for the grid-accelerated cell builder: exactness against brute
// force, the partition-of-space property (cell volumes sum to the box
// volume), completeness classification near boundaries, the lazy
// candidate order and filters against the traced reference, and the work
// counters of the vertex-ball bin prune.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "geom/cell_builder.hpp"
#include "geom/settle.hpp"
#include "util/rng.hpp"

namespace tg = tess::geom;
using tg::CellBuilder;
using tg::Vec3;
using tess::util::Rng;

namespace {

std::vector<Vec3> random_points(std::uint64_t seed, int n, double lo = 0.0,
                                double hi = 1.0) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi)});
  return pts;
}

// Two tight Gaussian blobs plus a sparse uniform background, clamped into
// the unit box (mimics evolved cosmological particles).
std::vector<Vec3> two_blob_points(std::uint64_t seed, int per_blob, int background) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  for (int i = 0; i < per_blob; ++i)
    pts.push_back({0.2 + 0.02 * rng.normal(), 0.2 + 0.02 * rng.normal(),
                   0.2 + 0.02 * rng.normal()});
  for (int i = 0; i < per_blob; ++i)
    pts.push_back({0.8 + 0.02 * rng.normal(), 0.7 + 0.02 * rng.normal(),
                   0.6 + 0.02 * rng.normal()});
  for (int i = 0; i < background; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  for (auto& p : pts) {
    p.x = std::clamp(p.x, 0.001, 0.999);
    p.y = std::clamp(p.y, 0.001, 0.999);
    p.z = std::clamp(p.z, 0.001, 0.999);
  }
  return pts;
}

// Reference: clip against every other point, no grid, no security radius.
tg::VoronoiCell brute_force_cell(const std::vector<Vec3>& pts, int site,
                                 const Vec3& lo, const Vec3& hi) {
  tg::VoronoiCell cell(pts[static_cast<std::size_t>(site)], lo, hi);
  for (int j = 0; j < static_cast<int>(pts.size()); ++j) {
    if (j == site) continue;
    cell.cut(pts[static_cast<std::size_t>(j)], j);
    if (cell.empty()) break;
  }
  return cell;
}

// Vertex coordinates (bitwise), face sources and face loops all equal.
bool same_bits(const tg::VoronoiCell& a, const tg::VoronoiCell& b) {
  if (a.vertices().size() != b.vertices().size() ||
      a.faces().size() != b.faces().size())
    return false;
  if (std::memcmp(a.vertices().data(), b.vertices().data(),
                  a.vertices().size() * sizeof(Vec3)) != 0)
    return false;
  for (std::size_t f = 0; f < a.faces().size(); ++f) {
    const auto& fa = a.faces()[f];
    const auto& fb = b.faces()[f];
    if (fa.source != fb.source ||
        !std::equal(fa.verts.begin(), fa.verts.end(), fb.verts.begin(),
                    fb.verts.end()))
      return false;
  }
  return true;
}

}  // namespace

// Every site of three clouds against the brute-force cell. On all of them no
// point of the set changes the finished cell — the statement the bin prune
// and the security-radius stop rely on. Generic clouds must match bit for
// bit once canonicalized. The near-lattice is degenerate: many bisectors
// meet at each vertex, so which grazing faces survive depends on cut order,
// and there only volumes are compared.
TEST(CellBuilder, MatchesBruteForce) {
  struct Cloud {
    const char* name;
    std::vector<Vec3> pts;
    bool bitwise;
  };
  std::vector<Cloud> clouds;
  clouds.push_back({"uniform", random_points(77, 400), true});
  clouds.push_back({"clustered", two_blob_points(4242, 200, 100), true});
  {
    Rng rng(99);
    std::vector<Vec3> lattice;
    for (int x = 0; x < 5; ++x)
      for (int y = 0; y < 5; ++y)
        for (int z = 0; z < 5; ++z)
          lattice.push_back({(x + 0.5) / 5 + 1e-12 * rng.uniform(),
                             (y + 0.5) / 5 + 1e-12 * rng.uniform(),
                             (z + 0.5) / 5 + 1e-12 * rng.uniform()});
    clouds.push_back({"near-lattice", std::move(lattice), false});
  }

  const Vec3 lo{0, 0, 0}, hi{1, 1, 1};
  for (const auto& cloud : clouds) {
    const auto& pts = cloud.pts;
    CellBuilder builder(pts, {}, lo, hi);
    std::size_t complete = 0, bit_equal = 0;
    for (int s = 0; s < static_cast<int>(pts.size()); ++s) {
      auto fast = builder.build(s, lo, hi);
      auto ref = brute_force_cell(pts, s, lo, hi);
      EXPECT_NEAR(fast.volume(), ref.volume(), 1e-10) << cloud.name << " site " << s;
      EXPECT_NEAR(fast.area(), ref.area(), 1e-9) << cloud.name << " site " << s;

      tg::VoronoiCell probe = fast;
      for (int j = 0; j < static_cast<int>(pts.size()); ++j) {
        if (j == s || !probe.cut(pts[static_cast<std::size_t>(j)], j)) continue;
        ADD_FAILURE() << cloud.name << ": point " << j << " cuts finished cell " << s;
        probe = fast;
      }

      if (!cloud.bitwise) continue;
      EXPECT_EQ(fast.neighbor_ids(), ref.neighbor_ids()) << cloud.name << " site " << s;
      if (!fast.complete()) continue;
      ++complete;
      fast.canonicalize();
      ref.canonicalize();
      if (same_bits(fast, ref)) {
        ++bit_equal;
      } else {
        ADD_FAILURE() << cloud.name << ": canonical cell " << s
                      << " differs from brute force";
      }
    }
    if (cloud.bitwise) {
      EXPECT_GT(complete, pts.size() / 4) << cloud.name;
      EXPECT_EQ(bit_equal, complete) << cloud.name;
    }
  }
}

TEST(CellBuilder, PruneSkipsBinsOnClusteredCloud) {
  const auto pts = two_blob_points(31337, 150, 20);
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  for (int s = 0; s < static_cast<int>(pts.size()); ++s)
    (void)builder.build(s, {0, 0, 0}, {1, 1, 1});
  const auto st = builder.backend_stats();
  EXPECT_GT(st.bins_pruned, 0u);
  EXPECT_GT(st.cuts_noop, 0u);
  EXPECT_LT(st.cuts_noop, st.cuts);

  // Counters are a pure function of the point set and the sites built.
  CellBuilder again(pts, {}, {0, 0, 0}, {1, 1, 1});
  for (int s = 0; s < static_cast<int>(pts.size()); ++s)
    (void)again.build(s, {0, 0, 0}, {1, 1, 1});
  EXPECT_EQ(again.backend_stats().bins_pruned, st.bins_pruned);
  EXPECT_EQ(again.backend_stats().cuts_noop, st.cuts_noop);
}

class CellPartition : public ::testing::TestWithParam<int> {};

TEST_P(CellPartition, VolumesSumToBox) {
  const int n = GetParam();
  const auto pts = random_points(static_cast<std::uint64_t>(n), n);
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  double total = 0.0;
  for (int s = 0; s < n; ++s)
    total += builder.build(s, {0, 0, 0}, {1, 1, 1}).volume();
  // Voronoi cells clipped to the box partition it exactly.
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CellPartition, ::testing::Values(2, 5, 20, 100, 400));

TEST(CellBuilder, SiteContainedInOwnCell) {
  const auto pts = random_points(5, 200);
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  for (int s = 0; s < 200; s += 11) {
    auto cell = builder.build(s, {0, 0, 0}, {1, 1, 1});
    ASSERT_FALSE(cell.empty());
    // Site must be strictly closer to itself than to all face planes: all
    // cell vertices are at least as far from any other site.
    const Vec3& site = pts[static_cast<std::size_t>(s)];
    for (const auto& f : cell.faces()) {
      if (f.source < 0) continue;
      const Vec3& nb = pts[static_cast<std::size_t>(f.source)];
      for (int v : f.verts) {
        const Vec3& x = cell.vertices()[static_cast<std::size_t>(v)];
        EXPECT_LE(tg::dist2(x, site), tg::dist2(x, nb) + 1e-9);
      }
    }
  }
}

TEST(CellBuilder, InteriorCellsCompleteBoundaryCellsNot) {
  // Regular 5x5x5 lattice, spacing 1, inside [0,5)^3 box grown by nothing:
  // cells of boundary-layer sites touch the seed box and are incomplete.
  std::vector<Vec3> pts;
  for (int x = 0; x < 5; ++x)
    for (int y = 0; y < 5; ++y)
      for (int z = 0; z < 5; ++z) pts.push_back({x + 0.5, y + 0.5, z + 0.5});
  CellBuilder builder(pts, {}, {0, 0, 0}, {5, 5, 5});
  int complete = 0;
  for (int s = 0; s < static_cast<int>(pts.size()); ++s) {
    auto cell = builder.build(s, {0, 0, 0}, {5, 5, 5});
    if (cell.complete()) {
      ++complete;
      EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
    }
  }
  // Only the 3x3x3 interior sites are complete.
  EXPECT_EQ(complete, 27);
}

TEST(CellBuilder, GlobalIdsUsedAsFaceSources) {
  const auto pts = random_points(9, 50);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(1000 + i);
  CellBuilder builder(pts, ids, {0, 0, 0}, {1, 1, 1});
  auto cell = builder.build(10, {0, 0, 0}, {1, 1, 1});
  for (auto nb : cell.neighbor_ids()) {
    EXPECT_GE(nb, 1000);
    EXPECT_LT(nb, 1050);
    EXPECT_NE(nb, 1010);  // never its own site
  }
}

TEST(CellBuilder, TwoPointsSplitBox) {
  const std::vector<Vec3> pts{{0.25, 0.5, 0.5}, {0.75, 0.5, 0.5}};
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  auto c0 = builder.build(0, {0, 0, 0}, {1, 1, 1});
  auto c1 = builder.build(1, {0, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(c0.volume(), 0.5, 1e-12);
  EXPECT_NEAR(c1.volume(), 0.5, 1e-12);
  EXPECT_FALSE(c0.complete());
}

TEST(CellBuilder, DuplicatePointsDoNotCrash) {
  std::vector<Vec3> pts{{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.2, 0.2, 0.2}};
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  auto cell = builder.build(0, {0, 0, 0}, {1, 1, 1});
  EXPECT_GE(cell.volume(), 0.0);
}

TEST(CellBuilder, ClusteredPointsStillPartition) {
  const auto pts = two_blob_points(31337, 150, 20);
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  double total = 0.0;
  for (int s = 0; s < static_cast<int>(pts.size()); ++s)
    total += builder.build(s, {0, 0, 0}, {1, 1, 1}).volume();
  EXPECT_NEAR(total, 1.0, 1e-8);
}

// The cut loop settles the canonical (dist2, id, position) candidate order
// lazily and screens candidates against the vertex balls, while
// build_traced() settles every position before the first cut and never
// screens. Both must make the same effective cuts in the same order, so
// their cells agree bit for bit. The recorded list is sorted ring by ring,
// so its key (dist2, id) can fall only where a ring of the 5-bin grid
// ends: at most 5 times per cell. On the lattice every distance shell is a
// tie and ids run against the array order, so a wrong tie-break would fall
// inside rings. On the two-blob cloud the screen must fire.
TEST(CellBuilder, LazyCandidateOrderIsCanonical) {
  constexpr int kSide = 8;
  std::vector<Vec3> lattice;
  std::vector<std::int64_t> lattice_ids;
  for (int z = 0; z < kSide; ++z)
    for (int y = 0; y < kSide; ++y)
      for (int x = 0; x < kSide; ++x) {
        lattice.push_back({x + 0.5, y + 0.5, z + 0.5});
        lattice_ids.push_back(kSide * kSide * kSide - 1 -
                              static_cast<std::int64_t>(lattice_ids.size()));
      }
  struct Case {
    const char* name;
    std::vector<Vec3> pts;
    std::vector<std::int64_t> ids;
    Vec3 lo, hi;
    bool clustered;
  };
  const Vec3 origin{0, 0, 0}, far{kSide, kSide, kSide};
  const Case cases[] = {
      {"lattice", lattice, lattice_ids, origin, far, false},
      {"uniform", random_points(17, 500, 0.0, kSide), {}, origin, far, false},
      {"two-blob", two_blob_points(4242, 200, 100), {}, origin, {1, 1, 1},
       true}};
  for (const auto& c : cases) {
    const Vec3 lo = c.lo, hi = c.hi;
    const CellBuilder builder(c.pts, c.ids, lo, hi);
    tg::VoronoiCell lazy(c.pts[0], lo, hi), traced(c.pts[0], lo, hi);
    tg::ClipScratch lazy_scratch, traced_scratch;
    CellBuilder::CellTrace trace;
    std::size_t ties = 0;
    for (int site = 0; site < static_cast<int>(c.pts.size()); ++site) {
      builder.build_into(lazy, lazy_scratch, site, lo, hi);
      builder.build_traced(traced, traced_scratch, site, lo, hi, trace);
      ASSERT_TRUE(same_bits(lazy, traced)) << c.name << " site " << site;
      ASSERT_FALSE(trace.cut_ids.empty());
      int falls = 0;
      for (std::size_t k = 1; k < trace.candidates.size(); ++k) {
        const auto& a = trace.candidates[k - 1];
        const auto& b = trace.candidates[k];
        ties += a.first == b.first ? 1 : 0;
        falls += b < a ? 1 : 0;
      }
      EXPECT_LE(falls, 5) << c.name << " site " << site;
    }
    if (!c.ids.empty()) {
      EXPECT_GT(ties, 10000u);
    }
    if (c.clustered) {
      EXPECT_GT(builder.backend_stats().cuts_screened, 0u) << c.name;
    }
  }
}

// settle() is the lazy candidate order: each settled prefix must be the
// prefix std::sort gives, whatever the input order. Keys mimic the
// canonical (dist2, id, position) key, strict and total: the tie-heavy
// family repeats dist2, then id, and leaves only the position to decide.
TEST(CellBuilder, SettledPrefixesEqualFullSort) {
  struct Key {
    double d2;
    std::int64_t id;
    Vec3 pos;
  };
  const auto less = [](const Key& a, const Key& b) {
    if (a.d2 != b.d2) return a.d2 < b.d2;
    if (a.id != b.id) return a.id < b.id;
    if (a.pos.x != b.pos.x) return a.pos.x < b.pos.x;
    if (a.pos.y != b.pos.y) return a.pos.y < b.pos.y;
    return a.pos.z < b.pos.z;
  };
  const auto same = [](const Key& a, const Key& b) {
    return a.d2 == b.d2 && a.id == b.id && a.pos.x == b.pos.x &&
           a.pos.y == b.pos.y && a.pos.z == b.pos.z;
  };
  Rng rng(2718);
  for (const std::size_t n : {0u, 1u, 2u, 15u, 16u, 17u, 40u, 700u}) {
    std::vector<Key> random, tied;
    for (std::size_t i = 0; i < n; ++i) {
      random.push_back({rng.uniform(), static_cast<std::int64_t>(i),
                        {rng.uniform(), rng.uniform(), rng.uniform()}});
      tied.push_back({static_cast<double>(rng.uniform() < 0.5 ? 1 : 2),
                      static_cast<std::int64_t>(rng.uniform() < 0.5 ? 7 : 8),
                      {static_cast<double>(i % 2), static_cast<double>(i % 3),
                       static_cast<double>(i)}});
    }
    std::vector<Key> sorted = random;
    std::sort(sorted.begin(), sorted.end(), less);
    std::vector<Key> reversed(sorted.rbegin(), sorted.rend());
    const std::pair<const char*, std::vector<Key>> families[] = {
        {"random", random}, {"sorted", sorted}, {"reversed", reversed},
        {"tie-heavy", tied}};
    for (const auto& [name, keys] : families) {
      std::vector<Key> want = keys;
      std::sort(want.begin(), want.end(), less);
      std::vector<Key> v = keys;
      std::vector<std::size_t> pivots(1, n);
      std::size_t settled = 0;
      for (std::size_t i = 0; i < n; ++i) {
        tg::detail::settle(v, pivots, i, settled, less);
        ASSERT_GT(settled, i) << name << " n=" << n;
        for (std::size_t k = 0; k <= i; ++k)
          ASSERT_TRUE(same(v[k], want[k]))
              << name << " n=" << n << ": position " << k << " after " << i;
      }
    }
  }
}

// build_into() drops single candidates outside the bounding box of the
// vertex balls, where build_traced() gathers them and cuts with them. On a
// two-blob cloud the box drops candidates, and every lazy cell still
// equals its traced reference bit for bit: same vertices, and the same
// effective cuts in the same order (face sources in creation order).
TEST(CellBuilder, BoxFilterKeepsCellsBitIdentical) {
  const auto pts = two_blob_points(777, 300, 150);
  const Vec3 lo{0, 0, 0}, hi{1, 1, 1};
  const CellBuilder builder(pts, {}, lo, hi);
  tg::VoronoiCell lazy(pts[0], lo, hi), traced(pts[0], lo, hi);
  tg::ClipScratch lazy_scratch, traced_scratch;
  CellBuilder::CellTrace trace;
  std::size_t boxed_sites = 0;
  std::uint64_t boxed = 0;
  for (int site = 0; site < static_cast<int>(pts.size()); ++site) {
    const auto before = builder.backend_stats();
    builder.build_into(lazy, lazy_scratch, site, lo, hi);
    const auto after = builder.backend_stats();
    builder.build_traced(traced, traced_scratch, site, lo, hi, trace);
    ASSERT_TRUE(same_bits(lazy, traced)) << "site " << site;
    const std::uint64_t site_boxed = after.cand_boxed - before.cand_boxed;
    boxed_sites += site_boxed > 0 ? 1 : 0;
    boxed += site_boxed;
    EXPECT_LE((after.cand_kept - before.cand_kept) + site_boxed,
              after.cand_seen - before.cand_seen)
        << "site " << site;
  }
  EXPECT_GT(boxed, 0u);
  EXPECT_GT(boxed_sites, pts.size() / 4);
  // The traced build never boxes: the total is build_into()'s alone.
  EXPECT_EQ(builder.backend_stats().cand_boxed, boxed);
}
