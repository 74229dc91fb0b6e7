// Unit tests for the SIMD wrapper and the batched geometry kernels.
//
// The contract under test is *bit identity*: every wrapper operation must
// produce, lane for lane, the exact bits a scalar loop applying the same
// IEEE-754 expression would produce — including signed zeros, denormals,
// and infinities — and every batched kernel must be bitwise equal to a
// test-local scalar loop over the expression it documents. This file is
// compiled with -ffp-contract=off (tests/CMakeLists.txt), like the kernels,
// so those references stay unfused under any -march. EXPECT_EQ on doubles
// accepts -0.0 == +0.0, so all comparisons here go through the bit pattern.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "geom/kernels.hpp"
#include "geom/predicates.hpp"
#include "geom/vec3.hpp"
#include "geom/voronoi_cell.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace simd = tess::util::simd;
using simd::DVec;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void expect_bits_eq(double a, double b, const char* what, std::size_t i) {
  EXPECT_EQ(bits(a), bits(b)) << what << " lane/index " << i << ": " << a
                              << " vs " << b;
}

// Awkward values: signed zeros, denormals, infinities, and magnitudes whose
// products overflow/underflow — the cases where a shortcut implementation
// (e.g. abs via multiply, max via arithmetic) diverges from IEEE semantics.
const double kAwkward[] = {
    0.0,
    -0.0,
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::min(),
    -std::numeric_limits<double>::min(),
    1.0,
    -1.0,
    1.5e308,
    -1.5e308,
    1e-300,
    -1e-300,
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    0x1.fffffffffffffp-1,  // just below 1: exercises rounding in products
};

}  // namespace

TEST(SimdWrapper, ArithmeticMatchesScalarBitwise) {
  Rng rng(11);
  std::vector<double> va, vb;
  for (double x : kAwkward)
    for (double y : kAwkward) {
      va.push_back(x);
      vb.push_back(y);
    }
  for (int i = 0; i < 400; ++i) {
    va.push_back(rng.uniform(-1e3, 1e3));
    vb.push_back(rng.normal(0.0, 1e-4));
  }
  while (va.size() % simd::kLanes != 0) {
    va.push_back(0.0);
    vb.push_back(0.0);
  }
  for (std::size_t i = 0; i < va.size(); i += simd::kLanes) {
    const DVec a = DVec::load(&va[i]);
    const DVec b = DVec::load(&vb[i]);
    const DVec sum = a + b, diff = a - b, prod = a * b;
    for (std::size_t l = 0; l < simd::kLanes; ++l) {
      expect_bits_eq(sum.lane(l), va[i + l] + vb[i + l], "add", i + l);
      expect_bits_eq(diff.lane(l), va[i + l] - vb[i + l], "sub", i + l);
      expect_bits_eq(prod.lane(l), va[i + l] * vb[i + l], "mul", i + l);
    }
  }
}

TEST(SimdWrapper, AbsMaxMatchScalarBitwise) {
  for (double x : kAwkward)
    for (double y : kAwkward) {
      const DVec a = DVec::set(x, y, x, y);
      const DVec b = DVec::set(y, x, y, x);
      const DVec av = simd::abs(a);
      const DVec mx = simd::max(a, b);
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        expect_bits_eq(av.lane(l), std::fabs(a.lane(l)), "abs", l);
        // The contract is the scalar selection `a > b ? a : b`, bit for bit
        // (so max(-0.0, +0.0) == +0.0 and max(+0.0, -0.0) == -0.0).
        const double want = a.lane(l) > b.lane(l) ? a.lane(l) : b.lane(l);
        expect_bits_eq(mx.lane(l), want, "max", l);
      }
    }
  // abs must clear only the sign bit: denormals pass through unchanged.
  const double dm = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(bits(simd::abs(DVec::broadcast(-dm)).lane(2)), bits(dm));
  EXPECT_EQ(bits(simd::abs(DVec::broadcast(-0.0)).lane(0)), bits(0.0));
}

TEST(SimdWrapper, ComparisonsAndHmax) {
  const DVec a = DVec::set(1.0, -0.0, 3.0, -2.0);
  const DVec b = DVec::set(0.5, 0.0, 3.0, -1.0);
  const simd::Mask gt = a > b;
  EXPECT_TRUE(gt.lane(0));
  EXPECT_FALSE(gt.lane(1));  // -0.0 > +0.0 is false
  EXPECT_FALSE(gt.lane(2));
  EXPECT_FALSE(gt.lane(3));
  const simd::Mask le = a <= b;
  EXPECT_FALSE(le.lane(0));
  EXPECT_TRUE(le.lane(1));
  EXPECT_TRUE(le.lane(2));
  EXPECT_TRUE(le.lane(3));
  EXPECT_EQ(simd::hmax(a), 3.0);
  EXPECT_EQ(simd::hmax(DVec::broadcast(-7.0)), -7.0);
}

// ---------------------------------------------------------------------------
// Batched kernels vs test-local scalar references, bitwise.
// ---------------------------------------------------------------------------

namespace {

struct Cloud {
  std::vector<double> x, y, z;
  std::vector<Vec3> verts;
};

// Sizes straddling the lane width on purpose (remainder handling).
Cloud make_cloud(std::size_t n, double scale, std::uint64_t seed) {
  Rng rng(seed);
  Cloud c;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 p{rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                 rng.uniform(-scale, scale)};
    c.x.push_back(p.x);
    c.y.push_back(p.y);
    c.z.push_back(p.z);
    c.verts.push_back(p);
  }
  return c;
}

}  // namespace

// With an infinite box and limit the candidate screen keeps every point
// but the skipped one, in input order, and its squared distances are the
// bits of geom::dist2, in the four-lane body and in the tail alike.
TEST(BatchedKernels, Dist2BatchBitwiseParity) {
  namespace kernels = tess::geom::kernels;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 63u, 256u}) {
    const Cloud c = make_cloud(n, 10.0, 100 + n);
    const Vec3 site{0.25, -3.5, 1e-3};
    std::vector<int> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<int>(i);
    const kernels::CandidateFilter all{
        site, kInf, {-kInf, -kInf, -kInf}, {kInf, kInf, kInf}, -1};
    std::vector<std::pair<double, int>> out(n, {-1.0, -1});
    std::uint64_t outside = 0;
    const std::size_t kept = kernels::screen_candidates(
        c.x.data(), c.y.data(), c.z.data(), idx.data(), n, all, out.data(),
        &outside);
    ASSERT_EQ(kept, n);
    EXPECT_EQ(outside, 0u);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i].second, static_cast<int>(i));
      expect_bits_eq(out[i].first, tess::geom::dist2(c.verts[i], site),
                     "dist2", i);
    }
  }
}

TEST(BatchedKernels, PlaneDistancesBitwiseParity) {
  namespace kernels = tess::geom::kernels;
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 6u, 7u, 8u, 37u, 63u, 128u}) {
    const Cloud c = make_cloud(n, 5.0, 200 + n);
    const Vec3 normal{0.3, -0.9, 0.316};
    const double d = -1.75;
    std::vector<double> dist(n, -1.0);
    double amax = -1.0;
    kernels::plane_distances(c.verts.data(), n, normal, d, dist.data(), &amax);
    double want_amax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3& v = c.verts[i];
      const double dot = (normal.x * v.x + normal.y * v.y) + normal.z * v.z;
      expect_bits_eq(dist[i], dot - d, "plane_dist", i);
      if (std::fabs(dot) > want_amax) want_amax = std::fabs(dot);
    }
    expect_bits_eq(amax, want_amax, "abs_max", n);
  }
}

// The candidate screen keeps exactly what the scalar filter keeps, in
// input order, and counts the points outside the box, for every tail
// length. The cloud straddles the box and the radius, and includes a fully
// rejected batch, a fully kept one, the skipped index and points on the
// box's faces, which are inside.
TEST(BatchedKernels, ScreenCandidatesParity) {
  namespace kernels = tess::geom::kernels;
  Rng rng(31);
  const kernels::CandidateFilter f{
      {0.5, 0.5, 0.5}, 0.5, {0.1, 0.2, 0.0}, {0.9, 0.8, 1.0}, 1005};
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 63u, 64u, 255u}) {
    Cloud c;
    std::vector<int> idx;
    for (std::size_t i = 0; i < n; ++i) {
      Vec3 p{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2),
             rng.uniform(-0.2, 1.2)};
      if (n >= 12 && i < 4) p = {1.15, 1.15, 1.15};  // rejected batch
      if (n >= 12 && i >= 4 && i < 8) p = {0.55, 0.45, 0.5};  // kept batch
      if (n >= 12 && i == 8) p = {0.1, 0.5, 0.5};  // on the box's faces
      if (n >= 12 && i == 9) p = {0.5, 0.8, 1.0};
      c.x.push_back(p.x);
      c.y.push_back(p.y);
      c.z.push_back(p.z);
      c.verts.push_back(p);
      idx.push_back(static_cast<int>(1000 + i));
    }
    std::vector<std::pair<double, int>> want;
    std::uint64_t want_outside = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3& p = c.verts[i];
      const bool in_box = f.lo.x <= p.x && p.x <= f.hi.x && f.lo.y <= p.y &&
                          p.y <= f.hi.y && f.lo.z <= p.z && p.z <= f.hi.z;
      const double d2 = tess::geom::dist2(p, f.site);
      want_outside += in_box ? 0 : 1;
      if (in_box && d2 <= f.limit && idx[i] != f.skip)
        want.emplace_back(d2, idx[i]);
    }
    std::vector<std::pair<double, int>> got(n, {-1.0, -1});
    std::uint64_t outside = 7;  // added to, not overwritten
    const std::size_t kept = kernels::screen_candidates(
        c.x.data(), c.y.data(), c.z.data(), idx.data(), n, f, got.data(),
        &outside);
    EXPECT_EQ(outside, 7 + want_outside) << "n=" << n;
    ASSERT_EQ(kept, want.size()) << "n=" << n;
    for (std::size_t i = 0; i < kept; ++i) {
      expect_bits_eq(got[i].first, want[i].first, "screen d2", i);
      EXPECT_EQ(got[i].second, want[i].second) << "screen idx " << i;
    }
    if (n >= 12) {
      EXPECT_GT(want_outside, 4u);
      EXPECT_GT(kept, 5u);
    }
  }
}

// The vertex-ball screen drops a candidate only when its cut would change
// nothing, and the four-lane body decides each candidate as the scalar
// tail does. The candidates include, for every vertex, the reflection of
// the site through it, whose bisector passes through that vertex: the cut
// at clip()'s tolerance. VoronoiCell::cut may be FMA-contracted where the
// kernel is not, so this also checks that the screen's margin covers the
// difference.
TEST(BatchedKernels, ScreenCuttersDropOnlyNoOpCuts) {
  namespace kernels = tess::geom::kernels;
  Rng rng(73);
  const Vec3 site{0.5, 0.5, 0.5};
  tess::geom::VoronoiCell cell(site, {0, 0, 0}, {1, 1, 1});
  for (int i = 0; i < 60; ++i)
    cell.cut({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)}, i);
  ASSERT_GE(cell.vertices().size(), 4u);

  std::vector<Vec3> cand;
  for (int i = 0; i < 400; ++i)
    cand.push_back(
        {rng.uniform(-1, 2), rng.uniform(-1, 2), rng.uniform(-1, 2)});
  for (const Vec3& v : cell.vertices()) cand.push_back(v * 2.0 - site);
  std::vector<double> x, y, z;
  std::vector<std::pair<double, int>> batch;
  for (std::size_t i = 0; i < cand.size(); ++i) {
    x.push_back(cand[i].x);
    y.push_back(cand[i].y);
    z.push_back(cand[i].z);
    batch.emplace_back(static_cast<double>(i), static_cast<int>(i));
  }
  const auto& verts = cell.vertices();
  const std::size_t kept =
      kernels::screen_cutters(x.data(), y.data(), z.data(), site, verts.data(),
                              verts.size(), batch.data(), batch.size());
  ASSERT_LE(kept, cand.size());

  std::size_t next = 0, cutters = 0;
  for (std::size_t i = 0; i < cand.size(); ++i) {
    std::pair<double, int> one{static_cast<double>(i), static_cast<int>(i)};
    const bool scalar_keeps =
        kernels::screen_cutters(&x[i], &y[i], &z[i], site, verts.data(),
                                verts.size(), &one, 1) == 1;
    const bool batch_keeps =
        next < kept && batch[next].second == static_cast<int>(i);
    if (batch_keeps) ++next;
    EXPECT_EQ(batch_keeps, scalar_keeps) << "candidate " << i;
    tess::geom::VoronoiCell probe = cell;
    if (probe.cut(cand[i], 1000 + static_cast<std::int64_t>(i))) {
      ++cutters;
      EXPECT_TRUE(scalar_keeps) << "dropped candidate " << i << " cuts";
    }
  }
  EXPECT_EQ(next, kept);  // survivors stay in input order
  EXPECT_GT(cutters, 0u);
  EXPECT_LT(kept, cand.size());
}

TEST(BatchedKernels, Orient3dBatchSignParity) {
  // Sign identity between the batched filter (+ exact fallback) and the
  // scalar orient3d, on random points AND near-degenerate ones that force
  // the semi-static filter to fall back to exact arithmetic.
  Rng rng(57);
  const Vec3 a{0.0, 0.0, 0.0}, b{1.0, 0.0, 0.0}, c{0.0, 1.0, 0.0};
  std::vector<double> dx, dy, dz;
  for (int i = 0; i < 300; ++i) {
    dx.push_back(rng.uniform(-2.0, 2.0));
    dy.push_back(rng.uniform(-2.0, 2.0));
    dz.push_back(rng.uniform(-2.0, 2.0));
  }
  // Near-coplanar: z within a few ulps of the abc plane (z == 0).
  for (int i = 0; i < 64; ++i) {
    dx.push_back(rng.uniform(-1.0, 1.0));
    dy.push_back(rng.uniform(-1.0, 1.0));
    dz.push_back(static_cast<double>(i - 32) * 1e-320);
  }
  // Exactly coplanar.
  for (int i = 0; i < 8; ++i) {
    dx.push_back(0.25 * i);
    dy.push_back(0.5);
    dz.push_back(0.0);
  }
  const std::size_t n = dx.size();
  std::vector<int> sign(n, 99);
  tess::geom::orient3d_batch(a, b, c, dx.data(), dy.data(), dz.data(), n,
                             sign.data());
  for (std::size_t i = 0; i < n; ++i) {
    const int want = tess::geom::orient3d(
        a, b, c, Vec3{dx[i], dy[i], dz[i]});
    EXPECT_EQ(sign[i], want) << "orient3d_batch at " << i;
  }
}
