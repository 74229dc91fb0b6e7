#include "geom/predicates.hpp"

#include <atomic>
#include <cmath>
#include <utility>
#include <vector>

#include "util/simd.hpp"

namespace tess::geom {

namespace {

std::atomic<unsigned long long> g_exact_fallbacks{0};

void count_exact_fallback() {
  g_exact_fallbacks.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Error-free transformations (Dekker/Knuth). Each returns (result, error)
// such that result + error is exactly the true value.
// ---------------------------------------------------------------------------

struct TwoDouble {
  double hi, lo;
};

inline TwoDouble two_sum(double a, double b) {
  const double x = a + b;
  const double bv = x - a;
  const double av = x - bv;
  return {x, (a - av) + (b - bv)};
}

// Requires |a| >= |b| (or a == 0).
inline TwoDouble fast_two_sum(double a, double b) {
  const double x = a + b;
  return {x, b - (x - a)};
}

inline TwoDouble two_diff(double a, double b) {
  const double x = a - b;
  const double bv = a - x;
  const double av = x + bv;
  return {x, (a - av) + (bv - b)};
}

inline TwoDouble two_prod(double a, double b) {
  const double x = a * b;
  return {x, std::fma(a, b, -x)};
}

// ---------------------------------------------------------------------------
// Floating-point expansions: a number represented as an unevaluated sum of
// doubles with nonoverlapping, magnitude-increasing components. Operations
// follow Shewchuk's GROW-EXPANSION / EXPANSION-SUM / SCALE-EXPANSION, with
// zero elimination.
// ---------------------------------------------------------------------------

using Exp = std::vector<double>;

Exp exp_from(const TwoDouble& t) {
  Exp e;
  if (t.lo != 0.0) e.push_back(t.lo);
  if (t.hi != 0.0 || e.empty()) e.push_back(t.hi);
  return e;
}

// e + b for scalar b (GROW-EXPANSION with zero elimination).
Exp exp_grow(const Exp& e, double b) {
  Exp h;
  h.reserve(e.size() + 1);
  double q = b;
  for (double ei : e) {
    const TwoDouble s = two_sum(q, ei);
    if (s.lo != 0.0) h.push_back(s.lo);
    q = s.hi;
  }
  if (q != 0.0 || h.empty()) h.push_back(q);
  return h;
}

Exp exp_add(const Exp& e, const Exp& f) {
  Exp h = e;
  for (double fi : f) h = exp_grow(h, fi);
  if (h.empty()) h.push_back(0.0);
  return h;
}

// e * b for scalar b (SCALE-EXPANSION).
Exp exp_scale(const Exp& e, double b) {
  Exp h;
  if (e.empty() || b == 0.0) {
    h.push_back(0.0);
    return h;
  }
  h.reserve(2 * e.size());
  TwoDouble p = two_prod(e[0], b);
  double q = p.hi;
  if (p.lo != 0.0) h.push_back(p.lo);
  for (std::size_t i = 1; i < e.size(); ++i) {
    const TwoDouble t = two_prod(e[i], b);
    const TwoDouble s1 = two_sum(q, t.lo);
    if (s1.lo != 0.0) h.push_back(s1.lo);
    const TwoDouble s2 = fast_two_sum(t.hi, s1.hi);
    if (s2.lo != 0.0) h.push_back(s2.lo);
    q = s2.hi;
  }
  if (q != 0.0 || h.empty()) h.push_back(q);
  return h;
}

Exp exp_neg(Exp e) {
  for (double& v : e) v = -v;
  return e;
}

Exp exp_mul(const Exp& e, const Exp& f) {
  Exp acc{0.0};
  for (double fi : f) acc = exp_add(acc, exp_scale(e, fi));
  return acc;
}

Exp exp_sub(const Exp& e, const Exp& f) { return exp_add(e, exp_neg(f)); }

// The most significant (largest-magnitude) component is last; its sign is
// the sign of the whole expansion.
int exp_sign(const Exp& e) {
  for (auto it = e.rbegin(); it != e.rend(); ++it) {
    if (*it > 0.0) return 1;
    if (*it < 0.0) return -1;
  }
  return 0;
}

// 3x3 determinant of rows (u, v, w) given as exact 2-term-expansion coords.
struct ExpVec3 {
  Exp x, y, z;
};

Exp det3_exact(const ExpVec3& u, const ExpVec3& v, const ExpVec3& w) {
  const Exp m1 = exp_sub(exp_mul(v.y, w.z), exp_mul(v.z, w.y));
  const Exp m2 = exp_sub(exp_mul(v.x, w.z), exp_mul(v.z, w.x));
  const Exp m3 = exp_sub(exp_mul(v.x, w.y), exp_mul(v.y, w.x));
  return exp_add(exp_sub(exp_mul(u.x, m1), exp_mul(u.y, m2)), exp_mul(u.z, m3));
}

ExpVec3 diff_exact(const Vec3& a, const Vec3& b) {
  return {exp_from(two_diff(a.x, b.x)), exp_from(two_diff(a.y, b.y)),
          exp_from(two_diff(a.z, b.z))};
}

constexpr double kEps = 1.1102230246251565e-16;  // 2^-53
// Shewchuk's static filter constants for the A-stage bounds.
const double kO3dErrBoundA = (7.0 + 56.0 * kEps) * kEps;
const double kIspErrBoundA = (16.0 + 224.0 * kEps) * kEps;

double det3(double ux, double uy, double uz, double vx, double vy, double vz,
            double wx, double wy, double wz) {
  return ux * (vy * wz - vz * wy) - uy * (vx * wz - vz * wx) +
         uz * (vx * wy - vy * wx);
}

// One lane the batched filter could not decide, kept out of line: inlined,
// the whole of orient3d (expansion arithmetic included) bloats the lane loop
// and slows the common case where the filter decides every lane.
[[gnu::noinline]] int orient3d_lane(const Vec3& a, const Vec3& b, const Vec3& c,
                                    const Vec3& d) {
  return orient3d(a, b, c, d);
}

}  // namespace

double orient3d_fast(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  return det3(a.x - d.x, a.y - d.y, a.z - d.z, b.x - d.x, b.y - d.y, b.z - d.z,
              c.x - d.x, c.y - d.y, c.z - d.z);
}

void orient3d_batch(const Vec3& a, const Vec3& b, const Vec3& c,
                    const double* dx, const double* dy, const double* dz,
                    std::size_t n, int* out) {
  namespace simd = tess::util::simd;
  const simd::DVec ax = simd::DVec::broadcast(a.x), ay = simd::DVec::broadcast(a.y),
                   az = simd::DVec::broadcast(a.z);
  const simd::DVec bx = simd::DVec::broadcast(b.x), by = simd::DVec::broadcast(b.y),
                   bz = simd::DVec::broadcast(b.z);
  const simd::DVec cx = simd::DVec::broadcast(c.x), cy = simd::DVec::broadcast(c.y),
                   cz = simd::DVec::broadcast(c.z);
  const simd::DVec bound = simd::DVec::broadcast(kO3dErrBoundA);
  const simd::DVec zero = simd::DVec::broadcast(0.0);
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const simd::DVec qx = simd::DVec::load(dx + i);
    const simd::DVec qy = simd::DVec::load(dy + i);
    const simd::DVec qz = simd::DVec::load(dz + i);
    const simd::DVec adx = ax - qx, ady = ay - qy, adz = az - qz;
    const simd::DVec bdx = bx - qx, bdy = by - qy, bdz = bz - qz;
    const simd::DVec cdx = cx - qx, cdy = cy - qy, cdz = cz - qz;
    const simd::DVec bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
    const simd::DVec cdxady = cdx * ady, adxcdy = adx * cdy;
    const simd::DVec adxbdy = adx * bdy, bdxady = bdx * ady;
    const simd::DVec det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) +
                           cdz * (adxbdy - bdxady);
    const simd::DVec permanent =
        (simd::abs(bdxcdy) + simd::abs(cdxbdy)) * simd::abs(adz) +
        (simd::abs(cdxady) + simd::abs(adxcdy)) * simd::abs(bdz) +
        (simd::abs(adxbdy) + simd::abs(bdxady)) * simd::abs(cdz);
    const simd::DVec errbound = bound * permanent;
    const simd::Mask pos = det > errbound;
    const simd::Mask neg = (zero - errbound) > det;
    for (std::size_t l = 0; l < simd::kLanes; ++l) {
      if (pos.lane(l)) {
        out[i + l] = 1;
      } else if (neg.lane(l)) {
        out[i + l] = -1;
      } else {
        // Undecided lane: scalar exact fallback (counts toward
        // exact_fallback_count like any filtered miss).
        out[i + l] =
            orient3d_lane(a, b, c, Vec3{dx[i + l], dy[i + l], dz[i + l]});
      }
    }
  }
  for (; i < n; ++i) out[i] = orient3d_lane(a, b, c, Vec3{dx[i], dy[i], dz[i]});
}

int orient3d(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  const double adx = a.x - d.x, ady = a.y - d.y, adz = a.z - d.z;
  const double bdx = b.x - d.x, bdy = b.y - d.y, bdz = b.z - d.z;
  const double cdx = c.x - d.x, cdy = c.y - d.y, cdz = c.z - d.z;

  const double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
  const double cdxady = cdx * ady, adxcdy = adx * cdy;
  const double adxbdy = adx * bdy, bdxady = bdx * ady;

  const double det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) +
                     cdz * (adxbdy - bdxady);
  const double permanent = (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * std::fabs(adz) +
                           (std::fabs(cdxady) + std::fabs(adxcdy)) * std::fabs(bdz) +
                           (std::fabs(adxbdy) + std::fabs(bdxady)) * std::fabs(cdz);
  const double errbound = kO3dErrBoundA * permanent;
  if (det > errbound) return 1;
  if (det < -errbound) return -1;

  // Exact fallback.
  count_exact_fallback();
  const ExpVec3 ad = diff_exact(a, d);
  const ExpVec3 bd = diff_exact(b, d);
  const ExpVec3 cd = diff_exact(c, d);
  return exp_sign(det3_exact(ad, bd, cd));
}

int insphere(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
             const Vec3& e) {
  const double aex = a.x - e.x, aey = a.y - e.y, aez = a.z - e.z;
  const double bex = b.x - e.x, bey = b.y - e.y, bez = b.z - e.z;
  const double cex = c.x - e.x, cey = c.y - e.y, cez = c.z - e.z;
  const double dex = d.x - e.x, dey = d.y - e.y, dez = d.z - e.z;

  const double alift = aex * aex + aey * aey + aez * aez;
  const double blift = bex * bex + bey * bey + bez * bez;
  const double clift = cex * cex + cey * cey + cez * cez;
  const double dlift = dex * dex + dey * dey + dez * dez;

  // Laplace expansion along the lift column:
  // det = -al*det3(b,c,d) + bl*det3(a,c,d) - cl*det3(a,b,d) + dl*det3(a,b,c)
  const double da = det3(bex, bey, bez, cex, cey, cez, dex, dey, dez);
  const double db = det3(aex, aey, aez, cex, cey, cez, dex, dey, dez);
  const double dc = det3(aex, aey, aez, bex, bey, bez, dex, dey, dez);
  const double dd = det3(aex, aey, aez, bex, bey, bez, cex, cey, cez);
  const double det = -alift * da + blift * db - clift * dc + dlift * dd;

  auto absdet3 = [](double ux, double uy, double uz, double vx, double vy,
                    double vz, double wx, double wy, double wz) {
    return std::fabs(ux) * (std::fabs(vy * wz) + std::fabs(vz * wy)) +
           std::fabs(uy) * (std::fabs(vx * wz) + std::fabs(vz * wx)) +
           std::fabs(uz) * (std::fabs(vx * wy) + std::fabs(vy * wx));
  };
  const double permanent =
      alift * absdet3(bex, bey, bez, cex, cey, cez, dex, dey, dez) +
      blift * absdet3(aex, aey, aez, cex, cey, cez, dex, dey, dez) +
      clift * absdet3(aex, aey, aez, bex, bey, bez, dex, dey, dez) +
      dlift * absdet3(aex, aey, aez, bex, bey, bez, cex, cey, cez);
  const double errbound = kIspErrBoundA * permanent;
  if (det > errbound) return 1;
  if (det < -errbound) return -1;

  // Exact fallback.
  count_exact_fallback();
  const ExpVec3 ae = diff_exact(a, e);
  const ExpVec3 be = diff_exact(b, e);
  const ExpVec3 ce = diff_exact(c, e);
  const ExpVec3 de = diff_exact(d, e);
  auto lift = [](const ExpVec3& v) {
    return exp_add(exp_add(exp_mul(v.x, v.x), exp_mul(v.y, v.y)),
                   exp_mul(v.z, v.z));
  };
  const Exp la = lift(ae), lb = lift(be), lc = lift(ce), ld = lift(de);
  const Exp ea = det3_exact(be, ce, de);
  const Exp eb = det3_exact(ae, ce, de);
  const Exp ec = det3_exact(ae, be, de);
  const Exp ed = det3_exact(ae, be, ce);
  Exp total = exp_neg(exp_mul(la, ea));
  total = exp_add(total, exp_mul(lb, eb));
  total = exp_sub(total, exp_mul(lc, ec));
  total = exp_add(total, exp_mul(ld, ed));
  return exp_sign(total);
}

unsigned long long exact_fallback_count() {
  return g_exact_fallbacks.load(std::memory_order_relaxed);
}

void reset_exact_fallback_count() {
  g_exact_fallbacks.store(0, std::memory_order_relaxed);
}

}  // namespace tess::geom
