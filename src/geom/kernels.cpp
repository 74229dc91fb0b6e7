// See kernels.hpp for the bit-exactness contract. This file is compiled with
// -ffp-contract=off (src/geom/CMakeLists.txt): a fused multiply-add rounds
// once where mul+add rounds twice, so a contraction the compiler makes for
// one ISA or clone but not another would make the kernels' bits depend on
// the build or the host. Keep every floating-point expression here in the
// exact association order of its scalar counterpart (geom::dist2,
// VoronoiCell::cut and clip).
#include "geom/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/simd.hpp"

// Runtime ISA dispatch for the sweeps: the "default" clone targets the
// build's baseline ISA, the "avx2" clone runs the 4-lane vectors as single
// 256-bit ops on hardware that has them. Both clones execute the same IEEE
// operations (no FMA — contraction is off), so the dispatch never changes a
// result bit. Disabled under sanitizers (ifunc resolvers run before their
// runtimes initialize) and on compilers without the attribute.
#if defined(__x86_64__) && defined(__linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define TESS_KERNEL_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define TESS_KERNEL_CLONES
#endif

namespace tess::geom::kernels {

namespace simd = tess::util::simd;

TESS_KERNEL_CLONES
void plane_distances(const Vec3* verts, std::size_t n, const Vec3& normal,
                     double plane_d, double* dist, double* abs_max_out) {
  const simd::DVec nx = simd::DVec::broadcast(normal.x);
  const simd::DVec ny = simd::DVec::broadcast(normal.y);
  const simd::DVec nz = simd::DVec::broadcast(normal.z);
  const simd::DVec pd = simd::DVec::broadcast(plane_d);
  simd::DVec amax = simd::DVec::broadcast(0.0);
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    // Lane gather from the AoS vertex array; the arithmetic afterwards is
    // one 4-wide sweep.
    const simd::DVec vx = simd::DVec::set(verts[i].x, verts[i + 1].x,
                                          verts[i + 2].x, verts[i + 3].x);
    const simd::DVec vy = simd::DVec::set(verts[i].y, verts[i + 1].y,
                                          verts[i + 2].y, verts[i + 3].y);
    const simd::DVec vz = simd::DVec::set(verts[i].z, verts[i + 1].z,
                                          verts[i + 2].z, verts[i + 3].z);
    const simd::DVec nv = (nx * vx + ny * vy) + nz * vz;
    (nv - pd).store(dist + i);
    amax = simd::max(amax, simd::abs(nv));
  }
  double abs_max = simd::hmax(amax);
  for (; i < n; ++i) {
    const double nv =
        (normal.x * verts[i].x + normal.y * verts[i].y) + normal.z * verts[i].z;
    dist[i] = nv - plane_d;
    const double a = std::fabs(nv);
    if (a > abs_max) abs_max = a;
  }
  *abs_max_out = abs_max;
}

TESS_KERNEL_CLONES
std::size_t screen_candidates(const double* x, const double* y, const double* z,
                              const int* idx, std::size_t n,
                              const CandidateFilter& f,
                              std::pair<double, int>* out,
                              std::uint64_t* outside_box) {
  const simd::DVec sx = simd::DVec::broadcast(f.site.x);
  const simd::DVec sy = simd::DVec::broadcast(f.site.y);
  const simd::DVec sz = simd::DVec::broadcast(f.site.z);
  const simd::DVec lim = simd::DVec::broadcast(f.limit);
  const simd::DVec lox = simd::DVec::broadcast(f.lo.x);
  const simd::DVec loy = simd::DVec::broadcast(f.lo.y);
  const simd::DVec loz = simd::DVec::broadcast(f.lo.z);
  const simd::DVec hix = simd::DVec::broadcast(f.hi.x);
  const simd::DVec hiy = simd::DVec::broadcast(f.hi.y);
  const simd::DVec hiz = simd::DVec::broadcast(f.hi.z);
  std::size_t kept = 0;
  std::uint64_t outside = 0;
  const auto sweep = [&](const simd::DVec& px, const simd::DVec& py,
                         const simd::DVec& pz, const int* id,
                         std::size_t lanes) {
    const simd::DVec dx = px - sx, dy = py - sy, dz = pz - sz;
    const simd::DVec d2 = (dx * dx + dy * dy) + dz * dz;
    const simd::Mask in_box = (lox <= px) & (px <= hix) & (loy <= py) &
                              (py <= hiy) & (loz <= pz) & (pz <= hiz);
    const simd::Mask keep = in_box & (d2 <= lim);
    for (std::size_t l = 0; l < lanes; ++l) {
      out[kept] = {d2.lane(l), id[l]};
      kept += static_cast<std::size_t>(keep.lane(l)) &
              static_cast<std::size_t>(id[l] != f.skip);
      outside += static_cast<std::uint64_t>(!in_box.lane(l));
    }
  };
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes)
    sweep(simd::DVec::load(x + i), simd::DVec::load(y + i),
          simd::DVec::load(z + i), idx + i, simd::kLanes);
  if (i < n) {
    // The n % 4 tail rides in one more vector, its last point repeated
    // into the unused lanes, which are neither stored past n nor counted.
    const std::size_t last = n - 1;
    const auto tail = [&](const double* a) {
      return simd::DVec::set(a[i], a[std::min(i + 1, last)],
                             a[std::min(i + 2, last)], a[last]);
    };
    sweep(tail(x), tail(y), tail(z), idx + i, n - i);
  }
  *outside_box += outside;
  return kept;
}

TESS_KERNEL_CLONES
std::size_t screen_cutters(const double* x, const double* y, const double* z,
                           const Vec3& site, const Vec3* verts, std::size_t nv,
                           std::pair<double, int>* cand, std::size_t n) {
  const simd::DVec sx = simd::DVec::broadcast(site.x);
  const simd::DVec sy = simd::DVec::broadcast(site.y);
  const simd::DVec sz = simd::DVec::broadcast(site.z);
  const simd::DVec half = simd::DVec::broadcast(0.5);
  const simd::DVec zero = simd::DVec::broadcast(0.0);
  const simd::DVec one = simd::DVec::broadcast(1.0);
  const simd::DVec tol = simd::DVec::broadcast(1e-12);
  const simd::DVec lowest =
      simd::DVec::broadcast(-std::numeric_limits<double>::infinity());
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    // One bisector per lane; each vertex is broadcast against all four.
    const simd::DVec px = simd::DVec::load(x + i);
    const simd::DVec py = simd::DVec::load(y + i);
    const simd::DVec pz = simd::DVec::load(z + i);
    const simd::DVec nx = px - sx, ny = py - sy, nz = pz - sz;
    const simd::DVec d =
        (nx * ((px + sx) * half) + ny * ((py + sy) * half)) +
        nz * ((pz + sz) * half);
    simd::DVec top = lowest, amax = zero;
    for (std::size_t v = 0; v < nv; ++v) {
      const simd::DVec nvv =
          (nx * simd::DVec::broadcast(verts[v].x) +
           ny * simd::DVec::broadcast(verts[v].y)) +
          nz * simd::DVec::broadcast(verts[v].z);
      top = simd::max(top, nvv - d);
      amax = simd::max(amax, simd::abs(nvv));
    }
    const simd::DVec eps = tol * ((simd::abs(d) + amax) + one);
    const simd::Mask may_cut = (zero - eps) <= top;
    for (std::size_t l = 0; l < simd::kLanes; ++l)
      if (may_cut.lane(l)) cand[kept++] = cand[i + l];
  }
  for (; i < n; ++i) {
    const double nx = x[i] - site.x, ny = y[i] - site.y, nz = z[i] - site.z;
    const double d = (nx * ((x[i] + site.x) * 0.5) +
                      ny * ((y[i] + site.y) * 0.5)) +
                     nz * ((z[i] + site.z) * 0.5);
    double top = -std::numeric_limits<double>::infinity(), amax = 0.0;
    for (std::size_t v = 0; v < nv; ++v) {
      const double nvv =
          (nx * verts[v].x + ny * verts[v].y) + nz * verts[v].z;
      top = std::max(top, nvv - d);
      amax = std::max(amax, std::fabs(nvv));
    }
    const double eps = 1e-12 * ((std::fabs(d) + amax) + 1.0);
    if (-eps <= top) cand[kept++] = cand[i];
  }
  return kept;
}

}  // namespace tess::geom::kernels
