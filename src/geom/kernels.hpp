// Batched floating-point kernels of the per-cell clip loop.
//
// Everything whose VALUE (not just sign) feeds the clip loop lives in this
// one translation unit: the candidate screen, which forms the squared
// site-candidate distances, the per-vertex plane distances of
// VoronoiCell::clip, and the vertex-ball screen of the cell builder. Each
// kernel sweeps four lanes at a time and finishes the n % 4 tail with the
// same expression, in scalar form or in one more vector. Both perform plain
// IEEE-754 multiplies and adds in one fixed association order — dist2 is
// always (dx*dx + dy*dy) + dz*dz, the expression geom::dist2 spells out —
// and kernels.cpp is compiled with -ffp-contract=off, so the compiler
// cannot fuse a*b+c into an FMA. Every lane, every ISA clone and every
// -march therefore produces the bits of the unfused scalar expression, so
// which clone a host dispatches to never changes a mesh (DESIGN.md §4.11).
//
// Sign-only predicates (orient3d and friends) do NOT need these rules; their
// batched filter lives in predicates.hpp and is exact because any
// conservative filter route ends in the same exact sign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "geom/vec3.hpp"

namespace tess::geom::kernels {

/// What screen_candidates() keeps of a grid bin's points: those other than
/// point `skip`, within squared distance `limit` of `site` and inside the
/// closed box [lo, hi]. An infinite box keeps every point the radius keeps.
struct CandidateFilter {
  Vec3 site;
  double limit = 0.0;
  Vec3 lo, hi;
  int skip = -1;
};

/// Candidate screen of the cell builder's ring sweep, run straight on one
/// grid bin's CSR slab. For i < n, d2 is the squared distance from
/// f.site to (x[i], y[i], z[i]), the bits of the unfused
/// (dx*dx + dy*dy) + dz*dz that geom::dist2 spells out, and (d2, idx[i])
/// is kept when f keeps point i. The kept pairs land in out[0, kept) in
/// input order. Every lane is stored and only the count advances by the
/// decision, so the sweep takes no data-dependent branch, and `out` must
/// have room for n pairs. Returns the number kept and adds the number of
/// points outside the box to *outside_box.
std::size_t screen_candidates(const double* x, const double* y, const double* z,
                              const int* idx, std::size_t n,
                              const CandidateFilter& f,
                              std::pair<double, int>* out,
                              std::uint64_t* outside_box);

/// dist[i] = dot(normal, verts[i]) - plane_d for i < n, and *abs_max_out =
/// max_i |dot(normal, verts[i])| (the conditioning scale for the clip
/// epsilon). The dot is always the unfused (nx*vx + ny*vy) + nz*vz, and
/// abs_max is a plain running max over non-negative values, so lane order
/// cannot change it.
void plane_distances(const Vec3* verts, std::size_t n, const Vec3& normal,
                     double plane_d, double* dist, double* abs_max_out);

/// Vertex-ball screen, four candidates per lane set: compacts cand[0, n) in
/// place, preserving order, to the candidates whose bisector may cut the
/// cell with vertices verts[0, nv) around `site`; (x[i], y[i], z[i]) are the
/// coordinates of cand[i]. The plane is formed as VoronoiCell::cut forms it,
/// n = p - site and d = n·((p + site) * 0.5), and the vertices are swept as
/// clip() sweeps them, nv = (nx*vx + ny*vy) + nz*vz with tolerance
/// eps = 1e-12 * ((|d| + max_v |nv|) + 1). A candidate is dropped when every
/// vertex lies inside its plane by more than eps: max_v (nv - d) < -eps.
/// Returns the number kept.
std::size_t screen_cutters(const double* x, const double* y, const double* z,
                           const Vec3& site, const Vec3* verts, std::size_t nv,
                           std::pair<double, int>* cand, std::size_t n);

}  // namespace tess::geom::kernels
