// Batched floating-point kernels of the per-cell clip loop.
//
// Everything whose VALUE (not just sign) feeds the clip loop lives in this
// one translation unit: squared site-candidate distances, the candidate
// screen against the security radius, the per-vertex plane distances of
// VoronoiCell::clip, and the vertex-ball screen of the cell builder. Each kernel sweeps four lanes at a time and finishes
// the n % 4 tail with the same expression in scalar form. Both perform plain
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
#include <utility>
#include <vector>

#include "geom/vec3.hpp"

namespace tess::geom::kernels {

/// d2[i] = squared distance from `site` to (x[i], y[i], z[i]), the bits of
/// the unfused (dx*dx + dy*dy) + dz*dz that geom::dist2(site, p_i) spells out.
void dist2_batch(const double* x, const double* y, const double* z,
                 std::size_t n, const Vec3& site, double* d2);

/// Append (d2[i], idx[i]) to `out` for every i with d2[i] <= limit,
/// preserving input order. Returns the number of survivors.
std::size_t screen_candidates(const double* d2, const int* idx, std::size_t n,
                              double limit,
                              std::vector<std::pair<double, int>>& out);

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
