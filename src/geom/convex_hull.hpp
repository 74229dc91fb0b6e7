// 3D convex hull via the quickhull algorithm (Barber, Dobkin, Huhdanpaa
// 1996), the step the paper runs through Qhull on each Voronoi cell to
// order its vertices into faces and obtain volume and surface area. tess's
// clipped cells carry their own ordered faces, volume and area, so the
// library does not call it; the tests use it as an independent cross-check
// of them.
//
// Visibility tests use the robust orient3d predicate, so the hull is correct
// for degenerate/cospherical inputs; exactly coplanar points are treated as
// not visible, which keeps the output a valid triangulated convex surface.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "geom/vec3.hpp"

namespace tess::geom {

struct HullResult {
  /// Outward-oriented triangles, as indices into the input point array.
  std::vector<std::array<int, 3>> faces;
  /// Indices of input points that lie on the hull (sorted, unique).
  std::vector<int> vertices;
  double volume = 0.0;
  double area = 0.0;
  /// True when the input has rank < 3 (all points coincident, collinear, or
  /// coplanar); faces/volume/area are empty/zero in that case.
  bool degenerate = false;
};

/// Compute the convex hull of `points`. Duplicates and interior points are
/// handled; at least four affinely independent points are required for a
/// non-degenerate result. The conflict-list visibility tests run through
/// the batched orient3d filter, whose signs are exact.
HullResult convex_hull(const std::vector<Vec3>& points);

}  // namespace tess::geom
