// Robust geometric predicates.
//
// The convex-hull and Delaunay-validation code paths need orientation and
// in-sphere tests whose *sign* is always correct, even for nearly degenerate
// inputs. Each predicate first evaluates in plain double precision with a
// forward error bound (the "static filter"); if the result magnitude falls
// inside the bound, it re-evaluates exactly using floating-point expansion
// arithmetic (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and
// Fast Robust Geometric Predicates", 1997). The coordinate differences that
// seed the determinants are captured exactly as two-term expansions, so the
// exact path is error-free.
#pragma once

#include <cstddef>

#include "geom/vec3.hpp"

namespace tess::geom {

/// Sign of the determinant
///   | ax-dx  ay-dy  az-dz |
///   | bx-dx  by-dy  bz-dz |
///   | cx-dx  cy-dy  cz-dz |
/// Positive when d lies below the plane through a,b,c oriented so that
/// a,b,c appear counterclockwise from above (right-hand rule).
/// Returns +1, -1, or 0 (exactly coplanar).
int orient3d(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);

/// Signed value of the same determinant evaluated in double precision
/// (no filter) — useful for magnitude estimates, not for sign decisions.
double orient3d_fast(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);

/// Signs of orient3d(a, b, c, (dx[i], dy[i], dz[i])) for n query points in
/// SoA form, written to out[i] in {-1, 0, +1}. The semi-static filter
/// (determinant vs. permanent error bound) runs four lanes wide; lanes the
/// filter cannot certify, and the n % 4 tail, go through scalar orient3d
/// one at a time, falling back to exact arithmetic where its own filter
/// fails. The signs equal orient3d's: the filter is conservative, so
/// whichever route a lane takes ends at the true sign — bit-level agreement
/// of the filter values is not required, only of the decisions, which is
/// why this batch may live outside the contract-off kernels TU.
void orient3d_batch(const Vec3& a, const Vec3& b, const Vec3& c,
                    const double* dx, const double* dy, const double* dz,
                    std::size_t n, int* out);

/// Sign of the 4x4 in-sphere determinant: positive when point e lies inside
/// the sphere through a,b,c,d (with a,b,c,d positively oriented per
/// orient3d), negative outside, 0 exactly on the sphere.
int insphere(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
             const Vec3& e);

/// Number of predicate evaluations that fell back to exact arithmetic since
/// process start or the last reset, over all threads (a diagnostic; the
/// predicate tests read it to check that the exact path ran).
unsigned long long exact_fallback_count();
void reset_exact_fallback_count();

}  // namespace tess::geom
