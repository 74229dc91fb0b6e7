// 4-wide double SIMD wrapper for the geometry kernels.
//
// The vector is a GCC/Clang vector-extension type (the only supported
// compilers), which lowers to whatever the target ISA provides: 2x SSE2 ops
// on baseline x86-64, one AVX2 op under -march=x86-64-v3 or in an avx2
// clone, NEON pairs on aarch64. Every operation is the IEEE-754 operation a
// scalar loop would apply lane by lane, so results are bitwise equal to
// that loop, including signed zeros and denormals (asserted by
// tests/test_simd.cpp). That is what lets the batched kernels reproduce the
// bits of their scalar expressions.
//
// Deliberately no FMA anywhere: a fused multiply-add rounds once where
// mul+add rounds twice, which would break lane-vs-scalar bit identity. The
// kernels translation unit is additionally compiled with -ffp-contract=off
// so the compiler cannot introduce contractions on its own.
#pragma once

#include <cstddef>

namespace tess::util::simd {

/// Lanes per batch. Fixed at 4 doubles (one 256-bit vector) independent of
/// the target ISA: narrower targets split the vector, which keeps batch
/// shapes — and therefore occupancy metrics — stable across builds.
inline constexpr std::size_t kLanes = 4;

struct Mask;

/// Four doubles, operated on lane-wise.
struct DVec {
  typedef double Native __attribute__((vector_size(sizeof(double) * kLanes)));
  Native v;

  static DVec broadcast(double s) { return {Native{s, s, s, s}}; }

  /// Four explicit lane values (the portable "gather" for AoS sources).
  static DVec set(double a, double b, double c, double d) {
    return {Native{a, b, c, d}};
  }

  /// Unaligned contiguous load of 4 doubles.
  static DVec load(const double* p) {
    return set(p[0], p[1], p[2], p[3]);
  }

  void store(double* p) const {
    for (std::size_t i = 0; i < kLanes; ++i) p[i] = lane(i);
  }

  [[nodiscard]] double lane(std::size_t i) const { return v[i]; }

  friend DVec operator+(const DVec& a, const DVec& b) { return {a.v + b.v}; }
  friend DVec operator-(const DVec& a, const DVec& b) { return {a.v - b.v}; }
  friend DVec operator*(const DVec& a, const DVec& b) { return {a.v * b.v}; }

  inline friend Mask operator>(const DVec& a, const DVec& b);
  inline friend Mask operator<=(const DVec& a, const DVec& b);
};

/// Lane-wise boolean result of a comparison (all-ones / all-zeros lanes).
struct Mask {
  typedef long long Native __attribute__((vector_size(sizeof(long long) * kLanes)));
  Native m;

  [[nodiscard]] bool lane(std::size_t i) const { return m[i] != 0; }

  friend Mask operator&(const Mask& a, const Mask& b) { return {a.m & b.m}; }
};

inline Mask operator>(const DVec& a, const DVec& b) { return {a.v > b.v}; }

inline Mask operator<=(const DVec& a, const DVec& b) { return {a.v <= b.v}; }

/// Lane-wise |x|: clears the sign bit, so abs(-0.0) == +0.0 and denormals
/// pass through unchanged (bit-identical to std::fabs per lane).
inline DVec abs(const DVec& a) {
  union {
    DVec::Native d;
    Mask::Native i;
  } u;
  u.d = a.v;
  u.i &= 0x7fffffffffffffffLL;
  return {u.d};
}

/// Lane-wise max via compare+select; for non-NaN inputs the result is one
/// of the two operands, so reductions built on it are order-insensitive at
/// the bit level (a tie between +0.0 and -0.0 picks `b`, matching the
/// scalar `a > b ? a : b`).
inline DVec max(const DVec& a, const DVec& b) {
  const Mask gt = a > b;
  union {
    DVec::Native d;
    Mask::Native m;
  } ua, ub, out;
  ua.d = a.v;
  ub.d = b.v;
  out.m = (ua.m & gt.m) | (ub.m & ~gt.m);
  return {out.d};
}

/// Horizontal max of the four lanes (order-insensitive for non-NaN input).
inline double hmax(const DVec& a) {
  double m = a.lane(0);
  for (std::size_t i = 1; i < kLanes; ++i)
    if (a.lane(i) > m) m = a.lane(i);
  return m;
}

}  // namespace tess::util::simd
