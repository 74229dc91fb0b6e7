// Block decomposition of a 3D domain with periodic boundary neighbors.
//
// This mirrors the role DIY plays for tess in the paper: the simulation
// hands the analysis its block decomposition and neighborhood connectivity,
// and the exchange layer moves particles between neighboring blocks. The
// two features the paper added to DIY — periodic boundary neighbors with a
// coordinate transform, and destination selection by proximity to a target
// point — live here and in exchange.hpp.
//
// Every decomposition is a k-d split tree over the domain. The grid
// constructor builds the regular bx*by*bz tiling as one, with planes at
// domain_min + (size / dims) * c and leaves numbered x fastest; kd() builds
// a mass-weighted (PARAVT-style) tree from a particle sample so each block
// carries roughly equal work. Routing, bounds and neighbor discovery all
// read the same tree, so a block owns exactly the points its half-open
// bounds contain.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "geom/vec3.hpp"

namespace tess::diy {

using geom::Vec3;

/// Axis-aligned block bounds [min, max).
struct Bounds {
  Vec3 min, max;

  [[nodiscard]] bool contains(const Vec3& p) const {
    return p.x >= min.x && p.x < max.x && p.y >= min.y && p.y < max.y &&
           p.z >= min.z && p.z < max.z;
  }
  /// Euclidean distance from p to the closed box (0 if inside).
  [[nodiscard]] double distance(const Vec3& p) const;
  /// Euclidean distance between two closed boxes (0 if they touch).
  [[nodiscard]] double box_distance(const Bounds& o) const;
  [[nodiscard]] Bounds grown(double t) const {
    return {min - Vec3{t, t, t}, max + Vec3{t, t, t}};
  }
  [[nodiscard]] Bounds shifted(const Vec3& s) const {
    return {min + s, max + s};
  }
};

/// One neighbor relationship. `shift` is the translation to apply to a
/// point when sending it to this neighbor across a periodic boundary (zero
/// for ordinary neighbors) — the "user-specified transformation" callback
/// the paper added to DIY, made concrete.
struct Neighbor {
  int block = -1;
  Vec3 shift{};

  bool operator==(const Neighbor& o) const {
    return block == o.block && shift == o.shift;
  }
};

/// One internal node of a k-d split tree. Trivially copyable so a split
/// tree built collectively on one rank can be broadcast as raw bytes.
/// Children encode either another split node (index >= 0 into the node
/// array) or a leaf block (~child is the block id).
struct KdSplit {
  int axis = 0;      // 0=x 1=y 2=z
  double coord = 0;  // points with p[axis] < coord route left
  int left = -1;
  int right = -1;
};

/// Decomposition of [domain_min, domain_max) into disjoint convex blocks.
class Decomposition {
 public:
  /// Regular grid of bx*by*bz uniform blocks, numbered x fastest.
  Decomposition(const Vec3& domain_min, const Vec3& domain_max,
                const std::array<int, 3>& blocks_per_dim, bool periodic);

  /// k-d tiling reconstructed from an explicit split tree (the broadcast
  /// side of a collective build). Validates that the tree tiles the domain
  /// into exactly `nblocks` leaves with each block id appearing once.
  Decomposition(const Vec3& domain_min, const Vec3& domain_max, bool periodic,
                int nblocks, std::vector<KdSplit> splits);

  /// Mass-weighted recursive bisection: split the longest axis of each box
  /// at the weighted median of the contained sample points until `nblocks`
  /// leaves exist. `weights` is optional (HACC particles are equal-mass, so
  /// the default is unit weight per point). Deterministic for a given
  /// point multiset: ties in the split coordinate are resolved at distinct-
  /// coordinate granularity, independent of input order.
  static Decomposition kd(const Vec3& domain_min, const Vec3& domain_max,
                          bool periodic, int nblocks,
                          const std::vector<Vec3>& points,
                          const std::vector<double>* weights = nullptr);

  /// Near-cubic factorization of `nblocks` used when the caller only knows
  /// the total count (one block per rank).
  static std::array<int, 3> factor(int nblocks);

  [[nodiscard]] int num_blocks() const { return nblocks_; }
  /// The split tree (empty when nblocks == 1).
  [[nodiscard]] const std::vector<KdSplit>& splits() const { return splits_; }
  [[nodiscard]] bool periodic() const { return periodic_; }
  [[nodiscard]] const Vec3& domain_min() const { return domain_min_; }
  [[nodiscard]] const Vec3& domain_max() const { return domain_max_; }
  [[nodiscard]] Vec3 domain_size() const { return domain_max_ - domain_min_; }

  [[nodiscard]] Bounds block_bounds(int block) const;

  /// The block whose half-open bounds contain p (p is wrapped into the
  /// domain when periodic, clamped otherwise).
  [[nodiscard]] int block_of_point(const Vec3& p) const;

  /// Neighbor discovery from block extents: every (block, shift) pair
  /// whose box lies within `reach` of some periodic image of `block`'s
  /// box — i.e. a particle of mine, translated by `shift`, could fall
  /// inside that block's bounds grown by `reach`. Reach 0 gives every
  /// block touching mine (on a grid, the 26-neighborhood; with few blocks
  /// per dimension the same block can appear under several shifts,
  /// including itself); a larger reach also finds blocks further away.
  /// Periodic images consider one wrap per axis, which covers any reach up
  /// to the domain size. Results are memoised per (block, reach); the
  /// cache is mutex-guarded because rank threads share one Decomposition.
  [[nodiscard]] std::vector<Neighbor> neighbors_within(int block,
                                                      double reach) const;

  /// Wrap a point into the primary domain (no-op when not periodic).
  [[nodiscard]] Vec3 wrap(const Vec3& p) const;

 private:
  [[nodiscard]] std::vector<Neighbor> compute_neighbors_within(
      int block, double reach) const;
  void build_bounds();

  Vec3 domain_min_, domain_max_;
  bool periodic_ = false;
  int nblocks_ = 1;
  std::vector<KdSplit> splits_;
  std::vector<Bounds> bounds_;  // per-block extents, read off splits_

  // Lazy neighbor cache shared by all rank threads (see neighbors_within).
  mutable std::mutex nbr_mutex_;
  mutable std::map<std::pair<int, double>,
                   std::shared_ptr<const std::vector<Neighbor>>>
      nbr_cache_;
};

}  // namespace tess::diy
