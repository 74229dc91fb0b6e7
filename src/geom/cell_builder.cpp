#include "geom/cell_builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geom/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

namespace tess::geom {

namespace {

// Relative radius inflation of the vertex balls in the bin prune. Far above
// the rounding of the ball bounds, so a pruned candidate lies outside every
// ball by a margin that also dominates the rounding of its clip() plane
// distances: clip() would classify every vertex inside and reject the cut.
constexpr double kBallMargin = 1e-6;

// Incremental quicksort: makes v[i] final in `less` order, for i = 0, 1, ...
// in turn. Positions below `settled` are final; `pivots` holds the final
// positions of pivots above them, v.size() at the bottom. Unsettled ranges
// are partitioned around a median of three until i is a pivot or its range
// is short enough to sort. Settling the first k of n costs O(n + k log k).
template <class T, class Less>
void settle(std::vector<T>& v, std::vector<std::size_t>& pivots,
            std::size_t i, std::size_t& settled, Less less) {
  constexpr std::size_t kSortRun = 16;
  if (i < settled) return;
  for (;;) {
    const std::size_t top = pivots.back();
    if (top == i) {
      pivots.pop_back();
      settled = i + 1;
      return;
    }
    const auto lo = v.begin() + static_cast<std::ptrdiff_t>(i);
    const auto hi = v.begin() + static_cast<std::ptrdiff_t>(top);
    if (top - i <= kSortRun) {
      std::sort(lo, hi, less);
      settled = top;
      return;
    }
    const auto mid = lo + static_cast<std::ptrdiff_t>((top - i) / 2);
    if (less(*mid, *lo)) std::iter_swap(mid, lo);
    if (less(*(hi - 1), *mid)) {
      std::iter_swap(hi - 1, mid);
      if (less(*mid, *lo)) std::iter_swap(mid, lo);
    }
    std::iter_swap(lo, mid);  // park the pivot at i, partition the rest
    const auto split =
        std::partition(lo + 1, hi, [&](const T& x) { return less(x, *lo); });
    std::iter_swap(lo, split - 1);
    pivots.push_back(static_cast<std::size_t>(split - 1 - v.begin()));
  }
}

}  // namespace

CellBuilder::CellBuilder(std::vector<Vec3> points, std::vector<std::int64_t> ids,
                         const Vec3& bounds_min, const Vec3& bounds_max,
                         TessBackend backend)
    : points_(std::move(points)),
      ids_(std::move(ids)),
      lo_(bounds_min),
      hi_(bounds_max),
      backend_(resolve_backend(backend)) {
  if (!ids_.empty() && ids_.size() != points_.size())
    throw std::invalid_argument("CellBuilder: ids/points size mismatch");
  rebuild_grid(target_per_dim(points_.size()));
}

int CellBuilder::target_per_dim(std::size_t n) {
  // Aim for ~4 points per bin so a shell sweep touches few empty bins.
  const double nd = static_cast<double>(std::max<std::size_t>(n, 1));
  return std::max(1, static_cast<int>(std::cbrt(nd / 4.0)));
}

void CellBuilder::rebuild_grid(int per_dim) {
  TESS_SPAN("geom.grid_rebuild");
  TESS_COUNT("geom.grid_rebuilds", 1);
  for (int a = 0; a < 3; ++a) {
    nb_[a] = per_dim;
    const double extent = hi_[static_cast<std::size_t>(a)] - lo_[static_cast<std::size_t>(a)];
    h_[a] = extent > 0.0 ? extent / per_dim : 1.0;
  }
  point_bin_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i)
    point_bin_[i] = bin_of(points_[i]);
  fill_csr();
}

void CellBuilder::fill_csr() {
  const std::size_t n = points_.size();
  const std::size_t nbins = static_cast<std::size_t>(nb_[0]) *
                            static_cast<std::size_t>(nb_[1]) *
                            static_cast<std::size_t>(nb_[2]);
  bin_offsets_.assign(nbins + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    ++bin_offsets_[static_cast<std::size_t>(point_bin_[i]) + 1];
  for (std::size_t b = 0; b < nbins; ++b) bin_offsets_[b + 1] += bin_offsets_[b];

  bin_items_.resize(n);
  csr_x_.resize(n);
  csr_y_.resize(n);
  csr_z_.resize(n);
  csr_cursor_.assign(bin_offsets_.begin(), bin_offsets_.end() - 1);
  // Stable within a bin: slots fill in increasing point index, matching the
  // append order of the old per-bin vectors.
  for (std::size_t i = 0; i < n; ++i) {
    const auto slot = static_cast<std::size_t>(
        csr_cursor_[static_cast<std::size_t>(point_bin_[i])]++);
    bin_items_[slot] = static_cast<int>(i);
    csr_x_[slot] = points_[i].x;
    csr_y_[slot] = points_[i].y;
    csr_z_[slot] = points_[i].z;
  }
}

void CellBuilder::add_points(const std::vector<Vec3>& points,
                             const std::vector<std::int64_t>& ids,
                             const Vec3& bounds_min, const Vec3& bounds_max) {
  TESS_SPAN("geom.add_points");
  if (!ids.empty() && ids.size() != points.size())
    throw std::invalid_argument("CellBuilder: ids/points size mismatch");
  if ((ids_.empty() && !ids.empty() && !points_.empty()) ||
      (!ids_.empty() && ids.empty() && !points.empty()))
    throw std::invalid_argument("CellBuilder: id presence must match construction");

  const std::size_t first_new = points_.size();
  points_.insert(points_.end(), points.begin(), points.end());
  ids_.insert(ids_.end(), ids.begin(), ids.end());

  bool box_grew = false;
  for (std::size_t a = 0; a < 3; ++a) {
    if (bounds_min[a] < lo_[a]) {
      lo_[a] = bounds_min[a];
      box_grew = true;
    }
    if (bounds_max[a] > hi_[a]) {
      hi_[a] = bounds_max[a];
      box_grew = true;
    }
  }

  const int per_dim = target_per_dim(points_.size());
  if (box_grew || per_dim != nb_[0]) {
    rebuild_grid(per_dim);
  } else {
    // Geometry unchanged: bin only the new points, then re-run the counting
    // sort over cached assignments (O(n), reusing every buffer).
    point_bin_.resize(points_.size());
    for (std::size_t i = first_new; i < points_.size(); ++i)
      point_bin_[i] = bin_of(points_[i]);
    fill_csr();
  }
}

int CellBuilder::bin_coord(int a, double x) const {
  // Clamp in double first so far-out coordinates (the vertex-ball bounds of
  // a seed-box cell) never overflow the int conversion. Both steps are
  // monotone in x, which the bin prune relies on.
  const double rel = (x - lo_[static_cast<std::size_t>(a)]) / h_[a];
  return static_cast<int>(std::clamp(rel, 0.0, static_cast<double>(nb_[a] - 1)));
}

int CellBuilder::bin_of(const Vec3& p) const {
  return (bin_coord(2, p.z) * nb_[1] + bin_coord(1, p.y)) * nb_[0] + bin_coord(0, p.x);
}

VoronoiCell CellBuilder::build(int site, const Vec3& box_min,
                               const Vec3& box_max) const {
  const Vec3& s = points_[static_cast<std::size_t>(site)];
  VoronoiCell cell(s, box_min, box_max);
  ClipScratch scratch;
  build_into(cell, scratch, site, box_min, box_max);
  return cell;
}

void CellBuilder::build_into(VoronoiCell& cell, ClipScratch& scratch, int site,
                             const Vec3& box_min, const Vec3& box_max) const {
  build_impl(cell, scratch, site, box_min, box_max, nullptr);
}

void CellBuilder::build_traced(VoronoiCell& cell, ClipScratch& scratch,
                               int site, const Vec3& box_min,
                               const Vec3& box_max, CellTrace& trace) const {
  trace.candidates.clear();
  trace.cut_ids.clear();
  build_impl(cell, scratch, site, box_min, box_max, &trace);
}

void CellBuilder::build_impl(VoronoiCell& cell, ClipScratch& scratch, int site,
                             const Vec3& box_min, const Vec3& box_max,
                             CellTrace* trace) const {
  const Vec3& s = points_[static_cast<std::size_t>(site)];
  cell.reset(s, box_min, box_max);
  scratch.backend = backend_;
  BackendStats st;

  // Site's bin coordinates.
  int sc[3];
  for (int a = 0; a < 3; ++a) sc[a] = bin_coord(a, s[static_cast<std::size_t>(a)]);
  const int site_bin = (sc[2] * nb_[1] + sc[1]) * nb_[0] + sc[0];
  const double hmin = std::min({h_[0], h_[1], h_[2]});
  const int max_ring = std::max({nb_[0], nb_[1], nb_[2]});

  auto& ring_pts = scratch.ring_pts;  // surviving (dist2, point index)
  auto& cx = scratch.cand_x;
  auto& cy = scratch.cand_y;
  auto& cz = scratch.cand_z;
  auto& cd2 = scratch.cand_d2;
  auto& cidx = scratch.cand_idx;

  auto merge_counters = [&] {
    cuts_.fetch_add(st.cuts, std::memory_order_relaxed);
    cuts_noop_.fetch_add(st.cuts_noop, std::memory_order_relaxed);
    bins_pruned_.fetch_add(st.bins_pruned, std::memory_order_relaxed);
    cand_seen_.fetch_add(st.cand_seen, std::memory_order_relaxed);
    cand_kept_.fetch_add(st.cand_kept, std::memory_order_relaxed);
    batches_.fetch_add(st.batches, std::memory_order_relaxed);
    lanes_.fetch_add(st.lanes, std::memory_order_relaxed);
    TESS_HIST_ADD("geom.cell_cuts", st.cuts);
  };

  for (int r = 0; r <= max_ring; ++r) {
    // Any point in a bin at Chebyshev ring r is at least (r-1)*hmin from the
    // site; once that exceeds the security radius 2*Rmax, no remaining
    // candidate can cut the cell.
    if (r >= 2) {
      const double ring_min = (r - 1) * hmin;
      if (ring_min * ring_min > 4.0 * cell.max_radius2()) break;
    }

    // Shell bounds: ring r clipped to the grid, and past the site's own bin
    // to the bins that can hold a cutter. A point cuts the cell only if it
    // lies in some vertex ball B(v, |v - s|), so only bins meeting the
    // bounding box of those balls (radii inflated by kBallMargin) are
    // gathered; bin coordinates are monotone in position, so every other bin
    // holds only points outside the box. The balls only shrink as cuts land:
    // a skipped bin stays useless for the rest of the build, and once the
    // box lies inside earlier rings, no later shell can hold a cutter.
    const int x0 = sc[0] - r, x1 = sc[0] + r;
    const int y0 = sc[1] - r, y1 = sc[1] + r;
    const int z0 = sc[2] - r, z1 = sc[2] + r;
    int lo[3] = {std::max(x0, 0), std::max(y0, 0), std::max(z0, 0)};
    int hi[3] = {std::min(x1, nb_[0] - 1), std::min(y1, nb_[1] - 1),
                 std::min(z1, nb_[2] - 1)};
    if (r > 0) {
      Vec3 bmin = s, bmax = s;
      for (const Vec3& v : cell.vertices()) {
        const double rad = std::sqrt(dist2(v, s)) * (1.0 + kBallMargin);
        for (std::size_t a = 0; a < 3; ++a) {
          bmin[a] = std::min(bmin[a], v[a] - rad);
          bmax[a] = std::max(bmax[a], v[a] + rad);
        }
      }
      int ball_lo[3], ball_hi[3], reach = 0;
      for (int a = 0; a < 3; ++a) {
        ball_lo[a] = bin_coord(a, bmin[static_cast<std::size_t>(a)]);
        ball_hi[a] = bin_coord(a, bmax[static_cast<std::size_t>(a)]);
        reach = std::max({reach, sc[a] - ball_lo[a], ball_hi[a] - sc[a]});
      }
      if (reach < r) break;
      // Shell bins of the box [l, h]: all of it minus its part strictly
      // inside ring r.
      auto shell_bins = [&](const int* l, const int* h) {
        std::int64_t all = 1, inner = 1;
        for (int a = 0; a < 3; ++a) {
          all *= std::max(0, h[a] - l[a] + 1);
          inner *= std::max(0, std::min(h[a], sc[a] + r - 1) -
                                   std::max(l[a], sc[a] - r + 1) + 1);
        }
        return static_cast<std::uint64_t>(all - inner);
      };
      const std::uint64_t in_grid = shell_bins(lo, hi);
      for (int a = 0; a < 3; ++a) {
        lo[a] = std::max(lo[a], ball_lo[a]);
        hi[a] = std::min(hi[a], ball_hi[a]);
      }
      st.bins_pruned += in_grid - shell_bins(lo, hi);
    }

    // Gather the shell's candidates into contiguous SoA batches: one
    // three-array copy per bin segment (the CSR slabs are already SoA).
    cx.clear();
    cy.clear();
    cz.clear();
    cidx.clear();
    std::ptrdiff_t site_slot = -1;
    for (int z = lo[2]; z <= hi[2]; ++z)
      for (int y = lo[1]; y <= hi[1]; ++y)
        for (int x = lo[0]; x <= hi[0]; ++x) {
          // Shell only: skip interior bins already visited at smaller r.
          if (r > 0 && x != x0 && x != x1 && y != y0 && y != y1 && z != z0 &&
              z != z1)
            continue;
          const int b = (z * nb_[1] + y) * nb_[0] + x;
          const auto begin = static_cast<std::size_t>(bin_offsets_[static_cast<std::size_t>(b)]);
          const auto end = static_cast<std::size_t>(bin_offsets_[static_cast<std::size_t>(b) + 1]);
          if (begin == end) continue;
          const std::size_t base = cidx.size();
          cx.insert(cx.end(), csr_x_.begin() + static_cast<std::ptrdiff_t>(begin),
                    csr_x_.begin() + static_cast<std::ptrdiff_t>(end));
          cy.insert(cy.end(), csr_y_.begin() + static_cast<std::ptrdiff_t>(begin),
                    csr_y_.begin() + static_cast<std::ptrdiff_t>(end));
          cz.insert(cz.end(), csr_z_.begin() + static_cast<std::ptrdiff_t>(begin),
                    csr_z_.begin() + static_cast<std::ptrdiff_t>(end));
          cidx.insert(cidx.end(),
                      bin_items_.begin() + static_cast<std::ptrdiff_t>(begin),
                      bin_items_.begin() + static_cast<std::ptrdiff_t>(end));
          if (b == site_bin)
            for (std::size_t k = begin; k < end; ++k)
              if (bin_items_[k] == site) {
                site_slot = static_cast<std::ptrdiff_t>(base + (k - begin));
                break;
              }
        }

    const std::size_t n = cidx.size();
    st.cand_seen += n;
    if (backend_ == TessBackend::kSimd) {
      st.batches += (n + util::simd::kLanes - 1) / util::simd::kLanes;
      st.lanes += n;
    }

    // Batched squared distances (bitwise equal across backends), then the
    // site itself is masked out and the screen drops everything already
    // beyond the security radius at ring entry. The screen cannot change
    // the cut sequence: the threshold only shrinks as cuts land, so any
    // candidate past the entry threshold would have terminated the sorted
    // consume loop before being reached.
    cd2.resize(n);
    kernels::dist2_batch(backend_, cx.data(), cy.data(), cz.data(), n, s,
                         cd2.data());
    if (site_slot >= 0)
      cd2[static_cast<std::size_t>(site_slot)] =
          std::numeric_limits<double>::infinity();
    ring_pts.clear();
    st.cand_kept += kernels::screen_candidates(backend_, cd2.data(), cidx.data(),
                                            n, 4.0 * cell.max_radius2(),
                                            ring_pts);

    // Canonical candidate order: distance, then id, then position. The key
    // is a pure function of the particle (never its array index), so an
    // incrementally grown builder and a from-scratch builder over the same
    // point set cut every cell in the identical sequence — the invariant
    // behind byte-identical incremental auto-ghost. Position breaks id ties
    // between periodic self-images, which share one id. Distinct candidate
    // images have distinct keys, so the sorted sequence is unique; it is
    // settled lazily, as a cell cuts only its nearest fifth or so. Trace
    // mode settles every position first, to record the full list.
    auto canonical_less = [this](const std::pair<double, int>& a,
                                 const std::pair<double, int>& b) {
      if (a.first != b.first) return a.first < b.first;
      const std::int64_t ia =
          ids_.empty() ? a.second : ids_[static_cast<std::size_t>(a.second)];
      const std::int64_t ib =
          ids_.empty() ? b.second : ids_[static_cast<std::size_t>(b.second)];
      if (ia != ib) return ia < ib;
      const Vec3& pa = points_[static_cast<std::size_t>(a.second)];
      const Vec3& pb = points_[static_cast<std::size_t>(b.second)];
      if (pa.x != pb.x) return pa.x < pb.x;
      if (pa.y != pb.y) return pa.y < pb.y;
      return pa.z < pb.z;
    };
    const std::size_t kept = ring_pts.size();
    scratch.ring_pivots.assign(1, kept);
    std::size_t settled = 0;
    if (trace) {
      for (std::size_t i = 0; i < kept; ++i)
        settle(ring_pts, scratch.ring_pivots, i, settled, canonical_less);
      for (const auto& [d2, j] : ring_pts)
        trace->candidates.emplace_back(
            d2, ids_.empty() ? j : ids_[static_cast<std::size_t>(j)]);
    }

    for (std::size_t i = 0; i < kept; ++i) {
      settle(ring_pts, scratch.ring_pivots, i, settled, canonical_less);
      const auto [d2, j] = ring_pts[i];
      if (d2 > 4.0 * cell.max_radius2()) break;  // sorted: rest are farther
      const std::int64_t id = ids_.empty() ? j : ids_[static_cast<std::size_t>(j)];
      ++st.cuts;
      if (trace) trace->cut_ids.push_back(id);
      if (!cell.cut(points_[static_cast<std::size_t>(j)], id, scratch))
        ++st.cuts_noop;
      if (cell.empty()) {
        merge_counters();
        return;
      }
    }
  }
  merge_counters();
}

}  // namespace tess::geom
