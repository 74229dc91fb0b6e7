#include "geom/cell_builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geom/kernels.hpp"
#include "geom/settle.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

namespace tess::geom {

namespace {

// Vertex-ball screen trigger: once kScreenIdle cuts in a row within a ring
// have left the cell unchanged, the consume loop screens the ring's
// unconsumed candidates, and runs the vertex sweep only if at least
// kScreenMin of them are still inside the security radius. A uniform cell
// tries about 8 no-op cuts in all and rarely gets there; a clustered cell
// gathers hundreds of candidates per shell once it has settled.
constexpr int kScreenIdle = 2;
constexpr std::size_t kScreenMin = 32;

}  // namespace

CellBuilder::CellBuilder(std::vector<Vec3> points, std::vector<std::int64_t> ids,
                         const Vec3& bounds_min, const Vec3& bounds_max)
    : points_(std::move(points)),
      ids_(std::move(ids)),
      lo_(bounds_min),
      hi_(bounds_max) {
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
  BackendStats st;

  // Site's bin coordinates.
  int sc[3];
  for (int a = 0; a < 3; ++a) sc[a] = bin_coord(a, s[static_cast<std::size_t>(a)]);
  const double hmin = std::min({h_[0], h_[1], h_[2]});
  const int max_ring = std::max({nb_[0], nb_[1], nb_[2]});
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Surviving (dist2, point index) pairs of the current ring: the first
  // `kept` entries are live, and the vector only grows.
  auto& ring_pts = scratch.ring_pts;

  auto merge_counters = [&] {
    cuts_.fetch_add(st.cuts, std::memory_order_relaxed);
    cuts_noop_.fetch_add(st.cuts_noop, std::memory_order_relaxed);
    cuts_screened_.fetch_add(st.cuts_screened, std::memory_order_relaxed);
    bins_pruned_.fetch_add(st.bins_pruned, std::memory_order_relaxed);
    cand_seen_.fetch_add(st.cand_seen, std::memory_order_relaxed);
    cand_boxed_.fetch_add(st.cand_boxed, std::memory_order_relaxed);
    cand_kept_.fetch_add(st.cand_kept, std::memory_order_relaxed);
    batches_.fetch_add(st.batches, std::memory_order_relaxed);
    TESS_HIST_ADD("geom.cell_cuts", st.cuts);
  };

  // Vertex-ball screen of the unconsumed candidates ring_pts[from, end).
  // Returns false, leaving them untouched, when fewer than kScreenMin lie
  // inside the current security radius. Otherwise one batched sweep over
  // the current vertices drops each of those whose bisector leaves all of
  // them inside by more than clip()'s tolerance, the rest are compacted in
  // place, and `end` shrinks to match. Cells only shrink, and every later
  // vertex lies inside the current cell up to rounding far below that
  // tolerance, so a dropped candidate would still be a no-op cut when its
  // turn came: the cell and the order of its effective cuts are unchanged.
  // Candidates past the radius are kept as they are: a cut that rounds a
  // vertex outward can still grow it.
  auto screen = [&](std::size_t from, std::size_t& end) -> bool {
    const double limit = 4.0 * cell.max_radius2();
    const auto inside = [limit](const auto& c) { return c.first <= limit; };
    const auto first = ring_pts.begin() + static_cast<std::ptrdiff_t>(from);
    const auto last = ring_pts.begin() + static_cast<std::ptrdiff_t>(end);
    if (std::count_if(first, last, inside) <
        static_cast<std::ptrdiff_t>(kScreenMin))
      return false;
    const auto far = std::partition(first, last, inside);
    const auto m = static_cast<std::size_t>(far - first);
    auto& sx = scratch.screen_x;
    auto& sy = scratch.screen_y;
    auto& sz = scratch.screen_z;
    sx.resize(m);
    sy.resize(m);
    sz.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      const auto j = static_cast<std::size_t>(ring_pts[from + k].second);
      const Vec3& p = points_[j];
      sx[k] = p.x;
      sy[k] = p.y;
      sz[k] = p.z;
    }
    const std::size_t survivors = kernels::screen_cutters(
        sx.data(), sy.data(), sz.data(), s, cell.vertices().data(),
        cell.vertices().size(), ring_pts.data() + from, m);
    st.cuts_screened += m - survivors;
    std::move(far, last, first + static_cast<std::ptrdiff_t>(survivors));
    end -= m - survivors;
    return true;
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
    // bounding box of those balls (radii inflated by kVertexBallMargin) are
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
    // The candidate screen's filter. The same box drops single points in
    // build_into(): a point outside it lies outside every inflated ball, so
    // its cut would be a no-op, for the reason the bin prune's skipped bins
    // are. The traced build keeps the box infinite and is the unfiltered
    // reference.
    kernels::CandidateFilter filter{s, 4.0 * cell.max_radius2(),
                                    {-kInf, -kInf, -kInf},
                                    {kInf, kInf, kInf}, site};
    if (r > 0) {
      Vec3 bmin = s, bmax = s;
      for (const Vec3& v : cell.vertices()) {
        const double rad = std::sqrt(dist2(v, s)) * (1.0 + kVertexBallMargin);
        for (std::size_t a = 0; a < 3; ++a) {
          bmin[a] = std::min(bmin[a], v[a] - rad);
          bmax[a] = std::max(bmax[a], v[a] + rad);
        }
      }
      if (trace == nullptr) {
        filter.lo = bmin;
        filter.hi = bmax;
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

    // Screen each shell bin straight off its CSR slabs: batched squared
    // distances (the bits of geom::dist2), then the site itself, points
    // outside the box and everything already beyond the security radius at
    // ring entry are dropped. The radius screen cannot change the cut
    // sequence: the threshold only shrinks as cuts land, so any candidate
    // past the entry threshold would have terminated the sorted consume
    // loop before being reached.
    std::size_t kept = 0;
    for (int z = lo[2]; z <= hi[2]; ++z)
      for (int y = lo[1]; y <= hi[1]; ++y)
        for (int x = lo[0]; x <= hi[0]; ++x) {
          // Shell only: skip interior bins already visited at smaller r.
          if (r > 0 && x != x0 && x != x1 && y != y0 && y != y1 && z != z0 &&
              z != z1)
            continue;
          const auto b = static_cast<std::size_t>((z * nb_[1] + y) * nb_[0] + x);
          const auto begin = static_cast<std::size_t>(bin_offsets_[b]);
          const auto n = static_cast<std::size_t>(bin_offsets_[b + 1]) - begin;
          if (n == 0) continue;
          if (ring_pts.size() < kept + n)
            ring_pts.resize(std::max(kept + n, 2 * ring_pts.size()));
          st.cand_seen += n;
          st.batches += (n + util::simd::kLanes - 1) / util::simd::kLanes;
          kept += kernels::screen_candidates(
              csr_x_.data() + begin, csr_y_.data() + begin,
              csr_z_.data() + begin, bin_items_.data() + begin, n, filter,
              ring_pts.data() + kept, &st.cand_boxed);
        }
    st.cand_kept += kept;

    // Canonical candidate order: distance, then id, then position. The key
    // is a pure function of the particle (never its array index), so an
    // incrementally grown builder and a from-scratch builder over the same
    // point set cut every cell in the identical sequence — the invariant
    // behind byte-identical incremental auto-ghost. Position breaks id ties
    // between periodic self-images, which share one id. Distinct candidate
    // images have distinct keys, so the sorted sequence is unique; it is
    // settled lazily, as a cell cuts only its nearest fifth or so. Trace
    // mode settles every position first, to record the full list, and never
    // screens: it is the unscreened reference build_into() is tested
    // against.
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
    scratch.ring_pivots.assign(1, kept);
    std::size_t settled = 0;
    int idle = 0;  // consecutive no-op cuts in this ring
    // Within a ring the candidates inside the security radius only become
    // fewer, so a ring too short to screen stays unscreened.
    bool screen_ring = trace == nullptr;
    if (trace) {
      for (std::size_t i = 0; i < kept; ++i)
        detail::settle(ring_pts, scratch.ring_pivots, i, settled,
                       canonical_less);
      for (std::size_t i = 0; i < kept; ++i) {
        const int j = ring_pts[i].second;
        trace->candidates.emplace_back(
            ring_pts[i].first,
            ids_.empty() ? j : ids_[static_cast<std::size_t>(j)]);
      }
    }

    for (std::size_t i = 0; i < kept; ++i) {
      // Once the cell has stopped changing, screen what is left of the
      // ring. The survivors keep their canonical order: positions below i
      // are final and smaller than all of them, and the rest is settled
      // afresh over the survivors alone.
      if (screen_ring && idle >= kScreenIdle && kept - i >= kScreenMin) {
        idle = 0;
        screen_ring = screen(i, kept);
        if (screen_ring) {
          scratch.ring_pivots.assign(1, kept);
          settled = i;
          if (i == kept) break;
        }
      }
      detail::settle(ring_pts, scratch.ring_pivots, i, settled,
                     canonical_less);
      const auto [d2, j] = ring_pts[i];
      if (d2 > 4.0 * cell.max_radius2()) break;  // sorted: rest are farther
      const std::int64_t id = ids_.empty() ? j : ids_[static_cast<std::size_t>(j)];
      ++st.cuts;
      if (trace) trace->cut_ids.push_back(id);
      if (cell.cut(points_[static_cast<std::size_t>(j)], id, scratch)) {
        idle = 0;
      } else {
        ++st.cuts_noop;
        ++idle;
      }
      if (cell.empty()) {
        merge_counters();
        return;
      }
    }
  }
  merge_counters();
}

}  // namespace tess::geom
