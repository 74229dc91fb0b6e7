#include "geom/voronoi_cell.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "geom/kernels.hpp"

namespace tess::geom {

namespace {

// Relative tolerance for classifying a vertex as on the kept side of a cut
// plane. On-plane vertices count as inside so tangent cuts are no-ops.
inline double plane_eps(const Plane& p, double vert_scale) {
  return 1e-12 * (std::fabs(p.d) + vert_scale + 1.0);
}

// Largest move, relative to the cell radius, that canonicalize() accepts
// from a generator solve.
constexpr double kCanonMaxShift = 1e-6;

// Scratch for the legacy no-scratch cut()/clip() overloads. Thread-local so
// the convenience API stays safe under intra-rank threading and still
// reuses its buffers across calls.
ClipScratch& tls_scratch() {
  thread_local ClipScratch scratch;
  return scratch;
}

// Working storage of face materialization, compact(), canonicalize() and
// append_compacted(), one per thread. Each buffer keeps one role and its
// capacity from cell to cell, so a warm worker finishes cells without
// touching the heap.
struct TidyScratch {
  std::vector<int> canon;      ///< weld target of each vertex
  std::vector<char> used;      ///< vertex referenced by some face
  std::vector<int> used_list;  ///< referenced vertices in first-use order
  std::vector<int> loop;       ///< the face loop being cleaned or walked
  std::vector<double> xs;      ///< x of each vertex, for the weld sweep
  std::vector<int> remap;      ///< old -> renumbered vertex index
  std::vector<Vec3> verts;     ///< pre-renumbering copy of the vertices
  std::vector<std::array<std::int64_t, 3>> gens;  ///< ... and generators
  /// Incident faces per vertex (only the first verts_.size() are in use).
  std::vector<util::SmallVector<int, 8>> incident;
  /// Face materialization: corners (4*v + slot) bucketed by plane, each
  /// plane's bucket starting at plane_start[p] (plane_fill is the fill
  /// cursor), and the corners walked.
  std::vector<int> plane_start;
  std::vector<int> plane_fill;
  std::vector<int> plane_corners;
  std::vector<char> walked;
  /// append_compacted()'s edge-table walk: each plane's first corner
  /// (4*v + slot, -1 for none) and its corner count.
  std::vector<int> first_corner;
  std::vector<int> corner_count;
};

TidyScratch& tls_tidy() {
  thread_local TidyScratch scratch;
  return scratch;
}

// volume(), area(), the zero-area prune and append_compacted() all fan a
// face loop from its first vertex, through these two functions, so each
// face's terms have the same bits on every path. fan_normal() sums the
// fan's cross products (twice the face's vector area).
Vec3 fan_normal(const std::vector<Vec3>& verts, const int* loop, std::size_t m) {
  const Vec3& p0 = verts[static_cast<std::size_t>(loop[0])];
  Vec3 n{};
  for (std::size_t i = 1; i + 1 < m; ++i) {
    const Vec3& p1 = verts[static_cast<std::size_t>(loop[i])];
    const Vec3& p2 = verts[static_cast<std::size_t>(loop[i + 1])];
    n += cross(p1 - p0, p2 - p0);
  }
  return n;
}

// Adds the fan's signed tetrahedron volumes against the origin to `vol`,
// one triangle at a time (the divergence theorem over a closed,
// outward-oriented surface).
void add_fan_volume(double& vol, const std::vector<Vec3>& verts, const int* loop,
                    std::size_t m) {
  const Vec3& p0 = verts[static_cast<std::size_t>(loop[0])];
  for (std::size_t i = 1; i + 1 < m; ++i) {
    const Vec3& p1 = verts[static_cast<std::size_t>(loop[i])];
    const Vec3& p2 = verts[static_cast<std::size_t>(loop[i + 1])];
    vol += dot(p0, cross(p1, p2)) / 6.0;
  }
}

// compact()'s tolerances, relative to the squared cell radius, the natural
// area scale of the polyhedron: faces of area at most `tiny` are pruned,
// vertices within sqrt(weld_eps2) weld, and a loop corner spanning an area
// at most `tiny` is dropped as collinear; past far2 its squared cross
// product cannot come back under that bound.
struct TidyBounds {
  double tiny, weld_eps2, far2;
  explicit TidyBounds(double radius2)
      : tiny(1e-12 * std::max(radius2, 1e-300)),
        weld_eps2(1e-18 * std::max(radius2, 1e-300)),
        far2(4.0 * tiny * tiny >= 1e-300
                 ? 4.0 * tiny * tiny * (1.0 + 1e-6)
                 : std::numeric_limits<double>::infinity()) {}
};

// How far past its own bound each compact() sweep still sends a cell down
// the full path, in squared lengths: a factor 2 in distance, against
// rounding errors of a few ulps of the cell's own coordinates.
constexpr double kCompactSweepMargin = 4.0;

// True when some pair of the n values lies within sqrt(bound2) of each
// other. Flat and branch-free per row, so the inner loop vectorizes.
bool any_pair_within(const double* x, std::size_t n, double bound2) {
  for (std::size_t i = 0; i < n; ++i) {
    bool hit = false;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      hit |= dx * dx <= bound2;
    }
    if (hit) return true;
  }
  return false;
}

// compact()'s weld sweep: a weld needs some pair whose x terms alone pass
// weld_eps2 (dist2 rounds no lower than its x term). It reads every
// vertex, a superset of the ones the faces use. When it passes, no two
// vertices share an x coordinate either.
bool weld_sweep_flags(const std::vector<Vec3>& verts, const TidyBounds& b) {
  auto& xs = tls_tidy().xs;
  xs.resize(verts.size());
  for (std::size_t v = 0; v < verts.size(); ++v) xs[v] = verts[v].x;
  return any_pair_within(xs.data(), xs.size(), kCompactSweepMargin * b.weld_eps2);
}

// compact()'s collinear sweep, per corner a -> b -> c of a loop longer than
// three: with no weld, the collinear pass can drop b only if this holds.
bool corner_sweep_flags(const Vec3& a, const Vec3& b, const Vec3& c,
                        const TidyBounds& bounds) {
  return norm2(cross(b - a, c - b)) <= kCompactSweepMargin * bounds.far2;
}

// Total order on face planes, a pure function of the generating geometry
// (source id, then the plane itself — planes disambiguate periodic images
// that share a source id).
bool plane_key_less(const VoronoiCell::Face& a, const VoronoiCell::Face& b) {
  if (a.source != b.source) return a.source < b.source;
  if (a.plane_n.x != b.plane_n.x) return a.plane_n.x < b.plane_n.x;
  if (a.plane_n.y != b.plane_n.y) return a.plane_n.y < b.plane_n.y;
  if (a.plane_n.z != b.plane_n.z) return a.plane_n.z < b.plane_n.z;
  return a.plane_d < b.plane_d;
}

bool vec3_lex_less(const Vec3& a, const Vec3& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

// The seed box: corner i has bit0 -> x, bit1 -> y, bit2 -> z (0 = min
// side), and face k (planes_ index k) is box plane source -(k+1), i.e.
// -X, +X, -Y, +Y, -Z, +Z, with its loop counter-clockwise from outside.
constexpr int kBoxPlanes = 6;
constexpr int kBoxLoops[kBoxPlanes][4] = {
    {0, 4, 6, 2}, {1, 3, 7, 5}, {0, 1, 5, 4},
    {2, 6, 7, 3}, {0, 2, 3, 1}, {4, 5, 7, 6},
};

// The box's edge table, derived once from its face loops. In a loop
// ... -> q -> v -> p -> ..., p follows q counter-clockwise around v, and
// the face holds the directed edge v -> p.
struct BoxTable {
  std::array<int, 3> links[8];
  std::array<int, 3> corners[8];
};

const BoxTable& box_table() {
  static const BoxTable table = [] {
    int out[8][3], in[8][3], face[8][3], n[8] = {};
    for (int f = 0; f < kBoxPlanes; ++f)
      for (int k = 0; k < 4; ++k) {
        const int v = kBoxLoops[f][k];
        out[v][n[v]] = kBoxLoops[f][(k + 1) % 4];
        in[v][n[v]] = kBoxLoops[f][(k + 3) % 4];
        face[v][n[v]++] = f;
      }
    int nb[8][3];
    BoxTable t{};
    for (int v = 0; v < 8; ++v)
      for (int s = 0, c = 0; s < 3; ++s) {
        nb[v][s] = out[v][c];
        t.corners[v][static_cast<std::size_t>(s)] = face[v][c];
        for (int d = 0; d < 3; ++d)
          if (out[v][d] == in[v][c]) {
            c = d;
            break;
          }
      }
    for (int v = 0; v < 8; ++v)
      for (int s = 0; s < 3; ++s) {
        const int w = nb[v][s];
        int j = 0;
        while (nb[w][j] != v) ++j;
        t.links[v][static_cast<std::size_t>(s)] = 4 * w + j;
      }
    return t;
  }();
  return table;
}

}  // namespace

VoronoiCell::VoronoiCell(const Vec3& site, const Vec3& box_min, const Vec3& box_max) {
  reset(site, box_min, box_max);
}

void VoronoiCell::reset(const Vec3& site, const Vec3& box_min, const Vec3& box_max) {
  site_ = site;
  const BoxTable& box = box_table();
  verts_.clear();
  links_.clear();
  corners_.clear();
  for (int i = 0; i < 8; ++i) {
    verts_.push_back({(i & 1) ? box_max.x : box_min.x,
                      (i & 2) ? box_max.y : box_min.y,
                      (i & 4) ? box_max.z : box_min.z});
    links_.push_back(box.links[i]);
    corners_.push_back(box.corners[i]);
  }
  planes_.clear();
  for (int k = 0; k < kBoxPlanes; ++k) {
    // Outward box plane n·x <= d for source -(2a+1) (-axis) / -(2a+2) (+axis).
    Plane& p = planes_.emplace_back();
    const auto axis = static_cast<std::size_t>(k / 2);
    const bool max_side = k % 2 != 0;
    p.n[axis] = max_side ? 1.0 : -1.0;
    p.d = max_side ? box_max[axis] : -box_min[axis];
    p.source = -(k + 1);
    p.gen = Vec3{};
  }
  faces_stale_ = true;
  finished_ = false;
  recompute_radius();
}

bool VoronoiCell::cut(const Vec3& neighbor, std::int64_t neighbor_id,
                      ClipScratch& scratch) {
  const Vec3 n = neighbor - site_;
  // Bisector plane: n·x = n·midpoint; the site side satisfies n·x < d.
  const Vec3 mid = (neighbor + site_) * 0.5;
  return clip({n, dot(n, mid), neighbor_id, neighbor}, scratch);
}

bool VoronoiCell::cut(const Vec3& neighbor, std::int64_t neighbor_id) {
  return cut(neighbor, neighbor_id, tls_scratch());
}

bool VoronoiCell::clip(const Plane& plane) { return clip(plane, tls_scratch()); }

bool VoronoiCell::clip(const Plane& plane, ClipScratch& s) {
  if (verts_.empty()) return false;
  if (finished_)
    throw std::logic_error("VoronoiCell: clip() after compact(); reset() first");

  // Signed distances for every vertex, four lanes at a time through the
  // kernel TU, with the bits of the unfused scalar dot product for any ISA
  // (see geom/kernels.hpp). Every stored vertex is live, so one flat sweep
  // decides a no-op cut — the common case — before any edge is touched.
  const std::size_t nv0 = verts_.size();
  double vert_scale = 0.0;
  s.dist.resize(nv0);
  kernels::plane_distances(verts_.data(), nv0, plane.n, plane.d, s.dist.data(),
                           &vert_scale);
  const double eps = plane_eps(plane, vert_scale);
  const double* dist = s.dist.data();

  s.removed.resize(nv0);
  std::size_t nr = 0;
  for (std::size_t i = 0; i < nv0; ++i) {
    s.removed[nr] = static_cast<int>(i);
    nr += dist[i] > eps ? 1 : 0;
  }
  if (nr == 0) return false;
  if (nr == nv0) {
    clear();
    return true;
  }
  faces_stale_ = true;

  // The cap's plane, with its generator position: the raw neighbour
  // coordinates when known, else reconstructed (direct clip() callers).
  const int cap = static_cast<int>(planes_.size());
  planes_.push_back(plane);
  if (std::isnan(plane.gen.x)) planes_.back().gen = site_ + plane.n;

  // One new vertex n per edge from a removed vertex u to a kept one w. It
  // takes u's place at w, and u's slot is pointed at n too, which marks the
  // crossing for the walk below (new vertices are numbered from nv0). Its
  // slots: 0 = w; 1 = the cap neighbour along the face holding n -> w;
  // 2 = the one along the face holding w -> n. The crossing is computed
  // along the edge in the direction the older of its two faces runs it, so
  // its bits depend on the planes alone, and t is clamped to the edge: a
  // kept vertex may lie up to eps outside the plane.
  const int n0 = static_cast<int>(nv0);
  for (std::size_t k = 0; k < nr; ++k) {
    const int u = s.removed[k];
    for (int i = 0; i < 3; ++i) {
      const int e = links_[static_cast<std::size_t>(u)][static_cast<std::size_t>(i)];
      const int w = e >> 2;
      if (dist[w] > eps) continue;
      const int j = e & 3;
      const int face_uw = corners_[static_cast<std::size_t>(u)][static_cast<std::size_t>(i)];
      const int face_wu = corners_[static_cast<std::size_t>(w)][static_cast<std::size_t>(j)];
      const int from = face_uw <= face_wu ? u : w;
      const int to = from == u ? w : u;
      const double t = std::clamp(dist[from] / (dist[from] - dist[to]), 0.0, 1.0);
      const Vec3& a = verts_[static_cast<std::size_t>(from)];
      const Vec3 p = a + (verts_[static_cast<std::size_t>(to)] - a) * t;
      const int n = static_cast<int>(verts_.size());
      verts_.push_back(p);
      links_.push_back({4 * w + j, -1, -1});
      corners_.push_back({face_uw, cap, face_wu});
      links_[static_cast<std::size_t>(w)][static_cast<std::size_t>(j)] = 4 * n;
      links_[static_cast<std::size_t>(u)][static_cast<std::size_t>(i)] = 4 * n;
    }
  }

  // Link the cap: from each new vertex n on (u, w), walk the face holding
  // w -> u forward over removed vertices to the next crossing m. That face
  // now runs w -> n -> m, so m is n's slot-2 neighbour and n is m's slot 1.
  // The next edge after a -> b in a face is b -> (b's neighbour before a).
  for (std::size_t k = 0; k < nr; ++k) {
    const int u = s.removed[k];
    for (int i = 0; i < 3; ++i) {
      const int n = links_[static_cast<std::size_t>(u)][static_cast<std::size_t>(i)] >> 2;
      if (n < n0) continue;
      int a = u, slot = (i + 2) % 3;
      for (;;) {
        const int e = links_[static_cast<std::size_t>(a)][static_cast<std::size_t>(slot)];
        const int b = e >> 2;
        if (b >= n0) {
          links_[static_cast<std::size_t>(n)][2] = 4 * b + 1;
          links_[static_cast<std::size_t>(b)][1] = 4 * n + 2;
          break;
        }
        a = b;
        slot = ((e & 3) + 2) % 3;
      }
    }
  }

  // Delete the removed vertices swap-with-last, highest index first, so
  // the vertex moved into a hole is never itself removed; its neighbours'
  // back-pointers follow it.
  for (std::size_t k = nr; k-- > 0;) {
    const auto u = static_cast<std::size_t>(s.removed[k]);
    const std::size_t last = verts_.size() - 1;
    if (u != last) {
      verts_[u] = verts_[last];
      links_[u] = links_[last];
      corners_[u] = corners_[last];
      for (int i = 0; i < 3; ++i) {
        const int e = links_[u][static_cast<std::size_t>(i)];
        links_[static_cast<std::size_t>(e >> 2)][static_cast<std::size_t>(e & 3)] =
            static_cast<int>(4 * u) + i;
      }
    }
    verts_.pop_back();
    links_.pop_back();
    corners_.pop_back();
  }
  recompute_radius();
  return true;
}

void VoronoiCell::clear() {
  faces_.clear();
  verts_.clear();
  gens_.clear();
  links_.clear();
  corners_.clear();
  faces_stale_ = false;
  max_radius2_ = 0.0;
}

void VoronoiCell::build_faces() const {
  TidyScratch& t = tls_tidy();
  const std::size_t nv = verts_.size();
  const std::size_t np = planes_.size();
  // Bucket the corners by plane (a counting sort), so faces come out in
  // plane-creation order.
  t.plane_start.assign(np + 1, 0);
  for (const auto& c : corners_)
    for (const int p : c) ++t.plane_start[static_cast<std::size_t>(p) + 1];
  for (std::size_t p = 0; p < np; ++p) t.plane_start[p + 1] += t.plane_start[p];
  t.plane_corners.resize(3 * nv);
  t.plane_fill.assign(t.plane_start.begin(), t.plane_start.end() - 1);
  for (std::size_t v = 0; v < nv; ++v)
    for (int i = 0; i < 3; ++i) {
      const auto p = static_cast<std::size_t>(corners_[v][static_cast<std::size_t>(i)]);
      t.plane_corners[static_cast<std::size_t>(t.plane_fill[p]++)] =
          4 * static_cast<int>(v) + i;
    }
  // Walk each plane's loops: after a -> b comes b -> (b's neighbour before
  // a). A plane whose face a degenerate cut split yields one loop per piece.
  t.walked.assign(4 * nv, 0);
  faces_.clear();
  for (std::size_t p = 0; p < np; ++p)
    for (int c = t.plane_start[p]; c < t.plane_start[p + 1]; ++c) {
      const int start = t.plane_corners[static_cast<std::size_t>(c)];
      if (t.walked[static_cast<std::size_t>(start)]) continue;
      Face& f = faces_.emplace_back();
      const Plane& plane = planes_[p];
      f.source = plane.source;
      f.plane_n = plane.n;
      f.plane_d = plane.d;
      f.gen = plane.gen;
      int corner = start;
      do {
        t.walked[static_cast<std::size_t>(corner)] = 1;
        const int v = corner >> 2;
        f.verts.push_back(v);
        const int e = links_[static_cast<std::size_t>(v)][static_cast<std::size_t>(corner & 3)];
        corner = (e & ~3) + ((e & 3) + 2) % 3;
      } while (corner != start);
    }
  // Generators: the distinct sources of each vertex's three faces.
  gens_.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    auto& g = gens_[v];
    g.fill(kNoGenerator);
    std::size_t m = 0;
    for (const int p : corners_[v]) {
      const std::int64_t src = planes_[static_cast<std::size_t>(p)].source;
      if (std::find(g.begin(), g.begin() + static_cast<std::ptrdiff_t>(m), src) ==
          g.begin() + static_cast<std::ptrdiff_t>(m))
        g[m++] = src;
    }
  }
  faces_stale_ = false;
}

void VoronoiCell::finish() {
  if (finished_) return;
  if (faces_stale_) build_faces();
  finished_ = true;
  links_.clear();
  corners_.clear();
}

bool VoronoiCell::complete() const {
  if (verts_.empty()) return false;
  if (finished_) {
    for (const auto& f : faces_)
      if (f.source < 0) return false;
    return true;
  }
  for (const auto& c : corners_)
    for (const int p : c)
      if (p < kBoxPlanes) return false;
  return true;
}

void VoronoiCell::recompute_radius() {
  max_radius2_ = 0.0;
  for (const Vec3& v : verts_) max_radius2_ = std::max(max_radius2_, dist2(site_, v));
}

double VoronoiCell::max_vertex_separation2() const {
  // Every stored vertex is live; cells are small (tens of vertices), so the
  // quadratic pass is cheap.
  double best = 0.0;
  for (std::size_t i = 0; i < verts_.size(); ++i)
    for (std::size_t j = i + 1; j < verts_.size(); ++j)
      best = std::max(best, dist2(verts_[i], verts_[j]));
  return best;
}

double VoronoiCell::volume() const {
  double vol = 0.0;
  for (const auto& f : faces()) add_fan_volume(vol, verts_, f.verts.data(), f.verts.size());
  return vol;
}

double VoronoiCell::area() const {
  double a = 0.0;
  for (const auto& f : faces())
    a += 0.5 * norm(fan_normal(verts_, f.verts.data(), f.verts.size()));
  return a;
}

Vec3 VoronoiCell::centroid() const {
  // Volume-weighted centroid from the tetrahedra of the face fans and the
  // site as the common apex.
  Vec3 c{};
  double vol = 0.0;
  for (const auto& f : faces()) {
    const Vec3& p0 = verts_[static_cast<std::size_t>(f.verts[0])];
    for (std::size_t i = 1; i + 1 < f.verts.size(); ++i) {
      const Vec3& p1 = verts_[static_cast<std::size_t>(f.verts[i])];
      const Vec3& p2 = verts_[static_cast<std::size_t>(f.verts[i + 1])];
      const double v =
          dot(p0 - site_, cross(p1 - site_, p2 - site_)) / 6.0;
      vol += v;
      c += (site_ + p0 + p1 + p2) * (v / 4.0);
    }
  }
  return vol != 0.0 ? c / vol : site_;
}

std::vector<std::int64_t> VoronoiCell::neighbor_ids() const {
  std::vector<std::int64_t> ids;
  ids.reserve(faces().size());
  for (const auto& f : faces())
    if (f.source >= 0) ids.push_back(f.source);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void VoronoiCell::rotate_to_smallest(Face& f) const {
  // Vertices order by position, then by their sorted generators; equal
  // keys defer to the keys that follow them around the loop, so the start
  // is a function of the loop's contents alone.
  auto key_less = [&](int a, int b) {
    const Vec3& pa = verts_[static_cast<std::size_t>(a)];
    const Vec3& pb = verts_[static_cast<std::size_t>(b)];
    if (pa.x != pb.x || pa.y != pb.y || pa.z != pb.z) return vec3_lex_less(pa, pb);
    auto ga = gens_[static_cast<std::size_t>(a)];
    auto gb = gens_[static_cast<std::size_t>(b)];
    std::sort(ga.begin(), ga.end());
    std::sort(gb.begin(), gb.end());
    return ga < gb;
  };
  auto& loop = f.verts;
  const std::size_t m = loop.size();
  // One scan finds the smallest position; only a tie needs the full order.
  std::size_t best = 0;
  bool tie = false;
  for (std::size_t i = 1; i < m; ++i) {
    const Vec3& p = verts_[static_cast<std::size_t>(loop[i])];
    const Vec3& q = verts_[static_cast<std::size_t>(loop[best])];
    if (vec3_lex_less(p, q)) {
      best = i;
      tie = false;
    } else if (!vec3_lex_less(q, p)) {
      tie = true;
    }
  }
  if (tie)
    for (std::size_t i = 1; i < m; ++i)
      for (std::size_t k = 0; k < m; ++k) {
        const int a = loop[(i + k) % m];
        const int b = loop[(best + k) % m];
        if (key_less(a, b)) {
          best = i;
          break;
        }
        if (key_less(b, a)) break;
      }
  std::rotate(loop.begin(), loop.begin() + static_cast<std::ptrdiff_t>(best),
              loop.end());
}

void VoronoiCell::prune_degenerate_faces() {
  // A bisector that grazes the cell exactly along an edge/corner (possible
  // for lattice-like inputs) leaves a face of zero area; drop it.
  const double eps = TidyBounds(max_radius2_).tiny;
  std::erase_if(faces_, [&](const Face& f) {
    return 0.5 * norm(fan_normal(verts_, f.verts.data(), f.verts.size())) <= eps;
  });
}

void VoronoiCell::compact() {
  finish();
  // Every decision below reads the polytope alone — face order, loops up
  // to rotation, vertex positions and generators — never the clip's
  // internal vertex numbering or where it started a loop: each loop first
  // turns to a canonical start, and the weld visits the vertices in their
  // first-use order along the turned loops.
  for (auto& f : faces_) rotate_to_smallest(f);
  prune_degenerate_faces();
  TidyScratch& t = tls_tidy();

  // Weld coincident vertices (grazing cuts can create the same geometric
  // vertex on several edges) and drop collinear loop vertices, so exported
  // faces are minimal polygons. Two flat sweeps first ask whether either
  // can happen; a generic cell has nothing to clean and skips both.
  const TidyBounds bounds(max_radius2_);
  bool dirty = weld_sweep_flags(verts_, bounds);
  // With no weld the loops stay as they are, and the collinear pass drops
  // a vertex only where some corner's cross product passes far2.
  for (std::size_t fi = 0; fi < faces_.size() && !dirty; ++fi) {
    const auto& loop = faces_[fi].verts;
    const std::size_t m = loop.size();
    if (m <= 3) continue;
    for (std::size_t i = 0, prev = m - 1; i < m; prev = i++) {
      const std::size_t next = i + 1 == m ? 0 : i + 1;
      dirty |= corner_sweep_flags(verts_[static_cast<std::size_t>(loop[prev])],
                                  verts_[static_cast<std::size_t>(loop[i])],
                                  verts_[static_cast<std::size_t>(loop[next])], bounds);
    }
  }
  if (dirty) {
    // Cells are small, so the quadratic weld is cheap.
    t.canon.resize(verts_.size());
    for (std::size_t i = 0; i < verts_.size(); ++i) t.canon[i] = static_cast<int>(i);
    t.used.assign(verts_.size(), 0);
    t.used_list.clear();
    for (const auto& f : faces_)
      for (int v : f.verts)
        if (!t.used[static_cast<std::size_t>(v)]) {
          t.used[static_cast<std::size_t>(v)] = 1;
          t.used_list.push_back(v);
        }
    for (std::size_t a = 0; a < t.used_list.size(); ++a)
      for (std::size_t b = a + 1; b < t.used_list.size(); ++b) {
        const int i = t.used_list[a], j = t.used_list[b];
        if (t.canon[static_cast<std::size_t>(j)] != j) continue;
        // dist2's x term alone: the sum rounds no lower than it.
        const double dx = verts_[static_cast<std::size_t>(i)].x -
                          verts_[static_cast<std::size_t>(j)].x;
        if (dx * dx > bounds.weld_eps2) continue;
        if (dist2(verts_[static_cast<std::size_t>(i)],
                  verts_[static_cast<std::size_t>(j)]) <= bounds.weld_eps2)
          t.canon[static_cast<std::size_t>(j)] = t.canon[static_cast<std::size_t>(i)];
      }
    auto& loop = t.loop;
    for (auto& f : faces_) {
      for (auto& v : f.verts) v = t.canon[static_cast<std::size_t>(v)];
      // Drop consecutive duplicates.
      loop.clear();
      for (int v : f.verts)
        if (loop.empty() || loop.back() != v) loop.push_back(v);
      while (loop.size() > 1 && loop.front() == loop.back()) loop.pop_back();
      // Drop collinear interior vertices.
      bool changed = true;
      while (changed && loop.size() > 3) {
        changed = false;
        const std::size_t m = loop.size();
        for (std::size_t i = 0, prev = m - 1; i < m; prev = i++) {
          const std::size_t next = i + 1 == m ? 0 : i + 1;
          const Vec3& a = verts_[static_cast<std::size_t>(loop[prev])];
          const Vec3& b = verts_[static_cast<std::size_t>(loop[i])];
          const Vec3& c = verts_[static_cast<std::size_t>(loop[next])];
          // norm2 first: past far2 the sqrt cannot come back under eps.
          const double n2 = norm2(cross(b - a, c - b));
          if (n2 > bounds.far2) continue;
          if (0.5 * std::sqrt(n2) <= bounds.tiny) {
            loop.erase(loop.begin() + static_cast<std::ptrdiff_t>(i));
            changed = true;
            break;
          }
        }
      }
      f.verts.assign(loop.begin(), loop.end());
    }
    std::erase_if(faces_, [](const Face& f) { return f.verts.size() < 3; });
  }

  renumber_in_face_order();
}

void VoronoiCell::renumber_in_face_order() {
  // Copy the old arrays aside and refill verts_/gens_ in place, so both
  // keep their own storage (a swap would hand each role the other's).
  TidyScratch& t = tls_tidy();
  t.remap.assign(verts_.size(), -1);
  t.verts.assign(verts_.begin(), verts_.end());
  t.gens.assign(gens_.begin(), gens_.end());
  verts_.clear();
  gens_.clear();
  for (auto& f : faces_)
    for (auto& v : f.verts) {
      auto& slot = t.remap[static_cast<std::size_t>(v)];
      if (slot < 0) {
        slot = static_cast<int>(verts_.size());
        verts_.push_back(t.verts[static_cast<std::size_t>(v)]);
        gens_.push_back(t.gens[static_cast<std::size_t>(v)]);
      }
      v = slot;
    }
}


std::size_t VoronoiCell::canonicalize() {
  compact();
  if (faces_.empty()) return 0;

  // Incident faces per vertex, in face order.
  auto& incident = tls_tidy().incident;
  if (incident.size() < verts_.size()) incident.resize(verts_.size());
  for (std::size_t v = 0; v < verts_.size(); ++v) incident[v].clear();
  for (std::size_t fi = 0; fi < faces_.size(); ++fi)
    for (int v : faces_[fi].verts)
      incident[static_cast<std::size_t>(v)].push_back(static_cast<int>(fi));

  // Recompute each vertex purely from the POSITIONS of its generating
  // particles: the site plus each incident face's stored generator (the
  // raw neighbor coordinates recorded at cut time — not reconstructed from
  // the plane, whose subtraction rounds differently per sharing cell). The
  // generators are sorted lexicographically, the smallest becomes the
  // bisector base, and the vertex is solved from the BEST-conditioned
  // triple of base bisector planes (largest |det| relative to the normal
  // scale). A fixed conditioning threshold would send near-degenerate
  // vertices — common in clustered particle sets at scale — back to their
  // clipped coordinates, which depend on construction path; the best
  // triple is a pure function of the generator multiset, so every cell
  // incident to the vertex derives the identical doubles, independent of
  // clipping history, candidate order, and block decomposition. That
  // cross-cell bit-equality is what makes welded meshes (and the
  // canonical global merge) byte-stable. Scanning triples against the
  // single base gens[0] is complete: if every such triple is coplanar the
  // whole generator set is coplanar and no triple of bisectors determines
  // a point — only then (or for box-face vertices of incomplete cells)
  // the clipped coordinates are kept.
  //
  // A solve that moves the vertex far beyond rounding means even the best
  // triple is ill-conditioned (on a lattice jittered by 1e-9, its rel is
  // about 1e-9), so its answer is noise: the vertex keeps its clipped
  // coordinates and is counted.
  const double max_shift2 = kCanonMaxShift * kCanonMaxShift * max_radius2_;
  std::size_t kept_clipped = 0;
  util::SmallVector<Vec3, 12> gens;
  for (std::size_t v = 0; v < verts_.size(); ++v) {
    auto& inc = incident[v];
    bool on_box = false;
    for (int fi : inc)
      if (faces_[static_cast<std::size_t>(fi)].source < 0) on_box = true;
    if (on_box) continue;
    gens.clear();
    gens.push_back(site_);
    for (int fi : inc)
      gens.push_back(faces_[static_cast<std::size_t>(fi)].gen);
    if (inc.size() < 3) {
      // Degenerate sliver corner: the collinear cleanup dropped this vertex
      // from one face's loop (or removed the face outright), so its
      // incident faces alone under-determine it. Recover the missing
      // generator(s) from the vertex's generator sources (its three faces
      // before compact()) via the cell's plane list, which keeps every
      // bisector's raw generator position even after compact() drops the
      // face. A generator that is a box plane means the vertex is not
      // interior — keep its clipped coordinates.
      bool recovered = true;
      for (const std::int64_t src : gens_[v]) {
        if (src == kNoGenerator) continue;
        if (src < 0) {
          recovered = false;
          break;
        }
        bool already = false;
        for (int fi : inc)
          if (faces_[static_cast<std::size_t>(fi)].source == src)
            already = true;
        if (already) continue;
        const Vec3* extra = nullptr;
        for (const Plane& p : planes_)
          if (p.source == src) {
            extra = &p.gen;
            break;
          }
        if (extra == nullptr) {
          recovered = false;
          break;
        }
        gens.push_back(*extra);
      }
      if (!recovered) continue;
    }
    std::sort(gens.begin(), gens.end(), vec3_lex_less);
    const std::size_t m = gens.size();
    if (m < 4) continue;
    const Vec3& g0 = gens[0];
    auto bisector = [&](const Vec3& g) {
      const Vec3 n = g - g0;
      return std::pair<Vec3, double>{n, dot(n, (g + g0) * 0.5)};
    };
    double best_rel = 0.0;
    std::size_t bi = 0, bj = 0, bk = 0;
    for (std::size_t i = 1; i < m; ++i)
      for (std::size_t j = i + 1; j < m; ++j)
        for (std::size_t k = j + 1; k < m; ++k) {
          const Vec3 na = gens[i] - g0;
          const Vec3 nb = gens[j] - g0;
          const Vec3 nc = gens[k] - g0;
          const double det = dot(na, cross(nb, nc));
          const double scale = norm(na) * norm(nb) * norm(nc);
          const double rel = scale > 0.0 ? std::fabs(det) / scale : 0.0;
          if (rel > best_rel) {
            best_rel = rel;
            bi = i;
            bj = j;
            bk = k;
          }
        }
    if (best_rel <= 0.0) continue;  // exactly coplanar: keep clipped
    const auto [na, da] = bisector(gens[bi]);
    const auto [nb, db] = bisector(gens[bj]);
    const auto [nc, dc] = bisector(gens[bk]);
    const Vec3 bc = cross(nb, nc);
    const double det = dot(na, bc);
    if (det == 0.0) continue;
    const Vec3 solved =
        (bc * da + cross(nc, na) * db + cross(na, nb) * dc) / det;
    if (!std::isfinite(solved.x) || !std::isfinite(solved.y) ||
        !std::isfinite(solved.z))
      continue;
    if (dist2(solved, verts_[v]) > max_shift2) {
      ++kept_clipped;
      continue;
    }
    verts_[v] = solved;
  }

  // Canonical face order and loop phase: sort faces by plane key, rotate
  // each loop to start at its lexicographically smallest vertex (orientation
  // is preserved, so loops stay CCW from outside).
  std::sort(faces_.begin(), faces_.end(), plane_key_less);
  for (auto& f : faces_) {
    const std::size_t m = f.verts.size();
    std::size_t best = 0;
    for (std::size_t i = 1; i < m; ++i)
      if (vec3_lex_less(verts_[static_cast<std::size_t>(f.verts[i])],
                        verts_[static_cast<std::size_t>(f.verts[best])]))
        best = i;
    std::rotate(f.verts.begin(),
                f.verts.begin() + static_cast<std::ptrdiff_t>(best),
                f.verts.end());
  }

  // Renumber vertices by first use in the canonical face order.
  renumber_in_face_order();
  recompute_radius();
  return kept_clipped;
}

VoronoiCell::Measures VoronoiCell::append_compacted(const FaceArrays& out) {
  Measures m;
  if (!finished_) {
    if (append_from_edges(out, m)) return m;
    compact();
  }
  // A finished cell's vertices are already those its faces use, in
  // first-use order.
  out.vertices.insert(out.vertices.end(), verts_.begin(), verts_.end());
  for (const Face& f : faces_) {
    for (const int v : f.verts) out.face_verts.push_back(static_cast<std::uint32_t>(v));
    out.face_offsets.push_back(static_cast<std::uint32_t>(out.face_verts.size()));
    out.face_sources.push_back(f.source);
    add_fan_volume(m.volume, verts_, f.verts.data(), f.verts.size());
    m.area += 0.5 * norm(fan_normal(verts_, f.verts.data(), f.verts.size()));
  }
  return m;
}

bool VoronoiCell::append_from_edges(const FaceArrays& out, Measures& m) const {
  // compact() of a cell its sweeps pass only orders it: build_faces(), each
  // loop turned to its smallest vertex, zero-area faces pruned, vertices
  // renumbered by first use. This writes that result, and volume() and
  // area() of it, from the edge table in one walk, with no Face list.
  const TidyBounds bounds(max_radius2_);
  if (weld_sweep_flags(verts_, bounds)) return false;
  TidyScratch& t = tls_tidy();
  const std::size_t nv = verts_.size(), np = planes_.size();

  // Each plane's first corner (4v + slot) and its corner count.
  // build_faces() walks a plane's corners in that order, so the loop from a
  // plane's first corner is its first face. A plane with corners off that
  // loop (a face a degenerate cut split) is left to compact().
  t.first_corner.assign(np, -1);
  t.corner_count.assign(np, 0);
  int* first = t.first_corner.data();
  int* count = t.corner_count.data();
  for (std::size_t v = 0; v < nv; ++v)
    for (int i = 0; i < 3; ++i) {
      const auto p = static_cast<std::size_t>(corners_[v][static_cast<std::size_t>(i)]);
      if (first[p] < 0) first[p] = 4 * static_cast<int>(v) + i;
      ++count[p];
    }

  // Grow the output arrays once to what the cell could fill, write through
  // pointers, then trim them to what it filled: to nothing if compact()
  // must clean the cell after all.
  const std::size_t v0 = out.vertices.size(), c0 = out.face_verts.size();
  const std::size_t o0 = out.face_offsets.size(), f0 = out.face_sources.size();
  out.vertices.resize(v0 + nv);
  out.face_verts.resize(c0 + 3 * nv);
  out.face_offsets.resize(o0 + np);
  out.face_sources.resize(f0 + np);
  Vec3* const vert_out = out.vertices.data() + v0;
  std::uint32_t* const corner_out = out.face_verts.data() + c0;
  std::uint32_t* const offset_out = out.face_offsets.data() + o0;
  std::int64_t* const source_out = out.face_sources.data() + f0;
  std::size_t nverts = 0, ncorners = 0, nfaces = 0;
  t.remap.assign(nv, -1);
  int* const remap = t.remap.data();
  t.loop.resize(3 * nv);
  int* const loop = t.loop.data();
  Measures sum;
  bool clean = true;
  for (std::size_t p = 0; p < np; ++p) {
    const auto len = static_cast<std::size_t>(count[p]);
    if (len == 0) continue;
    // After a -> b comes b -> (b's neighbour before a); the slot before
    // slot s is s - 1, or 2 before slot 0.
    const int start = first[p];
    std::size_t k = 0;
    int corner = start;
    do {
      const int v = corner >> 2;
      loop[k++] = v;
      const int e = links_[static_cast<std::size_t>(v)][static_cast<std::size_t>(corner & 3)];
      corner = (e & 3) != 0 ? e - 1 : e + 2;
    } while (corner != start && k < len);
    if (corner != start || k != len) {
      clean = false;
      break;
    }
    // The weld sweep passed, so no two vertices share an x coordinate and
    // the smallest vertex needs no tie-break.
    std::size_t best = 0;
    for (std::size_t j = 1; j < len; ++j)
      if (vec3_lex_less(verts_[static_cast<std::size_t>(loop[j])],
                        verts_[static_cast<std::size_t>(loop[best])]))
        best = j;
    std::rotate(loop, loop + best, loop + len);
    const double face_area = 0.5 * norm(fan_normal(verts_, loop, len));
    if (face_area <= bounds.tiny) continue;
    for (std::size_t j = 0, prev = len - 1; len > 3 && j < len && clean; prev = j++)
      clean = !corner_sweep_flags(verts_[static_cast<std::size_t>(loop[prev])],
                                  verts_[static_cast<std::size_t>(loop[j])],
                                  verts_[static_cast<std::size_t>(loop[j + 1 == len ? 0 : j + 1])],
                                  bounds);
    if (!clean) break;
    for (std::size_t j = 0; j < len; ++j) {
      const auto v = static_cast<std::size_t>(loop[j]);
      if (remap[v] < 0) {
        remap[v] = static_cast<int>(nverts);
        vert_out[nverts++] = verts_[v];
      }
      corner_out[ncorners++] = static_cast<std::uint32_t>(remap[v]);
    }
    offset_out[nfaces] = static_cast<std::uint32_t>(c0 + ncorners);
    source_out[nfaces++] = planes_[p].source;
    add_fan_volume(sum.volume, verts_, loop, len);
    sum.area += face_area;
  }
  if (!clean) nverts = ncorners = nfaces = 0;
  out.vertices.resize(v0 + nverts);
  out.face_verts.resize(c0 + ncorners);
  out.face_offsets.resize(o0 + nfaces);
  out.face_sources.resize(f0 + nfaces);
  if (clean) m = sum;
  return clean;
}

}  // namespace tess::geom
