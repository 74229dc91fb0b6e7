#include "geom/voronoi_cell.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "geom/kernels.hpp"

namespace tess::geom {

namespace {

// Relative tolerance for classifying a vertex as on the kept side of a cut
// plane. On-plane vertices count as inside so tangent cuts are no-ops.
inline double plane_eps(const Plane& p, double vert_scale) {
  return 1e-12 * (std::fabs(p.d) + vert_scale + 1.0);
}

// Scratch for the legacy no-scratch cut()/clip() overloads. Thread-local so
// the convenience API stays safe under intra-rank threading and still
// reuses its buffers across calls.
ClipScratch& tls_scratch() {
  thread_local ClipScratch scratch;
  return scratch;
}

// Working storage of compact() and canonicalize(), one per thread. Each
// buffer keeps one role and its capacity from cell to cell, so a warm
// worker tidies cells without touching the heap.
struct TidyScratch {
  std::vector<int> canon;      ///< weld target of each vertex
  std::vector<char> used;      ///< vertex referenced by some face
  std::vector<int> used_list;  ///< referenced vertices in index order
  std::vector<int> loop;       ///< the face loop being cleaned
  std::vector<int> remap;      ///< old -> renumbered vertex index
  std::vector<Vec3> verts;     ///< pre-renumbering copy of the vertices
  std::vector<std::array<std::int64_t, 3>> gens;  ///< ... and generators
  /// Incident faces per vertex (only the first verts_.size() are in use).
  std::vector<util::SmallVector<int, 8>> incident;
};

TidyScratch& tls_tidy() {
  thread_local TidyScratch scratch;
  return scratch;
}

}  // namespace

VoronoiCell::VoronoiCell(const Vec3& site, const Vec3& box_min, const Vec3& box_max) {
  reset(site, box_min, box_max);
}

void VoronoiCell::reset(const Vec3& site, const Vec3& box_min, const Vec3& box_max) {
  site_ = site;
  verts_.clear();
  gens_.clear();
  cut_gens_.clear();
  // Corner i has bit0 -> x, bit1 -> y, bit2 -> z (0 = min side).
  verts_.reserve(8);
  for (int i = 0; i < 8; ++i) {
    verts_.push_back({(i & 1) ? box_max.x : box_min.x,
                      (i & 2) ? box_max.y : box_min.y,
                      (i & 4) ? box_max.z : box_min.z});
    gens_.push_back({(i & 1) ? std::int64_t{-2} : std::int64_t{-1},
                     (i & 2) ? std::int64_t{-4} : std::int64_t{-3},
                     (i & 4) ? std::int64_t{-6} : std::int64_t{-5}});
  }
  // Outward-oriented (CCW from outside) quad faces; sources -1..-6 identify
  // the box planes -X,+X,-Y,+Y,-Z,+Z.
  static constexpr struct {
    std::int64_t source;
    int v[4];
  } kBoxFaces[6] = {
      {-1, {0, 4, 6, 2}}, {-2, {1, 3, 7, 5}}, {-3, {0, 1, 5, 4}},
      {-4, {2, 6, 7, 3}}, {-5, {0, 2, 3, 1}}, {-6, {4, 5, 7, 6}},
  };
  faces_.clear();
  faces_.reserve(6);
  for (const auto& bf : kBoxFaces) {
    auto& f = faces_.emplace_back();
    f.source = bf.source;
    // Outward box plane n·x <= d for source -(2a+1) (-axis) / -(2a+2) (+axis).
    const int axis = static_cast<int>((-bf.source - 1) / 2);
    const bool max_side = (-bf.source - 1) % 2 != 0;
    f.plane_n = Vec3{};
    f.plane_n[static_cast<std::size_t>(axis)] = max_side ? 1.0 : -1.0;
    f.plane_d = max_side ? box_max[static_cast<std::size_t>(axis)]
                         : -box_min[static_cast<std::size_t>(axis)];
    f.verts.assign(bf.v, bf.v + 4);
  }
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
  if (faces_.empty()) return false;

  // Signed distances for every stored vertex, four lanes at a time through
  // the kernel TU, with the bits of the unfused scalar dot product for any
  // ISA (see geom/kernels.hpp). Every stored vertex is live (referenced by
  // a face), so one flat sweep of the distances decides a no-op cut — the
  // common case — before any face loop is walked.
  const std::size_t nv0 = verts_.size();
  double vert_scale = 0.0;
  s.dist.resize(nv0);
  kernels::plane_distances(verts_.data(), nv0, plane.n, plane.d, s.dist.data(),
                           &vert_scale);
  const double eps = plane_eps(plane, vert_scale);

  // Survivor numbering straight from the sweep: a kept vertex becomes its
  // prefix count among kept vertices, and the k-th new vertex becomes
  // live + k. Every kept vertex stays referenced (each face through it is
  // kept) and every new vertex is referenced by the face that made it, so
  // this is exactly the order-preserving slide of the referenced vertices.
  s.remap.resize(nv0);
  int live = 0;
  for (std::size_t i = 0; i < nv0; ++i) s.remap[i] = s.dist[i] > eps ? -1 : live++;
  if (live == static_cast<int>(nv0)) return false;
  if (live == 0) {
    clear();
    return true;
  }
  auto outside = [&](int v) { return s.remap[static_cast<std::size_t>(v)] < 0; };

  // Generator position for this plane: the raw neighbor coordinates when
  // known, else reconstructed (direct clip() callers). Logged per cut so
  // canonicalize() can still resolve a creation-plane source after
  // compact() drops the face itself.
  const Vec3 cap_gen = std::isnan(plane.gen.x) ? site_ + plane.n : plane.gen;
  if (plane.source >= 0) cut_gens_.emplace_back(plane.source, cap_gen);

  // New vertex on each cut edge, keyed by the undirected edge so the two
  // faces sharing the edge reuse one vertex (exact connectivity, no
  // position-tolerance welding). The k-th new vertex is stored at nv0 + k
  // until the final slide; s.cap_next is indexed by k.
  auto ukey = [](int u, int v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
           static_cast<std::uint32_t>(v);
  };
  s.cut_vertex.clear();
  s.cap_next.clear();
  auto intersect = [&](int u, int v) -> int {
    const auto key = ukey(u, v);
    for (const auto& [edge, k] : s.cut_vertex)
      if (edge == key) return k;
    const double du = s.dist[static_cast<std::size_t>(u)];
    const double dv = s.dist[static_cast<std::size_t>(v)];
    const double t = du / (du - dv);
    const Vec3 p = verts_[static_cast<std::size_t>(u)] +
                   (verts_[static_cast<std::size_t>(v)] -
                    verts_[static_cast<std::size_t>(u)]) * t;
    const int k = static_cast<int>(s.cap_next.size());
    verts_.push_back(p);
    gens_.push_back({plane.source, kNoGenerator, kNoGenerator});
    s.cut_vertex.emplace_back(key, k);
    s.cap_next.push_back(-1);
    return k;
  };

  // Edit the faces in place, keeping their order. A face with no clipped
  // vertex is only renumbered and one with every vertex clipped is erased.
  // A crossing face is clipped (Sutherland-Hodgman) and keeps at least
  // three corners: a kept vertex plus the two crossings. Its new edge runs
  // exit -> entry; the cap face needs it reversed (entry -> exit) to stay
  // outward-oriented.
  int cap_edges = 0;
  std::size_t n_faces = 0;
  for (std::size_t fi = 0; fi < faces_.size(); ++fi) {
    Face& f = faces_[fi];
    const std::size_t m = f.verts.size();
    std::size_t f_out = 0;
    for (const int v : f.verts) f_out += outside(v) ? 1 : 0;
    if (f_out == m) continue;
    if (f_out == 0) {
      for (int& v : f.verts) v = s.remap[static_cast<std::size_t>(v)];
    } else {
      s.loop.clear();
      // A convex loop crosses the plane at most twice: once leaving the
      // kept side (exit) and once returning (entry) — in either walk order.
      int exit_k = -1, entry_k = -1;
      for (std::size_t i = 0; i < m; ++i) {
        const int u = f.verts[i];
        const int v = f.verts[(i + 1) % m];
        const bool u_out = outside(u), v_out = outside(v);
        if (!u_out) s.loop.push_back(s.remap[static_cast<std::size_t>(u)]);
        if (u_out != v_out) {
          const int k = intersect(u, v);
          s.loop.push_back(live + k);
          add_generator(static_cast<int>(nv0) + k, f.source);
          if (!u_out) {
            exit_k = k;  // in -> out crossing
          } else {
            entry_k = k;  // out -> in crossing
          }
        }
      }
      if (exit_k >= 0 && entry_k >= 0 && exit_k != entry_k) {
        // Overwrite like the map it replaces: count distinct entry vertices.
        int& slot = s.cap_next[static_cast<std::size_t>(entry_k)];
        if (slot < 0) ++cap_edges;
        slot = exit_k;
      }
      f.verts.assign(s.loop.begin(), s.loop.end());
    }
    if (n_faces != fi) faces_[n_faces] = std::move(f);
    ++n_faces;
  }
  faces_.erase(faces_.begin() + static_cast<std::ptrdiff_t>(n_faces),
               faces_.end());

  // Build the cap face on the cutting plane by chaining the directed edges,
  // starting from the first-created cap vertex with an outgoing edge (a
  // deterministic choice: creation order is the face iteration order).
  if (cap_edges >= 3) {
    s.cap_verts.clear();
    int start = -1;
    for (std::size_t k = 0; k < s.cap_next.size(); ++k)
      if (s.cap_next[k] >= 0) {
        start = static_cast<int>(k);
        break;
      }
    int cur = start;
    for (int guard = 0; guard <= cap_edges; ++guard) {
      s.cap_verts.push_back(cur);
      const int nxt = s.cap_next[static_cast<std::size_t>(cur)];
      if (nxt < 0) break;
      cur = nxt;
      if (cur == start) break;
    }
    if (!(static_cast<int>(s.cap_verts.size()) == cap_edges && cur == start)) {
      // Chain failed (degenerate classification); fall back to an angular
      // sort of the cap vertices around the plane normal.
      auto pos = [&](int k) -> const Vec3& {
        return verts_[nv0 + static_cast<std::size_t>(k)];
      };
      s.cap_verts.clear();
      for (std::size_t k = 0; k < s.cap_next.size(); ++k)
        if (s.cap_next[k] >= 0) s.cap_verts.push_back(static_cast<int>(k));
      for (const int k : s.cap_next)
        if (k >= 0 &&
            std::find(s.cap_verts.begin(), s.cap_verts.end(), k) ==
                s.cap_verts.end())
          s.cap_verts.push_back(k);
      if (s.cap_verts.size() >= 3) {
        Vec3 c{};
        for (const int k : s.cap_verts) c += pos(k);
        c = c / static_cast<double>(s.cap_verts.size());
        const Vec3 nz = normalized(plane.n);
        Vec3 ux = cross(nz, Vec3{1, 0, 0});
        if (norm2(ux) < 1e-12) ux = cross(nz, Vec3{0, 1, 0});
        ux = normalized(ux);
        const Vec3 uy = cross(nz, ux);
        std::sort(s.cap_verts.begin(), s.cap_verts.end(), [&](int a, int b) {
          const Vec3 pa = pos(a) - c;
          const Vec3 pb = pos(b) - c;
          return std::atan2(dot(pa, uy), dot(pa, ux)) <
                 std::atan2(dot(pb, uy), dot(pb, ux));
        });
        // Orient the loop so its normal points along +n (outward).
        Vec3 nrm{};
        for (std::size_t i = 1; i + 1 < s.cap_verts.size(); ++i)
          nrm += cross(pos(s.cap_verts[i]) - pos(s.cap_verts[0]),
                       pos(s.cap_verts[i + 1]) - pos(s.cap_verts[0]));
        if (dot(nrm, plane.n) < 0.0)
          std::reverse(s.cap_verts.begin(), s.cap_verts.end());
      } else {
        s.cap_verts.clear();
      }
    }
    if (!s.cap_verts.empty()) {
      auto& cap = faces_.emplace_back();
      cap.source = plane.source;
      cap.plane_n = plane.n;
      cap.plane_d = plane.d;
      cap.gen = cap_gen;
      for (const int k : s.cap_verts) cap.verts.push_back(live + k);
    }
  }

  if (faces_.size() < 4) {  // a valid polyhedron needs >= 4 faces
    clear();
    return true;
  }

  // Slide the survivors into their numbers — kept vertices in index order,
  // then the new ones — with generators in step, refreshing the radius on
  // the way.
  max_radius2_ = 0.0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    if (i < nv0 && s.remap[i] < 0) continue;
    verts_[out] = verts_[i];
    gens_[out] = gens_[i];
    max_radius2_ = std::max(max_radius2_, dist2(site_, verts_[out]));
    ++out;
  }
  verts_.resize(out);
  gens_.resize(out);
  return true;
}

void VoronoiCell::clear() {
  faces_.clear();
  verts_.clear();
  gens_.clear();
  max_radius2_ = 0.0;
}

void VoronoiCell::add_generator(int vertex, std::int64_t source) {
  auto& g = gens_[static_cast<std::size_t>(vertex)];
  for (auto s : g)
    if (s == source) return;
  for (auto& s : g)
    if (s == kNoGenerator) {
      s = source;
      return;
    }
  // More than three generating planes meet here (degenerate vertex); the
  // first three are kept, which is adequate for Delaunay extraction since
  // degenerate tets are deduplicated downstream.
}

bool VoronoiCell::complete() const {
  if (faces_.empty()) return false;
  for (const auto& f : faces_)
    if (f.source < 0) return false;
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
  // Signed volume of the closed outward-oriented surface via the divergence
  // theorem, fanning each face from its first vertex.
  double vol = 0.0;
  for (const auto& f : faces_) {
    const Vec3& p0 = verts_[static_cast<std::size_t>(f.verts[0])];
    for (std::size_t i = 1; i + 1 < f.verts.size(); ++i) {
      const Vec3& p1 = verts_[static_cast<std::size_t>(f.verts[i])];
      const Vec3& p2 = verts_[static_cast<std::size_t>(f.verts[i + 1])];
      vol += dot(p0, cross(p1, p2)) / 6.0;
    }
  }
  return vol;
}

double VoronoiCell::area() const {
  double a = 0.0;
  for (const auto& f : faces_) {
    const Vec3& p0 = verts_[static_cast<std::size_t>(f.verts[0])];
    Vec3 n{};
    for (std::size_t i = 1; i + 1 < f.verts.size(); ++i) {
      const Vec3& p1 = verts_[static_cast<std::size_t>(f.verts[i])];
      const Vec3& p2 = verts_[static_cast<std::size_t>(f.verts[i + 1])];
      n += cross(p1 - p0, p2 - p0);
    }
    a += 0.5 * norm(n);
  }
  return a;
}

Vec3 VoronoiCell::centroid() const {
  // Volume-weighted centroid from the tetrahedra of the face fans and the
  // site as the common apex.
  Vec3 c{};
  double vol = 0.0;
  for (const auto& f : faces_) {
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
  ids.reserve(faces_.size());
  for (const auto& f : faces_)
    if (f.source >= 0) ids.push_back(f.source);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void VoronoiCell::prune_degenerate_faces() {
  // A bisector that grazes the cell exactly along an edge/corner (possible
  // for lattice-like inputs) leaves a face of zero area; drop it. The
  // threshold is relative to the squared cell radius, the natural area
  // scale of the polyhedron.
  const double eps = 1e-12 * std::max(max_radius2_, 1e-300);
  std::erase_if(faces_, [&](const Face& f) {
    const Vec3& p0 = verts_[static_cast<std::size_t>(f.verts[0])];
    Vec3 n{};
    for (std::size_t i = 1; i + 1 < f.verts.size(); ++i) {
      const Vec3& p1 = verts_[static_cast<std::size_t>(f.verts[i])];
      const Vec3& p2 = verts_[static_cast<std::size_t>(f.verts[i + 1])];
      n += cross(p1 - p0, p2 - p0);
    }
    return 0.5 * norm(n) <= eps;
  });
}

void VoronoiCell::compact() {
  prune_degenerate_faces();
  TidyScratch& t = tls_tidy();

  // Weld coincident vertices (grazing cuts can create the same geometric
  // vertex on several edges) and drop collinear loop vertices, so exported
  // faces are minimal polygons. Cells are small, so the quadratic weld is
  // cheap.
  const double weld_eps2 = 1e-18 * std::max(max_radius2_, 1e-300);
  {
    t.canon.resize(verts_.size());
    for (std::size_t i = 0; i < verts_.size(); ++i) t.canon[i] = static_cast<int>(i);
    t.used.assign(verts_.size(), 0);
    for (const auto& f : faces_)
      for (int v : f.verts) t.used[static_cast<std::size_t>(v)] = 1;
    t.used_list.clear();
    for (std::size_t i = 0; i < verts_.size(); ++i)
      if (t.used[i]) t.used_list.push_back(static_cast<int>(i));
    for (std::size_t a = 0; a < t.used_list.size(); ++a)
      for (std::size_t b = a + 1; b < t.used_list.size(); ++b) {
        const int i = t.used_list[a], j = t.used_list[b];
        if (t.canon[static_cast<std::size_t>(j)] != j) continue;
        if (dist2(verts_[static_cast<std::size_t>(i)],
                  verts_[static_cast<std::size_t>(j)]) <= weld_eps2)
          t.canon[static_cast<std::size_t>(j)] = t.canon[static_cast<std::size_t>(i)];
      }
    const double collinear_eps = 1e-12 * std::max(max_radius2_, 1e-300);
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
        for (std::size_t i = 0; i < loop.size(); ++i) {
          const Vec3& a = verts_[static_cast<std::size_t>(loop[(i + loop.size() - 1) % loop.size()])];
          const Vec3& b = verts_[static_cast<std::size_t>(loop[i])];
          const Vec3& c = verts_[static_cast<std::size_t>(loop[(i + 1) % loop.size()])];
          if (0.5 * norm(cross(b - a, c - b)) <= collinear_eps) {
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

namespace {

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

}  // namespace

void VoronoiCell::canonicalize() {
  compact();
  if (faces_.empty()) return;

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
      // generator(s) from the vertex's recorded creation-plane sources via
      // the per-cell cut log, which keeps every bisector's raw generator
      // position even after compact() drops the face. A creation plane
      // that is a box plane means the vertex is not interior — keep its
      // clipped coordinates.
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
        for (const auto& [s, g] : cut_gens_)
          if (s == src) {
            extra = &g;
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
    if (std::isfinite(solved.x) && std::isfinite(solved.y) &&
        std::isfinite(solved.z))
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
}

}  // namespace tess::geom
