#include "geom/convex_hull.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "geom/predicates.hpp"

namespace tess::geom {

namespace {

struct Face {
  std::array<int, 3> v{};    // vertex indices, outward orientation
  std::array<int, 3> adj{};  // adj[i] is the face across edge (v[i], v[i+1])
  std::vector<int> outside;  // conflict list: points visible from this face
  int furthest = -1;
  double furthest_d = 0.0;
  bool alive = true;
};

// A point sees a face iff it is strictly on the outward-normal side.
inline bool visible(const std::vector<Vec3>& pts, const Face& f, int p) {
  return orient3d(pts[static_cast<std::size_t>(f.v[0])],
                  pts[static_cast<std::size_t>(f.v[1])],
                  pts[static_cast<std::size_t>(f.v[2])],
                  pts[static_cast<std::size_t>(p)]) < 0;
}

// Magnitude proportional to the distance from p to the face plane; used only
// to pick the furthest conflict point, never for sign decisions.
inline double above_measure(const std::vector<Vec3>& pts, const Face& f, int p) {
  return -orient3d_fast(pts[static_cast<std::size_t>(f.v[0])],
                        pts[static_cast<std::size_t>(f.v[1])],
                        pts[static_cast<std::size_t>(f.v[2])],
                        pts[static_cast<std::size_t>(p)]);
}

// SoA scratch for the batched conflict-list assignment.
struct ConflictScratch {
  std::vector<double> qx, qy, qz;
  std::vector<int> sign;
  std::vector<int> next;
};

// Assign each candidate point to the first face in `face_ids` (in order)
// that sees it, appending to that face's conflict list and maintaining its
// furthest point. Face-major with stable filtering, which is exactly
// equivalent to the point-major first-visible-face-wins loop it replaces:
// per point the assigned face is still the first visible one in face order,
// and per face the list keeps ascending candidate order. Candidates seen by
// no face are interior and dropped. `cands` is consumed.
void assign_conflicts(const std::vector<Vec3>& pts, std::vector<Face>& faces,
                      const std::vector<int>& face_ids, std::vector<int>& cands,
                      ConflictScratch& s) {
  for (int fi : face_ids) {
    if (cands.empty()) break;
    Face& f = faces[static_cast<std::size_t>(fi)];
    const std::size_t n = cands.size();
    s.qx.resize(n);
    s.qy.resize(n);
    s.qz.resize(n);
    s.sign.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3& p = pts[static_cast<std::size_t>(cands[i])];
      s.qx[i] = p.x;
      s.qy[i] = p.y;
      s.qz[i] = p.z;
    }
    orient3d_batch(pts[static_cast<std::size_t>(f.v[0])],
                   pts[static_cast<std::size_t>(f.v[1])],
                   pts[static_cast<std::size_t>(f.v[2])], s.qx.data(),
                   s.qy.data(), s.qz.data(), n, s.sign.data());
    s.next.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const int p = cands[i];
      if (s.sign[i] < 0) {
        f.outside.push_back(p);
        const double d = above_measure(pts, f, p);
        if (f.furthest < 0 || d > f.furthest_d) {
          f.furthest_d = d;
          f.furthest = p;
        }
      } else {
        s.next.push_back(p);
      }
    }
    cands.swap(s.next);
  }
  cands.clear();
}

using EdgeKey = std::uint64_t;
inline EdgeKey edge_key(int u, int v) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

// Choose four affinely independent seed points; returns false if the input
// rank is < 3.
bool initial_simplex(const std::vector<Vec3>& pts, std::array<int, 4>& out) {
  const int n = static_cast<int>(pts.size());
  if (n < 4) return false;

  // Most distant pair among the 6 axis-extreme points.
  std::array<int, 6> extreme{};
  for (int axis = 0; axis < 3; ++axis) {
    int lo = 0, hi = 0;
    for (int i = 1; i < n; ++i) {
      const auto ip = static_cast<std::size_t>(i);
      if (pts[ip][static_cast<std::size_t>(axis)] <
          pts[static_cast<std::size_t>(lo)][static_cast<std::size_t>(axis)])
        lo = i;
      if (pts[ip][static_cast<std::size_t>(axis)] >
          pts[static_cast<std::size_t>(hi)][static_cast<std::size_t>(axis)])
        hi = i;
    }
    extreme[static_cast<std::size_t>(2 * axis)] = lo;
    extreme[static_cast<std::size_t>(2 * axis + 1)] = hi;
  }
  int p0 = extreme[0], p1 = extreme[1];
  double best = -1.0;
  for (int i : extreme)
    for (int j : extreme) {
      const double d = dist2(pts[static_cast<std::size_t>(i)],
                             pts[static_cast<std::size_t>(j)]);
      if (d > best) {
        best = d;
        p0 = i;
        p1 = j;
      }
    }
  if (best <= 0.0) return false;

  // Furthest point from the line (p0, p1).
  const Vec3 dir = pts[static_cast<std::size_t>(p1)] - pts[static_cast<std::size_t>(p0)];
  int p2 = -1;
  best = 0.0;
  for (int i = 0; i < n; ++i) {
    const Vec3 w = pts[static_cast<std::size_t>(i)] - pts[static_cast<std::size_t>(p0)];
    const double d = norm2(cross(dir, w));
    if (d > best) {
      best = d;
      p2 = i;
    }
  }
  if (p2 < 0) return false;

  // Furthest point from the plane (p0, p1, p2) — robust sign via orient3d.
  int p3 = -1;
  best = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = std::fabs(orient3d_fast(pts[static_cast<std::size_t>(p0)],
                                             pts[static_cast<std::size_t>(p1)],
                                             pts[static_cast<std::size_t>(p2)],
                                             pts[static_cast<std::size_t>(i)]));
    if (d > best) {
      best = d;
      p3 = i;
    }
  }
  if (p3 < 0 || orient3d(pts[static_cast<std::size_t>(p0)],
                         pts[static_cast<std::size_t>(p1)],
                         pts[static_cast<std::size_t>(p2)],
                         pts[static_cast<std::size_t>(p3)]) == 0)
    return false;

  out = {p0, p1, p2, p3};
  return true;
}

}  // namespace

HullResult convex_hull(const std::vector<Vec3>& pts) {
  HullResult result;
  std::array<int, 4> seed{};
  if (!initial_simplex(pts, seed)) {
    result.degenerate = true;
    return result;
  }
  ConflictScratch conflict_scratch;

  std::vector<Face> faces;
  faces.reserve(64);

  // Build the 4 seed faces, each oriented so the opposite vertex is inside
  // (orient3d(a, b, c, opposite) > 0).
  static constexpr int kTriples[4][4] = {
      {0, 1, 2, 3}, {0, 1, 3, 2}, {0, 2, 3, 1}, {1, 2, 3, 0}};
  for (const auto& t : kTriples) {
    Face f;
    f.v = {seed[static_cast<std::size_t>(t[0])], seed[static_cast<std::size_t>(t[1])],
           seed[static_cast<std::size_t>(t[2])]};
    const int opp = seed[static_cast<std::size_t>(t[3])];
    if (orient3d(pts[static_cast<std::size_t>(f.v[0])],
                 pts[static_cast<std::size_t>(f.v[1])],
                 pts[static_cast<std::size_t>(f.v[2])],
                 pts[static_cast<std::size_t>(opp)]) < 0)
      std::swap(f.v[1], f.v[2]);
    faces.push_back(std::move(f));
  }

  // Seed adjacency via the directed-edge map (neighbor holds the edge
  // reversed).
  {
    std::unordered_map<EdgeKey, std::pair<int, int>> edges;  // edge -> (face, slot)
    for (int fi = 0; fi < 4; ++fi)
      for (int s = 0; s < 3; ++s)
        edges[edge_key(faces[static_cast<std::size_t>(fi)].v[static_cast<std::size_t>(s)],
                       faces[static_cast<std::size_t>(fi)].v[static_cast<std::size_t>((s + 1) % 3)])] = {fi, s};
    for (int fi = 0; fi < 4; ++fi)
      for (int s = 0; s < 3; ++s) {
        auto& f = faces[static_cast<std::size_t>(fi)];
        f.adj[static_cast<std::size_t>(s)] =
            edges.at(edge_key(f.v[static_cast<std::size_t>((s + 1) % 3)],
                              f.v[static_cast<std::size_t>(s)])).first;
      }
  }

  // Initial conflict lists, assigned via the batched visibility filter.
  {
    std::vector<int> cands;
    cands.reserve(pts.size());
    for (int p = 0; p < static_cast<int>(pts.size()); ++p)
      if (p != seed[0] && p != seed[1] && p != seed[2] && p != seed[3])
        cands.push_back(p);
    assign_conflicts(pts, faces, {0, 1, 2, 3}, cands, conflict_scratch);
  }

  std::vector<int> pending;
  for (int fi = 0; fi < 4; ++fi)
    if (!faces[static_cast<std::size_t>(fi)].outside.empty()) pending.push_back(fi);

  std::vector<int> visible_faces, horizon_face, horizon_slot;
  std::vector<char> mark(faces.size(), 0);

  while (!pending.empty()) {
    const int fi = pending.back();
    pending.pop_back();
    Face& f0 = faces[static_cast<std::size_t>(fi)];
    if (!f0.alive || f0.outside.empty()) continue;
    const int apex = f0.furthest;

    // BFS over faces visible from apex.
    visible_faces.clear();
    horizon_face.clear();
    horizon_slot.clear();
    mark.assign(faces.size(), 0);
    visible_faces.push_back(fi);
    mark[static_cast<std::size_t>(fi)] = 1;
    for (std::size_t head = 0; head < visible_faces.size(); ++head) {
      const int cur = visible_faces[head];
      for (int s = 0; s < 3; ++s) {
        const int nb = faces[static_cast<std::size_t>(cur)].adj[static_cast<std::size_t>(s)];
        if (mark[static_cast<std::size_t>(nb)]) continue;
        if (visible(pts, faces[static_cast<std::size_t>(nb)], apex)) {
          mark[static_cast<std::size_t>(nb)] = 1;
          visible_faces.push_back(nb);
        } else {
          // Edge (cur, slot s) is on the horizon.
          horizon_face.push_back(cur);
          horizon_slot.push_back(s);
        }
      }
    }

    // Collect orphaned conflict points and retire visible faces.
    std::vector<int> orphans;
    for (int vf : visible_faces) {
      Face& f = faces[static_cast<std::size_t>(vf)];
      for (int p : f.outside)
        if (p != apex) orphans.push_back(p);
      f.outside.clear();
      f.alive = false;
    }

    // Create one new face per horizon edge: (u, v, apex) keeps the shared
    // edge direction of the dead face, so the outside neighbor still sees
    // the reversed edge.
    std::unordered_map<EdgeKey, std::pair<int, int>> new_edges;
    std::vector<int> new_faces;
    for (std::size_t h = 0; h < horizon_face.size(); ++h) {
      const Face& dead = faces[static_cast<std::size_t>(horizon_face[h])];
      const int s = horizon_slot[h];
      const int u = dead.v[static_cast<std::size_t>(s)];
      const int v = dead.v[static_cast<std::size_t>((s + 1) % 3)];
      const int outside_nb = dead.adj[static_cast<std::size_t>(s)];

      Face nf;
      nf.v = {u, v, apex};
      nf.adj = {outside_nb, -1, -1};
      const int nfi = static_cast<int>(faces.size());
      faces.push_back(std::move(nf));
      mark.push_back(0);
      new_faces.push_back(nfi);

      // Repair the outside neighbor's adjacency (it pointed at the dead face
      // across edge (v, u)).
      Face& nb = faces[static_cast<std::size_t>(outside_nb)];
      for (int t = 0; t < 3; ++t)
        if (nb.v[static_cast<std::size_t>(t)] == v &&
            nb.v[static_cast<std::size_t>((t + 1) % 3)] == u)
          nb.adj[static_cast<std::size_t>(t)] = nfi;

      new_edges[edge_key(v, apex)] = {nfi, 1};
      new_edges[edge_key(apex, u)] = {nfi, 2};
    }

    // Stitch new faces to each other around the apex.
    for (int nfi : new_faces) {
      Face& nf = faces[static_cast<std::size_t>(nfi)];
      for (int s = 1; s < 3; ++s) {
        const int u = nf.v[static_cast<std::size_t>(s)];
        const int v = nf.v[static_cast<std::size_t>((s + 1) % 3)];
        nf.adj[static_cast<std::size_t>(s)] = new_edges.at(edge_key(v, u)).first;
      }
    }

    // Redistribute orphans to the new faces (batched, first-visible wins).
    assign_conflicts(pts, faces, new_faces, orphans, conflict_scratch);
    for (int nfi : new_faces)
      if (!faces[static_cast<std::size_t>(nfi)].outside.empty())
        pending.push_back(nfi);
  }

  // Assemble the result from live faces.
  std::vector<char> on_hull(pts.size(), 0);
  for (const auto& f : faces) {
    if (!f.alive) continue;
    result.faces.push_back(f.v);
    for (int v : f.v) on_hull[static_cast<std::size_t>(v)] = 1;
    const Vec3& a = pts[static_cast<std::size_t>(f.v[0])];
    const Vec3& b = pts[static_cast<std::size_t>(f.v[1])];
    const Vec3& c = pts[static_cast<std::size_t>(f.v[2])];
    result.volume += dot(a, cross(b, c)) / 6.0;
    result.area += 0.5 * norm(cross(b - a, c - a));
  }
  for (int i = 0; i < static_cast<int>(pts.size()); ++i)
    if (on_hull[static_cast<std::size_t>(i)]) result.vertices.push_back(i);
  return result;
}

}  // namespace tess::geom
