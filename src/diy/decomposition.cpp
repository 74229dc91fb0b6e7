#include "diy/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tess::diy {

double Bounds::distance(const Vec3& p) const {
  double d2 = 0.0;
  for (std::size_t a = 0; a < 3; ++a) {
    double d = 0.0;
    if (p[a] < min[a]) d = min[a] - p[a];
    if (p[a] > max[a]) d = p[a] - max[a];
    d2 += d * d;
  }
  return std::sqrt(d2);
}

double Bounds::box_distance(const Bounds& o) const {
  double d2 = 0.0;
  for (std::size_t a = 0; a < 3; ++a) {
    double d = 0.0;
    if (o.min[a] > max[a]) d = o.min[a] - max[a];
    else if (min[a] > o.max[a]) d = min[a] - o.max[a];
    d2 += d * d;
  }
  return std::sqrt(d2);
}

namespace {

void check_domain(const Vec3& lo, const Vec3& hi) {
  for (std::size_t a = 0; a < 3; ++a)
    if (!(hi[a] > lo[a]))
      throw std::invalid_argument("Decomposition: empty domain");
}

Vec3 wrap_into(const Vec3& p, const Vec3& lo, const Vec3& hi) {
  Vec3 q = p;
  const Vec3 size = hi - lo;
  for (std::size_t a = 0; a < 3; ++a) {
    while (q[a] < lo[a]) q[a] += size[a];
    while (q[a] >= hi[a]) q[a] -= size[a];
  }
  return q;
}

// Halve the grid cells [lo, hi) along the axis with the most of them until
// one cell is left; that leaf is the cell's block id, x fastest. The plane
// before cell c of axis a is origin[a] + width[a] * c.
int split_grid(std::vector<KdSplit>& splits, const std::array<int, 3>& dims,
               const Vec3& origin, const Vec3& width,
               const std::array<int, 3>& lo, const std::array<int, 3>& hi) {
  int axis = 0;
  for (int a = 1; a < 3; ++a)
    if (hi[a] - lo[a] > hi[axis] - lo[axis]) axis = a;
  if (hi[axis] - lo[axis] == 1)
    return ~((lo[2] * dims[1] + lo[1]) * dims[0] + lo[0]);
  const int mid = (lo[axis] + hi[axis]) / 2;
  const int node = static_cast<int>(splits.size());
  splits.push_back({axis, origin[axis] + width[axis] * mid, 0, 0});
  auto left_hi = hi, right_lo = lo;
  left_hi[axis] = mid;
  right_lo[axis] = mid;
  const int l = split_grid(splits, dims, origin, width, lo, left_hi);
  const int r = split_grid(splits, dims, origin, width, right_lo, hi);
  splits[node].left = l;
  splits[node].right = r;
  return node;
}

std::vector<KdSplit> grid_splits(const Vec3& domain_min, const Vec3& domain_max,
                                 const std::array<int, 3>& dims) {
  for (int d : dims)
    if (d < 1) throw std::invalid_argument("Decomposition: dims must be >= 1");
  Vec3 width = domain_max - domain_min;
  for (std::size_t a = 0; a < 3; ++a) width[a] /= dims[a];
  std::vector<KdSplit> splits;
  split_grid(splits, dims, domain_min, width, {0, 0, 0}, dims);
  return splits;
}

}  // namespace

Decomposition::Decomposition(const Vec3& domain_min, const Vec3& domain_max,
                             const std::array<int, 3>& blocks_per_dim,
                             bool periodic)
    : Decomposition(domain_min, domain_max, periodic,
                    blocks_per_dim[0] * blocks_per_dim[1] * blocks_per_dim[2],
                    grid_splits(domain_min, domain_max, blocks_per_dim)) {}

Decomposition::Decomposition(const Vec3& domain_min, const Vec3& domain_max,
                             bool periodic, int nblocks,
                             std::vector<KdSplit> splits)
    : domain_min_(domain_min), domain_max_(domain_max), periodic_(periodic),
      nblocks_(nblocks), splits_(std::move(splits)) {
  check_domain(domain_min_, domain_max_);
  if (nblocks_ < 1)
    throw std::invalid_argument("Decomposition: nblocks must be >= 1");
  if (splits_.size() + 1 != static_cast<std::size_t>(nblocks_))
    throw std::invalid_argument("Decomposition: split count must be nblocks-1");
  build_bounds();
}

void Decomposition::build_bounds() {
  bounds_.assign(nblocks_, Bounds{});
  std::vector<char> seen(nblocks_, 0);
  struct Item {
    int child;  // >= 0: split node index, < 0: leaf block ~child
    Bounds box;
  };
  std::vector<Item> stack;
  stack.push_back({splits_.empty() ? ~0 : 0, Bounds{domain_min_, domain_max_}});
  int leaves = 0;
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    if (it.child < 0) {
      const int b = ~it.child;
      if (b < 0 || b >= nblocks_ || seen[b])
        throw std::invalid_argument("Decomposition: bad k-d leaf block id");
      seen[b] = 1;
      bounds_[b] = it.box;
      ++leaves;
      continue;
    }
    if (static_cast<std::size_t>(it.child) >= splits_.size())
      throw std::invalid_argument("Decomposition: k-d node index out of range");
    const KdSplit& s = splits_[it.child];
    if (s.axis < 0 || s.axis > 2 ||
        !(s.coord > it.box.min[s.axis] && s.coord < it.box.max[s.axis]))
      throw std::invalid_argument("Decomposition: k-d split outside its box");
    Bounds lbox = it.box, rbox = it.box;
    lbox.max[s.axis] = s.coord;
    rbox.min[s.axis] = s.coord;
    stack.push_back({s.left, lbox});
    stack.push_back({s.right, rbox});
    if (stack.size() > splits_.size() + 1)
      throw std::invalid_argument("Decomposition: malformed k-d tree");
  }
  if (leaves != nblocks_)
    throw std::invalid_argument("Decomposition: k-d tree leaf count mismatch");
}

namespace {

struct KdSample {
  Vec3 p;
  double w;
};

// Weighted split coordinate: the position along `axis` where the prefix
// weight of the (sorted) sample best matches `frac` of the total. Ties are
// grouped at distinct-coordinate granularity so the result is independent
// of input order; the cut lands midway between two adjacent distinct
// coordinates so no sample sits exactly on the plane.
double choose_split(std::vector<KdSample>::iterator lo,
                    std::vector<KdSample>::iterator hi, int axis,
                    const Bounds& box, double frac) {
  const double geometric =
      box.min[axis] + frac * (box.max[axis] - box.min[axis]);
  if (lo == hi) return geometric;
  std::sort(lo, hi, [axis](const KdSample& a, const KdSample& b) {
    return a.p[axis] < b.p[axis];
  });
  // Distinct coordinates with aggregated weights.
  std::vector<std::pair<double, double>> groups;  // (coord, weight)
  for (auto it = lo; it != hi; ++it) {
    if (!groups.empty() && groups.back().first == it->p[axis])
      groups.back().second += it->w;
    else
      groups.emplace_back(it->p[axis], it->w);
  }
  if (groups.size() < 2) return geometric;
  double total = 0.0;
  for (const auto& g : groups) total += g.second;
  const double target = frac * total;
  double best = geometric, best_err = std::abs(target);  // empty prefix
  double prefix = 0.0;
  bool have = false;
  for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
    prefix += groups[g].second;
    const double err = std::abs(prefix - target);
    const double cut = 0.5 * (groups[g].first + groups[g + 1].first);
    if (!have || err < best_err) {
      best = cut;
      best_err = err;
      have = true;
    }
  }
  return best;
}

int longest_axis(const Bounds& box) {
  int axis = 0;
  double w = box.max[0] - box.min[0];
  for (int a = 1; a < 3; ++a) {
    const double wa = box.max[a] - box.min[a];
    if (wa > w) {
      w = wa;
      axis = a;
    }
  }
  return axis;
}

int build_kd(std::vector<KdSplit>& splits, std::vector<KdSample>& pts,
             std::size_t lo, std::size_t hi, const Bounds& box, int b0,
             int n) {
  if (n == 1) return ~b0;
  const int nl = n / 2;
  const int axis = longest_axis(box);
  const double frac = static_cast<double>(nl) / n;
  double c = choose_split(pts.begin() + lo, pts.begin() + hi, axis, box, frac);
  // Keep both child boxes non-degenerate even for pathological samples.
  const double margin = 1e-3 * (box.max[axis] - box.min[axis]);
  c = std::clamp(c, box.min[axis] + margin, box.max[axis] - margin);
  const auto mid =
      std::partition(pts.begin() + lo, pts.begin() + hi,
                     [axis, c](const KdSample& s) { return s.p[axis] < c; });
  const std::size_t m = static_cast<std::size_t>(mid - pts.begin());
  const int node = static_cast<int>(splits.size());
  splits.push_back({axis, c, 0, 0});
  Bounds lbox = box, rbox = box;
  lbox.max[axis] = c;
  rbox.min[axis] = c;
  const int l = build_kd(splits, pts, lo, m, lbox, b0, nl);
  const int r = build_kd(splits, pts, m, hi, rbox, b0 + nl, n - nl);
  splits[node].left = l;
  splits[node].right = r;
  return node;
}

}  // namespace

Decomposition Decomposition::kd(const Vec3& domain_min, const Vec3& domain_max,
                                bool periodic, int nblocks,
                                const std::vector<Vec3>& points,
                                const std::vector<double>* weights) {
  if (nblocks < 1)
    throw std::invalid_argument("Decomposition::kd: nblocks must be >= 1");
  if (weights && weights->size() != points.size())
    throw std::invalid_argument("Decomposition::kd: weights/points mismatch");
  check_domain(domain_min, domain_max);
  // Wrap samples into the primary domain so the split tree tiles it.
  std::vector<KdSample> pts;
  pts.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    pts.push_back({periodic ? wrap_into(points[i], domain_min, domain_max)
                            : points[i],
                   weights ? (*weights)[i] : 1.0});
  std::vector<KdSplit> splits;
  if (nblocks > 1) {
    splits.reserve(nblocks - 1);
    build_kd(splits, pts, 0, pts.size(), Bounds{domain_min, domain_max}, 0,
             nblocks);
  }
  return Decomposition(domain_min, domain_max, periodic, nblocks,
                       std::move(splits));
}

std::array<int, 3> Decomposition::factor(int nblocks) {
  if (nblocks < 1) throw std::invalid_argument("factor: nblocks must be >= 1");
  // Greedy: repeatedly split off the largest prime factor onto the axis
  // with the smallest current extent, yielding a near-cubic grid.
  std::array<int, 3> dims{1, 1, 1};
  int n = nblocks;
  for (int f = 2; f * f <= n;) {
    if (n % f == 0) {
      auto it = std::min_element(dims.begin(), dims.end());
      *it *= f;
      n /= f;
    } else {
      ++f;
    }
  }
  if (n > 1) {
    auto it = std::min_element(dims.begin(), dims.end());
    *it *= n;
  }
  std::sort(dims.begin(), dims.end());
  return dims;
}

Bounds Decomposition::block_bounds(int block) const {
  if (block < 0 || block >= nblocks_)
    throw std::out_of_range("Decomposition: block index");
  return bounds_[block];
}

Vec3 Decomposition::wrap(const Vec3& p) const {
  return periodic_ ? wrap_into(p, domain_min_, domain_max_) : p;
}

int Decomposition::block_of_point(const Vec3& p) const {
  if (splits_.empty()) return 0;
  const Vec3 q = wrap(p);
  int node = 0;
  for (;;) {
    const KdSplit& s = splits_[node];
    const int child = (q[s.axis] < s.coord) ? s.left : s.right;
    if (child < 0) return ~child;
    node = child;
  }
}

std::vector<Neighbor> Decomposition::compute_neighbors_within(
    int block, double reach) const {
  const Bounds me = block_bounds(block);
  const Vec3 size = domain_size();
  const int span = periodic_ ? 1 : 0;
  std::vector<Neighbor> out;
  for (int b = 0; b < nblocks_; ++b) {
    const Bounds bb = block_bounds(b);
    for (int sz = -span; sz <= span; ++sz)
      for (int sy = -span; sy <= span; ++sy)
        for (int sx = -span; sx <= span; ++sx) {
          if (b == block && sx == 0 && sy == 0 && sz == 0) continue;
          const Vec3 s{sx * size.x, sy * size.y, sz * size.z};
          if (me.shifted(s).box_distance(bb) <= reach) out.push_back({b, s});
        }
  }
  return out;
}

std::vector<Neighbor> Decomposition::neighbors_within(int block,
                                                      double reach) const {
  if (block < 0 || block >= nblocks_)
    throw std::out_of_range("Decomposition: block index");
  const auto key = std::make_pair(block, reach);
  {
    std::lock_guard<std::mutex> lock(nbr_mutex_);
    auto it = nbr_cache_.find(key);
    if (it != nbr_cache_.end()) return *it->second;
  }
  auto computed = std::make_shared<const std::vector<Neighbor>>(
      compute_neighbors_within(block, reach));
  std::lock_guard<std::mutex> lock(nbr_mutex_);
  auto [it, inserted] = nbr_cache_.emplace(key, std::move(computed));
  return *it->second;
}

}  // namespace tess::diy
