#include "analysis/halo_finder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/union_find.hpp"

namespace tess::analysis {

HaloFinder::HaloFinder(FofOptions options) : options_(options) {
  if (options_.linking_length <= 0.0)
    throw std::invalid_argument("HaloFinder: linking_length must be > 0");
}

std::vector<Halo> HaloFinder::find(const std::vector<diy::Particle>& particles) const {
  const std::size_t n = particles.size();
  last_n_ = n;
  membership_.assign(n, -1);
  in_halos_ = 0;
  if (n == 0) return {};

  // Bounding region (or the periodic box).
  geom::Vec3 lo = particles[0].pos, hi = particles[0].pos;
  if (options_.box > 0.0) {
    lo = {0, 0, 0};
    hi = {options_.box, options_.box, options_.box};
  } else {
    for (const auto& p : particles)
      for (std::size_t a = 0; a < 3; ++a) {
        lo[a] = std::min(lo[a], p.pos[a]);
        hi[a] = std::max(hi[a], p.pos[a]);
      }
  }

  // Grid with cell size >= linking length: all partners of a particle live
  // in its own or the 26 adjacent cells.
  const double b = options_.linking_length;
  const double b2 = b * b;
  int nb[3];
  double cw[3];
  for (std::size_t a = 0; a < 3; ++a) {
    const double extent = std::max(hi[a] - lo[a], b);
    nb[a] = std::max(1, static_cast<int>(extent / b));
    cw[a] = extent / nb[a];
  }
  auto cell_of = [&](const geom::Vec3& p, int c[3]) {
    for (std::size_t a = 0; a < 3; ++a)
      c[a] = std::clamp(static_cast<int>((p[a] - lo[a]) / cw[a]), 0, nb[a] - 1);
  };
  std::vector<std::vector<int>> grid(static_cast<std::size_t>(nb[0]) * nb[1] * nb[2]);
  auto grid_index = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * nb[1] + static_cast<std::size_t>(y)) * nb[0] +
           static_cast<std::size_t>(x);
  };
  for (int i = 0; i < static_cast<int>(n); ++i) {
    int c[3];
    cell_of(particles[static_cast<std::size_t>(i)].pos, c);
    grid[grid_index(c[0], c[1], c[2])].push_back(i);
  }

  const bool periodic = options_.box > 0.0;
  const double box = options_.box;
  auto link_dist2 = [&](const geom::Vec3& a, const geom::Vec3& c) {
    double d2 = 0.0;
    for (std::size_t ax = 0; ax < 3; ++ax) {
      double d = std::fabs(a[ax] - c[ax]);
      if (periodic && d > box / 2) d = box - d;
      d2 += d * d;
    }
    return d2;
  };

  util::UnionFind uf(n);
  for (int i = 0; i < static_cast<int>(n); ++i) {
    int c[3];
    cell_of(particles[static_cast<std::size_t>(i)].pos, c);
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          int x = c[0] + dx, y = c[1] + dy, z = c[2] + dz;
          if (periodic) {
            x = (x + nb[0]) % nb[0];
            y = (y + nb[1]) % nb[1];
            z = (z + nb[2]) % nb[2];
          } else if (x < 0 || y < 0 || z < 0 || x >= nb[0] || y >= nb[1] ||
                     z >= nb[2]) {
            continue;
          }
          for (int j : grid[grid_index(x, y, z)]) {
            if (j <= i) continue;  // each pair once
            if (link_dist2(particles[static_cast<std::size_t>(i)].pos,
                           particles[static_cast<std::size_t>(j)].pos) <= b2)
              uf.unite(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
          }
        }
  }

  // Collate groups.
  std::vector<int> group_of(n);
  std::vector<std::vector<int>> members;
  {
    std::vector<int> slot(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto r = uf.find(i);
      if (slot[r] < 0) {
        slot[r] = static_cast<int>(members.size());
        members.emplace_back();
      }
      group_of[i] = slot[r];
      members[static_cast<std::size_t>(slot[r])].push_back(static_cast<int>(i));
    }
  }

  std::vector<Halo> halos;
  std::vector<int> halo_of_group(members.size(), -1);
  for (std::size_t g = 0; g < members.size(); ++g) {
    if (members[g].size() < options_.min_members) continue;
    Halo h;
    h.num_particles = members[g].size();
    // Center of mass with periodic unwrapping relative to the first member.
    const geom::Vec3 ref = particles[static_cast<std::size_t>(members[g][0])].pos;
    geom::Vec3 sum{};
    h.id = INT64_MAX;
    for (int i : members[g]) {
      geom::Vec3 p = particles[static_cast<std::size_t>(i)].pos;
      if (periodic)
        for (std::size_t a = 0; a < 3; ++a) {
          if (p[a] - ref[a] > box / 2) p[a] -= box;
          if (ref[a] - p[a] > box / 2) p[a] += box;
        }
      sum += p;
      h.id = std::min(h.id, particles[static_cast<std::size_t>(i)].id);
    }
    h.center = sum / static_cast<double>(h.num_particles);
    if (periodic)
      for (std::size_t a = 0; a < 3; ++a) {
        while (h.center[a] < 0) h.center[a] += box;
        while (h.center[a] >= box) h.center[a] -= box;
      }
    halo_of_group[g] = static_cast<int>(halos.size());
    halos.push_back(h);
    in_halos_ += h.num_particles;
  }
  for (std::size_t i = 0; i < n; ++i)
    membership_[i] = halo_of_group[static_cast<std::size_t>(group_of[i])];

  // Largest halos first; remap membership accordingly.
  std::vector<int> order(halos.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return halos[static_cast<std::size_t>(a)].num_particles >
           halos[static_cast<std::size_t>(b)].num_particles;
  });
  std::vector<int> rank_of(halos.size());
  std::vector<Halo> sorted;
  sorted.reserve(halos.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank_of[static_cast<std::size_t>(order[r])] = static_cast<int>(r);
    sorted.push_back(halos[static_cast<std::size_t>(order[r])]);
  }
  for (auto& m : membership_)
    if (m >= 0) m = rank_of[static_cast<std::size_t>(m)];
  return sorted;
}

double HaloFinder::halo_mass_fraction() const {
  return last_n_ == 0 ? 0.0
                      : static_cast<double>(in_halos_) / static_cast<double>(last_n_);
}

}  // namespace tess::analysis
