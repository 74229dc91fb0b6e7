#include "analysis/watershed.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/union_find.hpp"

namespace tess::analysis {

WatershedResult watershed_voids(const std::vector<double>& density, int grid,
                                const WatershedOptions& opt) {
  const auto n = static_cast<std::size_t>(grid);
  if (grid < 1 || density.size() != n * n * n)
    throw std::invalid_argument("watershed_voids: bad grid/density size");
  const auto total = density.size();

  auto index = [&](int x, int y, int z) {
    const auto xs = static_cast<std::size_t>((x + grid) % grid);
    const auto ys = static_cast<std::size_t>((y + grid) % grid);
    const auto zs = static_cast<std::size_t>((z + grid) % grid);
    return (zs * n + ys) * n + xs;
  };

  // Steepest-descent target per cell (6-connectivity; self if a minimum).
  std::vector<std::size_t> down(total);
  for (int z = 0; z < grid; ++z)
    for (int y = 0; y < grid; ++y)
      for (int x = 0; x < grid; ++x) {
        const auto i = index(x, y, z);
        std::size_t best = i;
        double best_d = density[i];
        const int nb[6][3] = {{x - 1, y, z}, {x + 1, y, z}, {x, y - 1, z},
                              {x, y + 1, z}, {x, y, z - 1}, {x, y, z + 1}};
        for (const auto& c : nb) {
          const auto j = index(c[0], c[1], c[2]);
          if (density[j] < best_d) {
            best_d = density[j];
            best = j;
          }
        }
        down[i] = best;
      }

  // Path-compress the descent chains to their minima.
  std::vector<std::size_t> basin(total);
  for (std::size_t i = 0; i < total; ++i) {
    std::size_t cur = i;
    while (down[cur] != cur) cur = down[cur];
    basin[i] = cur;
    // Compress the walked path.
    std::size_t walk = i;
    while (down[walk] != walk) {
      const auto next = down[walk];
      down[walk] = cur;
      walk = next;
    }
  }

  // Optional ridge merging: adjacent cells of different basins whose shared
  // ridge (max of the two densities) is below the threshold merge.
  util::UnionFind uf(total);
  if (opt.ridge_threshold > 0.0) {
    for (int z = 0; z < grid; ++z)
      for (int y = 0; y < grid; ++y)
        for (int x = 0; x < grid; ++x) {
          const auto i = index(x, y, z);
          const int nb[3][3] = {{x + 1, y, z}, {x, y + 1, z}, {x, y, z + 1}};
          for (const auto& c : nb) {
            const auto j = index(c[0], c[1], c[2]);
            if (basin[i] == basin[j]) continue;
            if (std::max(density[i], density[j]) < opt.ridge_threshold)
              uf.unite(basin[i], basin[j]);
          }
        }
    for (std::size_t i = 0; i < total; ++i) basin[i] = uf.find(basin[i]);
  }

  // Discard basins whose minimum is not underdense enough, then collate.
  // (After ridge merging the representative need not be the minimum cell,
  // so compute each basin's true minimum density first.)
  std::map<std::size_t, double> basin_min;
  for (std::size_t i = 0; i < total; ++i) {
    auto [it, inserted] = basin_min.emplace(basin[i], density[i]);
    if (!inserted) it->second = std::min(it->second, density[i]);
  }
  WatershedResult result;
  result.grid = grid;
  result.labels.assign(total, -1);
  std::map<std::size_t, int> label_of_basin;  // ordered for determinism
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < total; ++i) {
    const auto b = basin[i];
    if (opt.min_density_threshold > 0.0 &&
        basin_min.at(b) > opt.min_density_threshold)
      continue;
    auto [it, inserted] = label_of_basin.emplace(b, result.num_voids);
    if (inserted) {
      ++result.num_voids;
      sizes.push_back(0);
    }
    result.labels[i] = it->second;
    ++sizes[static_cast<std::size_t>(it->second)];
  }
  result.void_sizes = std::move(sizes);
  std::sort(result.void_sizes.begin(), result.void_sizes.end(),
            std::greater<std::size_t>());
  return result;
}

}  // namespace tess::analysis
