#include "serve/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "analysis/density.hpp"
#include "analysis/threshold.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tess::serve {

namespace {

// A block whose payload is too small to carry bounds (notably size 0)
// contributes no cells and must not attract point-location routing.
bool valid_bounds(const diy::Bounds& b) {
  return b.min.x < b.max.x && b.min.y < b.max.y && b.min.z < b.max.z;
}

}  // namespace

Snapshot::Snapshot(const std::string& path) : file_(path) {
  TESS_SPAN("serve.snapshot.open");
  const int nb = file_.num_blocks();
  bounds_.resize(static_cast<std::size_t>(nb));
  slots_.resize(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    slots_[static_cast<std::size_t>(b)] = std::make_unique<BlockSlot>();
    if (file_.block_size(b) >= 6 * sizeof(double))
      bounds_[static_cast<std::size_t>(b)] =
          core::BlockMesh::peek_bounds(file_.block_view(b));
  }

  // Reconstruct the writer's block grid from the per-block lower corners:
  // when the valid blocks tile a full nx*ny*nz grid, routing a point is
  // three binary searches instead of a bounds scan. The corners come from
  // one Decomposition evaluated identically on every rank, so exact
  // double comparison is the right equality here.
  std::vector<int> valid;
  for (int b = 0; b < nb; ++b)
    if (valid_bounds(bounds_[static_cast<std::size_t>(b)])) valid.push_back(b);
  for (int a = 0; a < 3; ++a) {
    auto& lo = axis_lo_[static_cast<std::size_t>(a)];
    for (int b : valid)
      lo.push_back(bounds_[static_cast<std::size_t>(b)].min[
          static_cast<std::size_t>(a)]);
    std::sort(lo.begin(), lo.end());
    lo.erase(std::unique(lo.begin(), lo.end()), lo.end());
  }
  const std::size_t nx = axis_lo_[0].size(), ny = axis_lo_[1].size(),
                    nz = axis_lo_[2].size();
  if (!valid.empty() && nx * ny * nz == valid.size()) {
    grid_to_block_.assign(nx * ny * nz, -1);
    grid_ok_ = true;
    for (int b : valid) {
      const auto& bb = bounds_[static_cast<std::size_t>(b)];
      std::size_t idx[3];
      for (int a = 0; a < 3; ++a) {
        const auto& lo = axis_lo_[static_cast<std::size_t>(a)];
        const auto it = std::lower_bound(lo.begin(), lo.end(),
                                         bb.min[static_cast<std::size_t>(a)]);
        idx[a] = static_cast<std::size_t>(it - lo.begin());
      }
      auto& cell = grid_to_block_[(idx[0] * ny + idx[1]) * nz + idx[2]];
      if (cell != -1) {
        grid_ok_ = false;  // two blocks share a corner: not a regular grid
        break;
      }
      cell = b;
    }
    if (grid_ok_)
      for (int g : grid_to_block_)
        if (g == -1) {
          grid_ok_ = false;
          break;
        }
  }
}

const Snapshot::BlockSlot& Snapshot::slot(int block) const {
  auto& s = *slots_[static_cast<std::size_t>(block)];
  std::call_once(s.once, [&] {
    TESS_SPAN("serve.snapshot.load_block");
    if (file_.block_size(block) > 0) {
      auto view = file_.block_view(block);
      try {
        s.mesh = core::BlockMesh::deserialize(view);
      } catch (const std::runtime_error& e) {
        // Recorded and rethrown below rather than thrown through
        // std::call_once, which can leave later callers blocked (e.g.
        // under ThreadSanitizer); a corrupt block stays corrupt.
        s.error = "corrupt tess block file '" + path() + "': block " +
                  std::to_string(block) + ": " + e.what();
        return;
      }
    }
    s.grid.build(s.mesh);
    s.cell_of_site.reserve(s.mesh.cells.size());
    for (std::uint32_t i = 0; i < s.mesh.cells.size(); ++i)
      s.cell_of_site.emplace(s.mesh.cells[i].site_id, i);
    resident_bytes_.fetch_add(file_.block_size(block),
                              std::memory_order_relaxed);
    blocks_loaded_.fetch_add(1, std::memory_order_relaxed);
    TESS_COUNT("serve.snapshot.blocks_loaded", 1);
    TESS_COUNT("serve.snapshot.bytes_loaded", file_.block_size(block));
  });
  if (!s.error.empty()) throw std::runtime_error(s.error);
  return s;
}

const core::BlockMesh& Snapshot::block(int block) const {
  return slot(block).mesh;
}

std::vector<const core::BlockMesh*> Snapshot::blocks() const {
  std::vector<const core::BlockMesh*> out;
  out.reserve(static_cast<std::size_t>(num_blocks()));
  for (int b = 0; b < num_blocks(); ++b) out.push_back(&slot(b).mesh);
  return out;
}

// ---------------------------------------------------------------------------
// Site grid

void Snapshot::SiteGrid::build(const core::BlockMesh& mesh) {
  const std::size_t n = mesh.cells.size();
  if (n == 0) {
    dims = {1, 1, 1};
    bin_offsets.assign(2, 0);
    return;
  }
  // ~2 sites per bin keeps shell scans short without inflating memory.
  const int k = std::clamp(
      static_cast<int>(std::lround(std::cbrt(static_cast<double>(n) / 2.0))),
      1, 64);
  dims = {k, k, k};
  origin = mesh.bounds.min;
  const Vec3 extent = mesh.bounds.max - mesh.bounds.min;
  cell_size = {extent.x > 0 ? extent.x / k : 1.0,
               extent.y > 0 ? extent.y / k : 1.0,
               extent.z > 0 ? extent.z / k : 1.0};

  const std::size_t nbins = static_cast<std::size_t>(k) * k * k;
  bin_offsets.assign(nbins + 1, 0);
  std::vector<std::uint32_t> bin(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = bin_of(mesh.cells[i].site);
    bin[i] = static_cast<std::uint32_t>(
        (static_cast<std::size_t>(c[0]) * dims[1] + c[1]) * dims[2] + c[2]);
    ++bin_offsets[bin[i] + 1];
  }
  for (std::size_t b = 0; b < nbins; ++b) bin_offsets[b + 1] += bin_offsets[b];
  items.resize(n);
  std::vector<std::uint32_t> cursor(bin_offsets.begin(),
                                    bin_offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    items[cursor[bin[i]]++] = static_cast<std::uint32_t>(i);
}

std::array<int, 3> Snapshot::SiteGrid::bin_of(const Vec3& p) const {
  std::array<int, 3> c{};
  for (std::size_t a = 0; a < 3; ++a) {
    // Clamped before the conversion: a corrupt file can make t NaN or huge.
    const double t = std::floor((p[a] - origin[a]) / cell_size[a]);
    const double last = dims[a] - 1;
    c[a] = t >= 0.0 ? static_cast<int>(std::min(t, last)) : 0;
  }
  return c;
}

std::int64_t Snapshot::SiteGrid::seed(const Vec3& p) const {
  if (items.empty()) return -1;
  const auto c = bin_of(p);
  const int rmax = std::max({dims[0], dims[1], dims[2]});
  for (int r = 0; r <= rmax; ++r) {
    std::int64_t best = -1;
    for (int dx = -r; dx <= r; ++dx)
      for (int dy = -r; dy <= r; ++dy)
        for (int dz = -r; dz <= r; ++dz) {
          if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) != r)
            continue;
          const int x = c[0] + dx, y = c[1] + dy, z = c[2] + dz;
          if (x < 0 || x >= dims[0] || y < 0 || y >= dims[1] || z < 0 ||
              z >= dims[2])
            continue;
          const std::size_t b =
              (static_cast<std::size_t>(x) * dims[1] + y) * dims[2] + z;
          if (bin_offsets[b] != bin_offsets[b + 1]) {
            best = items[bin_offsets[b]];  // any site in the shell will do
          }
        }
    if (best >= 0) return best;
  }
  return -1;
}

std::int64_t Snapshot::SiteGrid::nearest(const Vec3& p,
                                         const core::BlockMesh& mesh,
                                         double* best_d2) const {
  if (items.empty()) return -1;
  const auto c = bin_of(p);
  const double w_min =
      std::min({cell_size.x, cell_size.y, cell_size.z});
  const int rmax = std::max({dims[0], dims[1], dims[2]});
  std::int64_t best = -1;
  for (int r = 0; r <= rmax; ++r) {
    // Any bin at Chebyshev radius r is at least (r-1)*w_min from p (p lies
    // in or beyond its own bin), so once that lower bound beats the best
    // distance no further shell can contain the nearest site.
    if (r >= 1) {
      const double lb = (r - 1) * w_min;
      if (lb * lb > *best_d2) break;
    }
    for (int dx = -r; dx <= r; ++dx)
      for (int dy = -r; dy <= r; ++dy)
        for (int dz = -r; dz <= r; ++dz) {
          if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) != r)
            continue;
          const int x = c[0] + dx, y = c[1] + dy, z = c[2] + dz;
          if (x < 0 || x >= dims[0] || y < 0 || y >= dims[1] || z < 0 ||
              z >= dims[2])
            continue;
          const std::size_t b =
              (static_cast<std::size_t>(x) * dims[1] + y) * dims[2] + z;
          for (std::uint32_t i = bin_offsets[b]; i < bin_offsets[b + 1]; ++i) {
            const double d2 = geom::dist2(p, mesh.cells[items[i]].site);
            if (d2 < *best_d2) {
              *best_d2 = d2;
              best = items[i];
            }
          }
        }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Point location

std::int64_t Snapshot::nearest_in_block(int block, const Vec3& p,
                                        double* best_d2,
                                        PointLocation* out) const {
  const auto& s = slot(block);
  const auto cell = s.grid.nearest(p, s.mesh, best_d2);
  if (cell >= 0 && out != nullptr) {
    out->block = block;
    out->cell = static_cast<std::uint32_t>(cell);
    out->site_id = s.mesh.cells[static_cast<std::size_t>(cell)].site_id;
    out->site_dist2 = *best_d2;
  }
  return cell;
}

PointLocation Snapshot::locate(const Vec3& p) const {
  TESS_SPAN("serve.locate");
  TESS_COUNT("serve.locate.count", 1);
  PointLocation out;
  const int nb = num_blocks();
  if (nb == 0) return out;

  // Route to the owning block: three binary searches on the reconstructed
  // block grid when the file is a regular tiling. Files written from k-d
  // (adaptive) decompositions are valid tilings but not tensor grids, so
  // they route via the stored block extents instead: the block whose
  // half-open bounds contain p is the owner by construction. Points
  // outside every block (outside the domain, or a truncated file) fall
  // back to the nearest box by distance.
  int owner = -1;
  if (grid_ok_) {
    const std::size_t ny = axis_lo_[1].size(), nz = axis_lo_[2].size();
    std::size_t idx[3];
    for (std::size_t a = 0; a < 3; ++a) {
      const auto& lo = axis_lo_[a];
      const auto it = std::upper_bound(lo.begin(), lo.end(), p[a]);
      idx[a] = it == lo.begin() ? 0 : static_cast<std::size_t>(it - lo.begin()) - 1;
    }
    owner = grid_to_block_[(idx[0] * ny + idx[1]) * nz + idx[2]];
  } else {
    double best = std::numeric_limits<double>::infinity();
    for (int b = 0; b < nb; ++b) {
      const auto& bb = bounds_[static_cast<std::size_t>(b)];
      if (!valid_bounds(bb)) continue;
      if (bb.contains(p)) {
        owner = b;
        break;
      }
      const double d = bb.distance(p);
      if (d < best) {
        best = d;
        owner = b;
      }
    }
  }
  if (owner < 0) return out;

  // Seed from the owning block's site grid, then walk the face-adjacency
  // graph downhill in site distance. On a complete Voronoi adjacency this
  // greedy descent provably reaches the cell containing p; a culled or
  // ghost neighbor at the terminal cell voids that certificate, and the
  // exact grid search takes over.
  double best_d2 = std::numeric_limits<double>::infinity();
  bool certified = false;
  const auto& s = slot(owner);
  if (!s.mesh.cells.empty()) {
    std::int64_t cur = s.grid.seed(p);
    best_d2 = geom::dist2(p, s.mesh.cells[static_cast<std::size_t>(cur)].site);
    for (;;) {
      const auto& c = s.mesh.cells[static_cast<std::size_t>(cur)];
      bool absent_neighbor = false;
      std::int64_t next = -1;
      for (std::uint32_t f = c.first_face; f < c.first_face + c.num_faces;
           ++f) {
        const auto nb_site = s.mesh.face_neighbors[f];
        if (nb_site < 0) continue;  // wall face, not a missing cell
        const auto it = s.cell_of_site.find(nb_site);
        if (it == s.cell_of_site.end()) {
          absent_neighbor = true;  // ghost of another block, or culled
          continue;
        }
        const double d2 = geom::dist2(p, s.mesh.cells[it->second].site);
        if (d2 < best_d2) {
          best_d2 = d2;
          next = it->second;
        }
      }
      if (next < 0) {
        certified = !absent_neighbor;
        break;
      }
      cur = next;
      ++out.walk_steps;
    }
    out.block = owner;
    out.cell = static_cast<std::uint32_t>(cur);
    out.site_id = s.mesh.cells[static_cast<std::size_t>(cur)].site_id;
    out.site_dist2 = best_d2;
    TESS_HIST_ADD("serve.locate.walk_steps", out.walk_steps);
  }

  if (!certified) {
    // Exact within the owning block, then refine across any block whose
    // box lies closer than the best site found so far.
    out.grid_fallback = true;
    TESS_COUNT("serve.locate.grid_fallback", 1);
    nearest_in_block(owner, p, &best_d2, &out);
    for (int b = 0; b < nb; ++b) {
      if (b == owner || !valid_bounds(bounds_[static_cast<std::size_t>(b)]))
        continue;
      const double d = bounds_[static_cast<std::size_t>(b)].distance(p);
      if (d * d >= best_d2) continue;
      TESS_COUNT("serve.locate.cross_block", 1);
      nearest_in_block(b, p, &best_d2, &out);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Region extraction, histogram slices, voids

core::BlockMesh Snapshot::extract_region(const diy::Bounds& box) const {
  TESS_SPAN("serve.extract_region");
  core::BlockMesh out;
  for (int b = 0; b < num_blocks(); ++b) {
    const auto& bb = bounds_[static_cast<std::size_t>(b)];
    if (!valid_bounds(bb)) continue;
    const bool overlaps = bb.min.x < box.max.x && box.min.x < bb.max.x &&
                          bb.min.y < box.max.y && box.min.y < bb.max.y &&
                          bb.min.z < box.max.z && box.min.z < bb.max.z;
    if (!overlaps) continue;
    const auto& mesh = slot(b).mesh;
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < mesh.cells.size(); ++i)
      if (box.contains(mesh.cells[i].site)) keep.push_back(i);
    if (keep.empty()) continue;
    out.append(analysis::filter_mesh(mesh, keep));
  }
  out.bounds = box;
  TESS_COUNT("serve.region.cells", out.cells.size());
  return out;
}

util::Histogram Snapshot::volume_histogram(double lo, double hi,
                                           std::size_t bins) const {
  TESS_SPAN("serve.volume_histogram");
  return analysis::volume_histogram(blocks(), lo, hi, bins);
}

util::Histogram Snapshot::density_contrast_histogram(std::size_t bins) const {
  TESS_SPAN("serve.density_histogram");
  return analysis::density_contrast_histogram(blocks(), bins);
}

std::shared_ptr<const Snapshot::VoidCatalog> Snapshot::voids(
    double min_volume) const {
  std::lock_guard<std::mutex> lock(voids_mutex_);
  auto it = voids_.find(min_volume);
  if (it != voids_.end()) {
    TESS_COUNT("serve.voids.catalog_hit", 1);
    return it->second;
  }
  TESS_SPAN("serve.voids.build");
  TESS_COUNT("serve.voids.catalog_build", 1);
  auto catalog = std::make_shared<VoidCatalog>();
  catalog->min_volume = min_volume;
  for (int b = 0; b < num_blocks(); ++b) {
    const auto& mesh = slot(b).mesh;
    catalog->filtered.push_back(
        analysis::filter_mesh(mesh, analysis::threshold_cells(mesh, min_volume)));
  }
  catalog->components =
      std::make_unique<analysis::ConnectedComponents>(catalog->filtered);
  voids_.emplace(min_volume, catalog);
  return catalog;
}

std::int64_t Snapshot::void_of(const Vec3& p, double min_volume) const {
  const auto loc = locate(p);
  if (!loc.found()) return -1;
  return voids(min_volume)->components->label_of(loc.site_id);
}

}  // namespace tess::serve
