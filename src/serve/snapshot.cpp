#include "serve/snapshot.hpp"

#include <algorithm>
#include <bit>
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
}

void Snapshot::BlockSlot::index_faces() {
  // A transient site id -> cell table, open addressing at most half full:
  // one multiply and usually one probe per face. A site id that a corrupt
  // block repeats keeps its first cell.
  const std::size_t n = mesh.cells.size();
  const int bits =
      static_cast<int>(std::bit_width(std::max<std::size_t>(2 * n, 2) - 1));
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  const auto home = [&](std::int64_t id) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull) >>
        (64 - bits));
  };
  struct Entry {
    std::int64_t site_id = 0;
    std::uint32_t cell = kAbsentCell;  ///< kAbsentCell: empty slot
  };
  std::vector<Entry> table(mask + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto id = mesh.cells[i].site_id;
    auto h = home(id);
    while (table[h].cell != kAbsentCell && table[h].site_id != id)
      h = (h + 1) & mask;
    if (table[h].cell == kAbsentCell) table[h] = {id, i};
  }
  face_cell.resize(mesh.face_neighbors.size());
  for (std::size_t f = 0; f < face_cell.size(); ++f) {
    const auto nb = mesh.face_neighbors[f];
    if (nb < 0) {
      face_cell[f] = kWallFace;
      continue;
    }
    auto h = home(nb);
    while (table[h].cell != kAbsentCell && table[h].site_id != nb)
      h = (h + 1) & mask;
    face_cell[f] = table[h].cell;  // kAbsentCell when nb is not stored
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
      }
      // The mesh is a copy, and no query reads the block's bytes again.
      file_.release(block);
      if (!s.error.empty()) return;
    }
    s.grid.build(s.mesh);
    s.index_faces();
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

Snapshot::LocateTally::~LocateTally() {
  if (count_ != 0) TESS_COUNT("serve.locate.count", count_);
  if (grid_fallback_ != 0)
    TESS_COUNT("serve.locate.grid_fallback", grid_fallback_);
  if (cross_block_ != 0) TESS_COUNT("serve.locate.cross_block", cross_block_);
  if (walk_steps_.count != 0)
    TESS_HIST_MERGE("serve.locate.walk_steps", walk_steps_);
}

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
  LocateTally tally;
  return locate(p, tally);
}

PointLocation Snapshot::locate(const Vec3& p, LocateTally& tally) const {
  ++tally.count_;
  PointLocation out;
  const int nb = num_blocks();
  if (nb == 0) return out;

  // Route to the owning block, the one whose half-open bounds contain p:
  // the writer's k-d split tree gave each block exactly those points, and
  // a block without valid bounds contains none. Files hold a few blocks,
  // so a scan. Only a point outside every block (outside the domain, or a
  // truncated file) pays for distances, to go to the nearest box.
  int owner = -1;
  for (int b = 0; b < nb && owner < 0; ++b)
    if (bounds_[static_cast<std::size_t>(b)].contains(p)) owner = b;
  if (owner < 0) {
    double best = std::numeric_limits<double>::infinity();
    for (int b = 0; b < nb; ++b) {
      const auto& bb = bounds_[static_cast<std::size_t>(b)];
      if (!valid_bounds(bb)) continue;
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
        const auto nb = s.face_cell[f];
        if (nb == BlockSlot::kWallFace) continue;  // not a missing cell
        if (nb == BlockSlot::kAbsentCell) {
          absent_neighbor = true;  // ghost of another block, or culled
          continue;
        }
        const double d2 = geom::dist2(p, s.mesh.cells[nb].site);
        if (d2 < best_d2) {
          best_d2 = d2;
          next = nb;
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
    tally.walk_steps_.add(out.walk_steps);
  }

  if (!certified) {
    // Exact within the owning block, then refine across any block whose
    // box lies closer than the best site found so far.
    out.grid_fallback = true;
    ++tally.grid_fallback_;
    nearest_in_block(owner, p, &best_d2, &out);
    for (int b = 0; b < nb; ++b) {
      if (b == owner || !valid_bounds(bounds_[static_cast<std::size_t>(b)]))
        continue;
      const double d = bounds_[static_cast<std::size_t>(b)].distance(p);
      if (d * d >= best_d2) continue;
      ++tally.cross_block_;
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
  std::vector<std::uint32_t> remap;  // block vertex -> region vertex
  for (int b = 0; b < num_blocks(); ++b) {
    const auto& bb = bounds_[static_cast<std::size_t>(b)];
    if (!valid_bounds(bb)) continue;
    const bool overlaps = bb.min.x < box.max.x && box.min.x < bb.max.x &&
                          bb.min.y < box.max.y && box.min.y < bb.max.y &&
                          bb.min.z < box.max.z && box.min.z < bb.max.z;
    if (!overlaps) continue;
    // Weld each kept cell straight from the block, in block order.
    const auto& mesh = slot(b).mesh;
    remap.assign(mesh.vertices.size(), core::BlockMesh::kUnwelded);
    for (std::size_t i = 0; i < mesh.cells.size(); ++i)
      if (box.contains(mesh.cells[i].site)) out.append_cell(mesh, i, remap);
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
  const auto meshes = blocks();
  std::vector<std::vector<std::size_t>> kept;
  kept.reserve(meshes.size());
  for (const auto* mesh : meshes)
    kept.push_back(analysis::threshold_cells(*mesh, min_volume));
  catalog->components =
      std::make_unique<analysis::ConnectedComponents>(meshes, kept);
  voids_.emplace(min_volume, catalog);
  return catalog;
}

std::int64_t Snapshot::void_of(const Vec3& p, double min_volume) const {
  const auto loc = locate(p);
  if (!loc.found()) return -1;
  return voids(min_volume)->components->label_of(loc.site_id);
}

}  // namespace tess::serve
