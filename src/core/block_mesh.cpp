#include "core/block_mesh.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

namespace tess::core {

namespace {

/// Mix of a weld key; the table uses its high bits.
std::uint64_t weld_hash(const WeldKey& k) {
  std::uint64_t h = static_cast<std::uint64_t>(k.x) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(k.y) * 0xc2b2ae3d27d4eb4fULL;
  h ^= static_cast<std::uint64_t>(k.z) * 0x165667b19e3779f9ULL;
  h ^= h >> 29;
  return h * 0xbf58476d1ce4e5b9ULL;
}

constexpr std::size_t kMinWeldSlots = 64;

/// First slot of `key`'s probe sequence in a table of `slots` slots.
std::size_t weld_home(const WeldKey& key, std::size_t slots) {
  return weld_hash(key) >> (64 - std::countr_zero(slots));
}

}  // namespace

CellRecord& StagedCells::add_cell(std::int64_t site_id, geom::VoronoiCell& cell) {
  CellRecord& rec = cells.emplace_back();
  rec.site_id = site_id;
  rec.site = cell.site();
  rec.first_face = static_cast<std::uint32_t>(face_neighbors.size());
  const auto measures =
      cell.append_compacted({vertices, face_offsets, face_verts, face_neighbors});
  rec.volume = measures.volume;
  rec.area = measures.area;
  rec.num_faces = static_cast<std::uint32_t>(face_neighbors.size() - rec.first_face);
  first_vertex.push_back(static_cast<std::uint32_t>(vertices.size()));
  return rec;
}

void StagedCells::drop_last() {
  const CellRecord& rec = cells.back();
  face_neighbors.resize(rec.first_face);
  face_offsets.resize(rec.first_face + std::size_t{1});
  face_verts.resize(face_offsets.back());
  first_vertex.pop_back();
  vertices.resize(first_vertex.back());
  cells.pop_back();
}

void BlockMesh::rehash_weld(std::size_t slots) {
  const std::vector<std::uint32_t> old = std::move(weld_slots_);
  weld_slots_.assign(slots, kUnwelded);
  const std::size_t mask = slots - 1;
  for (const std::uint32_t v : old) {
    if (v == kUnwelded) continue;
    std::size_t i = weld_home(weld_keys_[v], slots);
    while (weld_slots_[i] != kUnwelded) i = (i + 1) & mask;
    weld_slots_[i] = v;
  }
}

void BlockMesh::reserve_weld(std::size_t count) {
  if (2 * count > weld_slots_.size())
    rehash_weld(std::max(kMinWeldSlots, std::bit_ceil(2 * count)));
}

std::uint32_t BlockMesh::weld_vertex(const Vec3& v) {
  const WeldKey key = weld_key(v);
  // Double (keeping the load at most 1/2) and reinsert.
  if (2 * (weld_count_ + 1) > weld_slots_.size())
    rehash_weld(std::max(kMinWeldSlots, 2 * weld_slots_.size()));
  const std::size_t mask = weld_slots_.size() - 1;
  std::size_t i = weld_home(key, weld_slots_.size());
  for (; weld_slots_[i] != kUnwelded; i = (i + 1) & mask)
    if (weld_keys_[weld_slots_[i]] == key) return weld_slots_[i];
  // A new key takes the free slot the probe stopped at. Vertices a caller
  // pushed without welding get a placeholder key that no slot points to.
  const auto index = static_cast<std::uint32_t>(vertices.size());
  weld_slots_[i] = index;
  weld_keys_.resize(vertices.size());
  weld_keys_.push_back(key);
  vertices.push_back(v);
  ++weld_count_;
  return index;
}

void BlockMesh::append_cell(const StagedCells& src, std::size_t cell) {
  CellRecord rec = src.cells[cell];
  const std::size_t first = rec.first_face;
  rec.first_face = static_cast<std::uint32_t>(num_faces());
  // Staged vertices are in first-reference order, so welding them in order
  // creates block vertices in the order a per-corner weld would.
  const std::uint32_t v0 = src.first_vertex[cell];
  const std::uint32_t v1 = src.first_vertex[cell + 1];
  remap_.resize(v1 - v0);
  for (std::uint32_t v = v0; v < v1; ++v)
    remap_[v - v0] = weld_vertex(src.vertices[v]);
  for (std::size_t f = first; f < first + rec.num_faces; ++f) {
    for (std::size_t i = src.face_offsets[f]; i < src.face_offsets[f + 1]; ++i)
      face_verts.push_back(remap_[src.face_verts[i]]);
    face_offsets.push_back(static_cast<std::uint32_t>(face_verts.size()));
    face_neighbors.push_back(src.face_neighbors[f]);
  }
  cells.push_back(rec);
}

void BlockMesh::append_cell(const BlockMesh& src, std::size_t cell,
                            std::vector<std::uint32_t>& remap) {
  CellRecord rec = src.cells[cell];
  const std::size_t first = rec.first_face;
  rec.first_face = static_cast<std::uint32_t>(num_faces());
  for (std::size_t f = first; f < first + rec.num_faces; ++f) {
    for (std::size_t i = src.face_offsets[f]; i < src.face_offsets[f + 1]; ++i) {
      auto& mapped = remap[src.face_verts[i]];
      if (mapped == kUnwelded)
        mapped = weld_vertex(src.vertices[src.face_verts[i]]);
      face_verts.push_back(mapped);
    }
    face_offsets.push_back(static_cast<std::uint32_t>(face_verts.size()));
    face_neighbors.push_back(src.face_neighbors[f]);
  }
  cells.push_back(rec);
}

BlockMesh canonical_merge(const std::vector<BlockMesh>& blocks) {
  BlockMesh merged;
  if (blocks.empty()) return merged;
  merged.bounds = blocks.front().bounds;
  std::vector<std::pair<std::int64_t, std::pair<std::size_t, std::size_t>>>
      order;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t a = 0; a < 3; ++a) {
      merged.bounds.min[a] = std::min(merged.bounds.min[a], blocks[b].bounds.min[a]);
      merged.bounds.max[a] = std::max(merged.bounds.max[a], blocks[b].bounds.max[a]);
    }
    for (std::size_t i = 0; i < blocks[b].cells.size(); ++i)
      order.push_back({blocks[b].cells[i].site_id, {b, i}});
  }
  std::sort(order.begin(), order.end());
  std::vector<std::vector<std::uint32_t>> remaps(blocks.size());
  std::size_t total_vertices = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    remaps[b].assign(blocks[b].vertices.size(), BlockMesh::kUnwelded);
    total_vertices += blocks[b].vertices.size();
  }
  merged.reserve_weld(total_vertices);
  for (const auto& [site, loc] : order)
    merged.append_cell(blocks[loc.first], loc.second, remaps[loc.first]);
  return merged;
}

double BlockMesh::avg_faces_per_cell() const {
  return cells.empty() ? 0.0
                       : static_cast<double>(num_faces()) /
                             static_cast<double>(cells.size());
}

double BlockMesh::avg_verts_per_face() const {
  return num_faces() == 0 ? 0.0
                          : static_cast<double>(face_verts.size()) /
                                static_cast<double>(num_faces());
}

double BlockMesh::bytes_per_cell() const {
  if (cells.empty()) return 0.0;
  diy::Buffer buf;
  serialize(buf);
  return static_cast<double>(buf.size()) / static_cast<double>(cells.size());
}

void BlockMesh::serialize(diy::Buffer& buf) const {
  buf.write(bounds.min);
  buf.write(bounds.max);
  buf.write_vector(vertices);
  buf.write_vector(cells);
  buf.write_vector(face_offsets);
  buf.write_vector(face_verts);
  buf.write_vector(face_neighbors);
}

namespace {

[[noreturn]] void corrupt(const std::string& detail) {
  throw std::runtime_error("corrupt mesh block: " + detail);
}

/// Reject index data that would send a reader of `m` out of bounds.
void validate_indices(const BlockMesh& m) {
  const auto& offsets = m.face_offsets;
  if (offsets.empty() || offsets.front() != 0)
    corrupt("face_offsets must start at 0");
  for (std::size_t f = 1; f < offsets.size(); ++f)
    if (offsets[f] < offsets[f - 1])
      corrupt("face_offsets decrease at face " + std::to_string(f));
  if (offsets.back() != m.face_verts.size())
    corrupt("face_offsets end at " + std::to_string(offsets.back()) +
            ", face_verts has " + std::to_string(m.face_verts.size()));
  if (m.face_neighbors.size() != offsets.size() - 1)
    corrupt(std::to_string(m.face_neighbors.size()) + " face_neighbors for " +
            std::to_string(offsets.size() - 1) + " faces");
  for (std::size_t k = 0; k < m.face_verts.size(); ++k)
    if (m.face_verts[k] >= m.vertices.size())
      corrupt("face_verts[" + std::to_string(k) + "] = " +
              std::to_string(m.face_verts[k]) + " >= " +
              std::to_string(m.vertices.size()) + " vertices");
  const std::size_t nf = m.face_neighbors.size();
  for (std::size_t c = 0; c < m.cells.size(); ++c) {
    const auto& rec = m.cells[c];
    if (rec.first_face > nf || rec.num_faces > nf - rec.first_face)
      corrupt("cell " + std::to_string(c) + " faces [" +
              std::to_string(rec.first_face) + ", +" +
              std::to_string(rec.num_faces) + ") exceed " +
              std::to_string(nf) + " faces");
  }
}

}  // namespace

BlockMesh BlockMesh::deserialize(diy::BufferView buf) {
  BlockMesh m;
  m.bounds.min = buf.read<Vec3>();
  m.bounds.max = buf.read<Vec3>();
  m.vertices = buf.read_vector<Vec3>();
  m.cells = buf.read_vector<CellRecord>();
  m.face_offsets = buf.read_vector<std::uint32_t>();
  m.face_verts = buf.read_vector<std::uint32_t>();
  m.face_neighbors = buf.read_vector<std::int64_t>();
  validate_indices(m);
  return m;
}

diy::Bounds BlockMesh::peek_bounds(diy::BufferView buf) {
  diy::Bounds b;
  b.min = buf.read<Vec3>();
  b.max = buf.read<Vec3>();
  return b;
}

}  // namespace tess::core
