#include "core/block_mesh.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace tess::core {

namespace {

/// Mix of a quantized key; the table uses its high bits.
std::uint64_t weld_hash(std::int64_t x, std::int64_t y, std::int64_t z) {
  std::uint64_t h = static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(y) * 0xc2b2ae3d27d4eb4fULL;
  h ^= static_cast<std::uint64_t>(z) * 0x165667b19e3779f9ULL;
  h ^= h >> 29;
  return h * 0xbf58476d1ce4e5b9ULL;
}

constexpr std::size_t kMinWeldSlots = 64;

}  // namespace

std::size_t BlockMesh::weld_slot(std::int64_t x, std::int64_t y,
                                 std::int64_t z) const {
  const std::size_t mask = weld_slots_.size() - 1;
  std::size_t i =
      weld_hash(x, y, z) >> (64 - std::countr_zero(weld_slots_.size()));
  for (;; i = (i + 1) & mask) {
    const WeldSlot& s = weld_slots_[i];
    if (s.index == kUnwelded || (s.x == x && s.y == y && s.z == z)) return i;
  }
}

std::uint32_t BlockMesh::weld_vertex(const Vec3& v) {
  const std::int64_t x = std::llround(v.x / kWeldQuantum);
  const std::int64_t y = std::llround(v.y / kWeldQuantum);
  const std::int64_t z = std::llround(v.z / kWeldQuantum);
  if (2 * (weld_count_ + 1) > weld_slots_.size()) {
    // Double (keeping the load at most 1/2) and reinsert.
    const std::vector<WeldSlot> old = std::move(weld_slots_);
    weld_slots_.assign(std::max(kMinWeldSlots, 2 * old.size()),
                       WeldSlot{0, 0, 0, kUnwelded});
    for (const WeldSlot& s : old)
      if (s.index != kUnwelded) weld_slots_[weld_slot(s.x, s.y, s.z)] = s;
  }
  WeldSlot& slot = weld_slots_[weld_slot(x, y, z)];
  if (slot.index != kUnwelded) return slot.index;
  slot = {x, y, z, static_cast<std::uint32_t>(vertices.size())};
  vertices.push_back(v);
  ++weld_count_;
  return slot.index;
}

void BlockMesh::add_cell(std::int64_t site_id, const geom::VoronoiCell& cell,
                         double volume, double area) {
  CellRecord rec;
  rec.site_id = site_id;
  rec.site = cell.site();
  rec.volume = volume;
  rec.area = area;
  rec.first_face = static_cast<std::uint32_t>(num_faces());
  rec.num_faces = static_cast<std::uint32_t>(cell.faces().size());

  const auto& verts = cell.vertices();
  remap_.assign(verts.size(), kUnwelded);
  for (const auto& f : cell.faces()) {
    for (int v : f.verts) {
      auto& mapped = remap_[static_cast<std::size_t>(v)];
      if (mapped == kUnwelded)
        mapped = weld_vertex(verts[static_cast<std::size_t>(v)]);
      face_verts.push_back(mapped);
    }
    face_offsets.push_back(static_cast<std::uint32_t>(face_verts.size()));
    face_neighbors.push_back(f.source);
  }
  cells.push_back(rec);
}

void BlockMesh::append_faces(const BlockMesh& src, std::size_t first,
                             std::size_t count,
                             std::vector<std::uint32_t>& remap) {
  for (std::size_t f = first; f < first + count; ++f) {
    for (std::size_t i = src.face_offsets[f]; i < src.face_offsets[f + 1]; ++i) {
      auto& mapped = remap[src.face_verts[i]];
      if (mapped == kUnwelded) mapped = weld_vertex(src.vertices[src.face_verts[i]]);
      face_verts.push_back(mapped);
    }
    face_offsets.push_back(static_cast<std::uint32_t>(face_verts.size()));
    face_neighbors.push_back(src.face_neighbors[f]);
  }
}

void BlockMesh::append(const BlockMesh& other) {
  const auto face_base = static_cast<std::uint32_t>(num_faces());
  for (const auto& c : other.cells) {
    CellRecord rec = c;
    rec.first_face += face_base;
    cells.push_back(rec);
  }
  remap_.assign(other.vertices.size(), kUnwelded);
  append_faces(other, 0, other.num_faces(), remap_);
}

void BlockMesh::append_cell(const BlockMesh& src, std::size_t cell,
                            std::vector<std::uint32_t>& remap) {
  CellRecord rec = src.cells[cell];
  const std::size_t first = rec.first_face;
  rec.first_face = static_cast<std::uint32_t>(num_faces());
  append_faces(src, first, rec.num_faces, remap);
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
  for (std::size_t b = 0; b < blocks.size(); ++b)
    remaps[b].assign(blocks[b].vertices.size(), BlockMesh::kUnwelded);
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

template <typename Source>
BlockMesh deserialize_from(Source& buf) {
  BlockMesh m;
  m.bounds.min = buf.template read<Vec3>();
  m.bounds.max = buf.template read<Vec3>();
  m.vertices = buf.template read_vector<Vec3>();
  m.cells = buf.template read_vector<CellRecord>();
  m.face_offsets = buf.template read_vector<std::uint32_t>();
  m.face_verts = buf.template read_vector<std::uint32_t>();
  m.face_neighbors = buf.template read_vector<std::int64_t>();
  validate_indices(m);
  return m;
}

}  // namespace

BlockMesh BlockMesh::deserialize(diy::Buffer& buf) {
  return deserialize_from(buf);
}

BlockMesh BlockMesh::deserialize(diy::BufferView& buf) {
  return deserialize_from(buf);
}

diy::Bounds BlockMesh::peek_bounds(diy::BufferView buf) {
  diy::Bounds b;
  b.min = buf.read<Vec3>();
  b.max = buf.read<Vec3>();
  return b;
}

}  // namespace tess::core
