#include "core/standalone.hpp"

#include "diy/exchange.hpp"

namespace tess::core {

BlockMesh standalone_tessellate(comm::Comm& comm, const diy::Decomposition& decomp,
                                std::vector<diy::Particle> particles,
                                const TessOptions& options, TessStats* stats) {
  auto mine = diy::migrate_items(
      comm, decomp, std::move(particles),
      [](diy::Particle& p) -> geom::Vec3& { return p.pos; });
  Tessellator t(comm, decomp, options);
  auto mesh = t.tessellate(mine);
  if (stats) *stats = t.stats();
  return mesh;
}

std::vector<BlockMesh> gather_meshes(comm::Comm& comm, const BlockMesh& mesh) {
  diy::Buffer buf;
  mesh.serialize(buf);
  // Gather serialized sizes, then bytes, preserving rank order.
  const auto bytes = comm.gatherv(buf.data());
  const auto sizes = comm.gather<std::uint64_t>(buf.size(), 0);
  std::vector<BlockMesh> all;
  if (comm.rank() == 0) {
    // Each rank's slice is read in place.
    std::size_t off = 0;
    for (auto s : sizes) {
      const auto len = static_cast<std::size_t>(s);
      all.push_back(BlockMesh::deserialize({bytes.data() + off, len}));
      off += len;
    }
  }
  return all;
}

std::vector<std::byte> merged_mesh_bytes(comm::Comm& comm,
                                         const BlockMesh& mesh) {
  const auto all = gather_meshes(comm, mesh);
  if (comm.rank() != 0) return {};
  diy::Buffer buf;
  canonical_merge(all).serialize(buf);
  return buf.data();
}

}  // namespace tess::core
