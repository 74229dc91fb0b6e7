#include "core/annotated_checkpoint.hpp"

#include <unordered_map>

#include "diy/blockio.hpp"

namespace tess::core {

std::vector<AnnotatedParticle> annotate_particles(
    const std::vector<diy::Particle>& particles, const BlockMesh& mesh) {
  std::unordered_map<std::int64_t, double> volume_of;
  volume_of.reserve(mesh.cells.size());
  for (const auto& c : mesh.cells) volume_of.emplace(c.site_id, c.volume);

  std::vector<AnnotatedParticle> out;
  out.reserve(particles.size());
  for (const auto& p : particles) {
    AnnotatedParticle a;
    a.pos = p.pos;
    a.id = p.id;
    const auto it = volume_of.find(p.id);
    a.cell_volume = it != volume_of.end() ? it->second : 0.0;
    out.push_back(a);
  }
  return out;
}

std::uint64_t write_annotated_checkpoint(
    comm::Comm& comm, const std::string& path,
    const std::vector<AnnotatedParticle>& particles) {
  diy::Buffer buf;
  buf.write_vector(particles);
  return diy::write_blocks(comm, path, buf);
}

std::vector<AnnotatedParticle> read_annotated_checkpoint(const std::string& path,
                                                         int block) {
  const diy::BlockFileReader reader(path);
  return reader.block_view(block).read_vector<AnnotatedParticle>();
}

}  // namespace tess::core
