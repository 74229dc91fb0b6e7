#include "analysis/components.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace tess::analysis {

std::size_t ConnectedComponents::find(std::size_t i) const {
  while (parent_[i] != i) {
    parent_[i] = parent_[parent_[i]];  // path halving
    i = parent_[i];
  }
  return i;
}

ConnectedComponents::ConnectedComponents(const std::vector<core::BlockMesh>& blocks) {
  std::vector<const core::BlockMesh*> ptrs;
  ptrs.reserve(blocks.size());
  for (const auto& mesh : blocks) ptrs.push_back(&mesh);
  build(ptrs, nullptr);
}

ConnectedComponents::ConnectedComponents(
    const std::vector<const core::BlockMesh*>& blocks) {
  build(blocks, nullptr);
}

ConnectedComponents::ConnectedComponents(
    const std::vector<const core::BlockMesh*>& blocks,
    const std::vector<std::vector<std::size_t>>& kept) {
  if (kept.size() != blocks.size())
    throw std::invalid_argument("ConnectedComponents: one kept list per block");
  build(blocks, &kept);
}

void ConnectedComponents::build(
    const std::vector<const core::BlockMesh*>& blocks,
    const std::vector<std::vector<std::size_t>>* kept) {
  TESS_SPAN("analysis.components");
  // Visits the present cells, block by block.
  const auto for_each_cell = [&](auto&& fn) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto& mesh = *blocks[b];
      if (kept == nullptr)
        for (const auto& c : mesh.cells) fn(mesh, c);
      else
        for (const auto i : (*kept)[b]) fn(mesh, mesh.cells[i]);
    }
  };

  // Index the present cells.
  std::vector<double> volume;
  for_each_cell([&](const core::BlockMesh&, const core::CellRecord& c) {
    if (index_of_site_.contains(c.site_id)) return;  // defensive dedup
    index_of_site_.emplace(c.site_id, site_of_index_.size());
    site_of_index_.push_back(c.site_id);
    volume.push_back(c.volume);
  });
  parent_.resize(site_of_index_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i) parent_[i] = i;

  // Union across shared faces.
  auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[b] = a;
  };
  for_each_cell([&](const core::BlockMesh& mesh, const core::CellRecord& c) {
    const auto me = index_of_site_.at(c.site_id);
    for (std::uint32_t f = c.first_face; f < c.first_face + c.num_faces; ++f) {
      const auto nb = mesh.face_neighbors[f];
      if (nb < 0) continue;
      const auto it = index_of_site_.find(nb);
      if (it != index_of_site_.end()) unite(me, it->second);
    }
  });

  // Collate components; label = smallest site id in the set.
  std::unordered_map<std::size_t, std::size_t> comp_index;  // root -> slot
  label_.assign(site_of_index_.size(), -1);
  for (std::size_t i = 0; i < site_of_index_.size(); ++i) {
    const auto root = find(i);
    auto [it, inserted] = comp_index.emplace(root, components_.size());
    if (inserted) components_.push_back(Component{});
    auto& comp = components_[it->second];
    ++comp.num_cells;
    comp.volume += volume[i];
    if (comp.label < 0 || site_of_index_[i] < comp.label)
      comp.label = site_of_index_[i];
  }
  // Re-run to assign per-cell labels (component labels are now final).
  std::unordered_map<std::size_t, std::int64_t> root_label;
  for (const auto& [root, slot] : comp_index)
    root_label[root] = components_[slot].label;
  for (std::size_t i = 0; i < site_of_index_.size(); ++i)
    label_[i] = root_label.at(find(i));

  std::sort(components_.begin(), components_.end(),
            [](const Component& a, const Component& b) { return a.volume > b.volume; });
}

std::int64_t ConnectedComponents::label_of(std::int64_t site_id) const {
  const auto it = index_of_site_.find(site_id);
  return it == index_of_site_.end() ? -1 : label_[it->second];
}

std::vector<std::array<std::int64_t, 2>> ConnectedComponents::labeled_sites() const {
  std::vector<std::array<std::int64_t, 2>> out;
  out.reserve(site_of_index_.size());
  for (std::size_t i = 0; i < site_of_index_.size(); ++i)
    out.push_back({site_of_index_[i], label_[i]});
  return out;
}

std::vector<std::int64_t> ConnectedComponents::sites_of(std::int64_t label) const {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < site_of_index_.size(); ++i)
    if (label_[i] == label) out.push_back(site_of_index_[i]);
  return out;
}

}  // namespace tess::analysis
