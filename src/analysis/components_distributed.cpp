#include "analysis/components_distributed.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "util/union_find.hpp"

namespace tess::analysis {

namespace {

constexpr int kTagPairs = 310;
constexpr int kTagRoots = 311;
constexpr int kTagFinal = 312;

struct SitePair {
  std::int64_t a, b;
};

struct RootInfo {
  std::int64_t root_site;
  std::int64_t site;       // a member site mapping to this root (for merges)
  double volume;           // summed only on the record where site == root
  std::int64_t num_cells;  // likewise
};

}  // namespace

DistributedLabels distributed_components(comm::Comm& comm,
                                         const core::BlockMesh& mesh) {
  // ---- 1. Local union-find over this block's cells. ----
  std::unordered_map<std::int64_t, std::size_t> local_index;
  util::UnionFind uf;
  for (const auto& c : mesh.cells) {
    local_index.emplace(c.site_id, uf.add());
  }
  std::vector<SitePair> boundary_pairs;
  std::vector<char> is_boundary(mesh.cells.size(), 0);
  for (std::size_t i = 0; i < mesh.cells.size(); ++i) {
    const auto& c = mesh.cells[i];
    for (std::uint32_t f = c.first_face; f < c.first_face + c.num_faces; ++f) {
      const auto nb = mesh.face_neighbors[f];
      if (nb < 0) continue;
      const auto it = local_index.find(nb);
      if (it != local_index.end()) {
        uf.unite(local_index.at(c.site_id), it->second);
      } else {
        boundary_pairs.push_back({c.site_id, nb});
        is_boundary[i] = 1;
      }
    }
  }

  // Local roots: smallest site id per local set, plus partial stats.
  std::vector<std::int64_t> local_root(mesh.cells.size());
  std::unordered_map<std::size_t, std::int64_t> root_site_of;  // uf root -> site
  for (std::size_t i = 0; i < mesh.cells.size(); ++i) {
    const auto r = uf.find(local_index.at(mesh.cells[i].site_id));
    auto [it, inserted] = root_site_of.emplace(r, mesh.cells[i].site_id);
    if (!inserted && mesh.cells[i].site_id < it->second)
      it->second = mesh.cells[i].site_id;
  }
  std::unordered_map<std::int64_t, std::pair<double, std::int64_t>> local_stats;
  for (std::size_t i = 0; i < mesh.cells.size(); ++i) {
    const auto r = uf.find(local_index.at(mesh.cells[i].site_id));
    local_root[i] = root_site_of.at(r);
    auto& s = local_stats[local_root[i]];
    s.first += mesh.cells[i].volume;
    s.second += 1;
  }

  // ---- 2. Ship boundary info + per-root records to rank 0. ----
  std::vector<RootInfo> records;
  for (const auto& [root, stats] : local_stats)
    records.push_back({root, root, stats.first, stats.second});
  // Boundary cells: remote ranks refer to them by *site* id, so rank 0
  // needs site -> local-root entries for them (zero-stat records).
  for (std::size_t i = 0; i < mesh.cells.size(); ++i)
    if (is_boundary[i] && mesh.cells[i].site_id != local_root[i])
      records.push_back({local_root[i], mesh.cells[i].site_id, 0.0, 0});

  auto all_pairs = comm.gatherv(boundary_pairs);
  auto all_records = comm.gatherv(records);

  // ---- 3. Rank 0 merges across blocks. ----
  std::vector<std::int64_t> final_entries;  // flattened (root, label) pairs
  std::vector<Component> components;
  if (comm.rank() == 0) {
    std::unordered_map<std::int64_t, std::size_t> idx;  // root site -> uf slot
    util::UnionFind guf;
    auto slot_of = [&](std::int64_t root) {
      auto [it, inserted] = idx.emplace(root, 0);
      if (inserted) it->second = guf.add();
      return it->second;
    };
    std::unordered_map<std::int64_t, std::int64_t> root_of_site;
    for (const auto& rec : all_records) {
      slot_of(rec.root_site);
      root_of_site[rec.site] = rec.root_site;
    }
    for (const auto& pr : all_pairs) {
      // pr.a is a root-owner's member site; pr.b is a remote site. Either
      // may be absent (culled on its owner) — then the edge is void.
      const auto ia = root_of_site.find(pr.a);
      const auto ib = root_of_site.find(pr.b);
      if (ia == root_of_site.end() || ib == root_of_site.end()) continue;
      guf.unite(slot_of(ia->second), slot_of(ib->second));
    }

    // Final label per root = smallest root site in the merged set.
    std::unordered_map<std::size_t, std::int64_t> label_of_slot;
    for (const auto& [root, slot] : idx) {
      (void)slot;
      const auto s = guf.find(idx.at(root));
      auto [it, inserted] = label_of_slot.emplace(s, root);
      if (!inserted && root < it->second) it->second = root;
    }
    std::unordered_map<std::int64_t, Component> comp_of_label;
    for (const auto& rec : all_records) {
      if (rec.num_cells == 0 && rec.volume == 0.0 && rec.site != rec.root_site)
        continue;  // pure alias record
      const auto label = label_of_slot.at(guf.find(idx.at(rec.root_site)));
      auto& comp = comp_of_label[label];
      comp.label = label;
      comp.volume += rec.volume;
      comp.num_cells += static_cast<std::size_t>(rec.num_cells);
    }
    for (const auto& [root, slot] : idx) {
      final_entries.push_back(root);
      final_entries.push_back(label_of_slot.at(guf.find(slot)));
    }
    for (const auto& [label, comp] : comp_of_label) {
      (void)label;
      components.push_back(comp);
    }
    std::sort(components.begin(), components.end(),
              [](const Component& a, const Component& b) {
                return a.volume > b.volume;
              });
  }

  // ---- 4. Broadcast the relabeling and apply locally. ----
  comm.broadcast(final_entries, 0);
  std::unordered_map<std::int64_t, std::int64_t> final_label;
  for (std::size_t i = 0; i + 1 < final_entries.size(); i += 2)
    final_label[final_entries[i]] = final_entries[i + 1];

  // Broadcast component list (as flat triples: label, volume-bits, count).
  std::vector<std::int64_t> comp_flat;
  if (comm.rank() == 0) {
    for (const auto& c : components) {
      comp_flat.push_back(c.label);
      std::int64_t vol_bits;
      static_assert(sizeof(double) == sizeof(std::int64_t));
      std::memcpy(&vol_bits, &c.volume, sizeof(double));
      comp_flat.push_back(vol_bits);
      comp_flat.push_back(static_cast<std::int64_t>(c.num_cells));
    }
  }
  comm.broadcast(comp_flat, 0);
  if (comm.rank() != 0) {
    components.clear();
    for (std::size_t i = 0; i + 2 < comp_flat.size() + 1; i += 3) {
      Component c;
      c.label = comp_flat[i];
      std::memcpy(&c.volume, &comp_flat[i + 1], sizeof(double));
      c.num_cells = static_cast<std::size_t>(comp_flat[i + 2]);
      components.push_back(c);
    }
  }

  DistributedLabels out;
  out.components = std::move(components);
  out.cell_labels.resize(mesh.cells.size());
  for (std::size_t i = 0; i < mesh.cells.size(); ++i) {
    const auto it = final_label.find(local_root[i]);
    out.cell_labels[i] = it != final_label.end() ? it->second : local_root[i];
  }
  return out;
}

}  // namespace tess::analysis
