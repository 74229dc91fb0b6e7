// Ablation benches for the design choices called out in DESIGN.md:
//  * early conservative volume culling on/off (paper §III-C),
//  * ghost size vs exchange volume vs accuracy (the tradeoff the paper
//    flags as future work in §IV-A).
#include <cstdio>
#include <map>

#include "common.hpp"
#include "util/table.hpp"

using namespace tess;

int main() {
  tess::bench::obs_begin_from_env();
  std::printf("== Ablation studies ==\n\n");

  hacc::SimConfig sim;
  sim.np = sim.ng = 32;
  sim.nsteps = 50;
  sim.sigma_grid = 5.0;  // strongly clustered: the regime where culling matters
  sim.seed = 31;
  const auto snapshot = bench::evolve_snapshot(sim, sim.nsteps);
  const double domain = sim.box();

  // ---- Early culling on/off (with a 10%-of-range threshold). ----
  double vmax = 0.0;
  {
    core::TessOptions probe;
    probe.ghost = 4.0;
    auto r = bench::run_standalone(1, snapshot, domain, probe, "", true);
    for (const auto& m : r.meshes)
      for (const auto& c : m.cells) vmax = std::max(vmax, c.volume);
  }
  util::Table early({"EarlyCull", "Voronoi(s)", "CellsKept", "CulledEarly+Exact"});
  for (bool on : {true, false}) {
    core::TessOptions opt;
    opt.ghost = 4.0;
    opt.min_volume = 0.1 * vmax;
    opt.early_cull = on;
    const auto r = bench::run_standalone(4, snapshot, domain, opt);
    early.add_row({on ? "on" : "off", util::Table::cell(r.voronoi_max, 3),
                   util::Table::cell(static_cast<std::size_t>(r.cells_kept)),
                   util::Table::cell(static_cast<std::size_t>(r.cells_culled))});
  }
  std::printf("Early conservative volume culling:\n%s\n", early.render().c_str());

  // ---- Ghost size vs exchange volume vs completeness. ----
  util::Table ghost({"Ghost", "Exchange(s)", "GhostParticles", "CellsKept",
                     "Incomplete"});
  for (double g : {1.0, 2.0, 3.0, 4.0, 6.0}) {
    core::TessOptions opt;
    opt.ghost = g;
    const auto r = bench::run_standalone(8, snapshot, domain, opt);
    ghost.add_row({util::Table::cell(g, 0), util::Table::cell(r.exchange_max, 4),
                   util::Table::cell(static_cast<std::size_t>(r.ghost_exchanged)),
                   util::Table::cell(static_cast<std::size_t>(r.cells_kept)),
                   util::Table::cell(static_cast<std::size_t>(r.cells_incomplete))});
  }
  std::printf("Ghost size vs exchange volume vs completeness (8 ranks):\n%s\n",
              ghost.render().c_str());
  std::printf("expected: early culling reduces Voronoi time at identical output;\n"
              "larger ghosts exchange more particles but eliminate incomplete\n"
              "cells\n");
  tess::bench::obs_export_from_env();
  return 0;
}
