// Regenerates the paper's Table II (performance data): total / simulation /
// tessellation time with the tessellation broken into particle exchange,
// Voronoi computation, and output, plus the culled output size.
//
// Paper setup: particle counts 128^3-1024^3 on 128-16384 BG/P nodes with
// time-step counts 100/100/50/25, culling the smallest 10% of the volume
// range. Scaled here to 16^3-48^3 particles on 1-8 thread-ranks. Simulation
// and tessellation wall times are partly serialized when ranks outnumber
// the host's cores; the per-stage tessellation columns report the per-rank
// critical path (max over ranks), which models the distributed wall clock.
// Expected shape: tessellation is a few percent of total time, exchange is
// negligible, Voronoi computation dominates and scales with rank count.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "obs/obs.hpp"
#include "util/table.hpp"

using namespace tess;

namespace {

struct Size {
  int np;
  int ng;
  int steps;
};

double max_cell_volume(const std::vector<core::BlockMesh>& meshes) {
  double vmax = 0.0;
  for (const auto& m : meshes)
    for (const auto& c : m.cells) vmax = std::max(vmax, c.volume);
  return vmax;
}

}  // namespace

int main() {
  std::printf("== Table II: performance data (scaled-down protocol) ==\n");
  std::printf("paper: 128^3-1024^3 particles on 128-16384 BG/P nodes\n\n");

  // This bench always produces a machine-readable companion to the table:
  // per-phase span totals plus every registered metric, to
  // BENCH_table2.summary.jsonl (prefix overridable via TESS_OBS_EXPORT).
  // obs_begin also arms the flight recorder, so a hang dumps diagnostics.
  const std::string prefix = tess::bench::obs_begin("BENCH_table2");

  util::Table table({"Particles", "Steps", "Ranks", "Total(s)", "Sim(s)",
                     "TessTotal(s)", "Exchange(s)", "Voronoi(s)", "Output(s)",
                     "Output(MB)", "Cells"});

  const Size sizes[] = {{16, 16, 100}, {32, 32, 50}, {48, 64, 25}};
  for (const auto& size : sizes) {
    hacc::SimConfig sim;
    sim.np = size.np;
    sim.ng = size.ng;
    sim.nsteps = size.steps;
    sim.seed = 77;
    sim.sigma_grid = 5.0;

    // Untimed calibration pass: find the volume range so the timed runs can
    // cull the smallest 10% of it, as the paper does.
    double threshold = 0.0;
    {
      bench::InSituConfig cal;
      cal.sim = sim;
      cal.tess.ghost = 4.0 * sim.box() / sim.np;
      cal.gather_meshes = true;
      const auto r = bench::run_insitu(1, cal);
      threshold = 0.1 * max_cell_volume(r.meshes);
    }

    for (int ranks : {1, 2, 4, 8}) {
      bench::InSituConfig cfg;
      cfg.sim = sim;
      cfg.tess.ghost = 4.0 * sim.box() / sim.np;
      cfg.tess.min_volume = threshold;
      cfg.output_path = "/tmp/tess_table2_" + std::to_string(size.np) + "_" +
                        std::to_string(ranks) + ".bin";
      const auto r = bench::run_insitu(ranks, cfg);
      std::remove(cfg.output_path.c_str());

      const double tess_total = r.tess_critical_path();
      table.add_row(
          {std::to_string(size.np) + "^3", util::Table::cell(std::size_t(size.steps)),
           util::Table::cell(std::size_t(ranks)),
           util::Table::cell(r.sim_wall + tess_total, 2),
           util::Table::cell(r.sim_wall, 2), util::Table::cell(tess_total, 3),
           util::Table::cell(r.exchange_max, 3), util::Table::cell(r.voronoi_max, 3),
           util::Table::cell(r.output_max, 3),
           util::Table::cell(static_cast<double>(r.output_bytes) / 1e6, 2),
           util::Table::cell(static_cast<std::size_t>(r.cells_kept))});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper shape: tessellation is 1-10%% of total run time; exchange is\n"
              "negligible; the serial Voronoi computation dominates tessellation\n"
              "time but shrinks with rank count; output grows with problem size\n");

  bench::obs_export(prefix);
  std::printf("observability summary written to %s.summary.jsonl "
              "(trace: %s.trace.json)\n", prefix.c_str(), prefix.c_str());
  return 0;
}
