// Regenerates the paper's Figure 10: strong and weak scaling of the total
// tessellation time (including the parallel write).
//
// Paper setup: 128^3-1024^3 particles on 128-16384 BG/P nodes; strong
// scaling efficiency 30-41%, weak scaling efficiency 86%. Scaled here to
// 16^3-32^3 particles on 1-8 thread-ranks. Ranks can outnumber the host's
// cores, so the scaling metric is the per-rank critical path (max across
// ranks of exchange + Voronoi + output), which models distributed wall
// clock; the wall time is also printed for reference.
//
// Observability: this bench always records (prefix BENCH_fig10, overridable
// via TESS_OBS_EXPORT) and emits a per-rank load-imbalance report for the
// largest strong-scaling run — <prefix>.imbalance.md / .tsv — naming the
// slowest rank per phase (obs/analyze.hpp). TESS_BENCH_SMALL=1 shrinks the
// problem to the CI smoke configuration whose summary is diffed against the
// committed BENCH_fig10.json baseline by tools/obs_compare.
//
// --clustered runs only the adaptive-rebalance smoke (DESIGN.md §4.14):
// uniform grid vs mass-weighted k-d on a clustered snapshot, hard-gated on
// >=30% excess-imbalance reduction and merged-mesh byte identity, with its
// own BENCH_fig10_clustered.json obs_compare baseline.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/standalone.hpp"
#include "diy/blockio.hpp"
#include "diy/exchange.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace tess;

namespace {

bench::InSituResult tessellate_snapshot(int ranks,
                                        const std::vector<diy::Particle>& snap,
                                        double domain, double spacing) {
  core::TessOptions opt;
  opt.ghost = 4.0 * spacing;
  const std::string path = "/tmp/tess_fig10_" + std::to_string(ranks) + ".bin";
  auto r = bench::run_standalone(ranks, snap, domain, opt, path);
  std::remove(path.c_str());
  return r;
}

void remove_step_files(const std::string& pattern, int steps) {
  for (int s = 1; s <= steps; ++s) {
    const auto p = diy::step_path(pattern, s);
    std::remove(p.c_str());
  }
}

/// The in-situ loop: tessellate + write EVERY simulation step, serial vs
/// pipelined (core/pipeline.hpp). Same work in both modes; the pipelined
/// loop takes the tessellation and the write off the simulation thread.
void insitu_loop_section(bool small, bool run_serial, bool run_pipelined) {
  hacc::SimConfig sim;
  sim.np = sim.ng = small ? 16 : 32;
  sim.seed = 99;
  const int ranks = small ? 2 : 4;
  const int steps = small ? 5 : 10;
  core::TessOptions tess;
  tess.ghost = 4.0;

  util::Table table({"Mode", "Wall(s)", "Sim(s,cpu)", "Tess(s,cpu)",
                     "Write(s,cpu)", "Modeled wall", "Overlap x"});
  auto run_mode = [&](bool pipelined) {
    bench::InSituLoopConfig cfg;
    cfg.sim = sim;
    cfg.tess = tess;
    cfg.steps = steps;
    cfg.output_pattern =
        std::string("/tmp/tess_fig10_insitu_") +
        (pipelined ? "pipe" : "serial") + "_%d.bin";
    cfg.stats_path = std::string("/tmp/tess_fig10_insitu_") +
                     (pipelined ? "pipe" : "serial") + ".jsonl";
    std::remove(cfg.stats_path.c_str());
    cfg.pipelined = pipelined;
    const auto r = bench::run_insitu_loop(ranks, cfg);
    remove_step_files(cfg.output_pattern, steps);
    std::remove(cfg.stats_path.c_str());
    // Modeled wall on a shared-core host: serial pays the stage sum, the
    // pipeline pays only the slowest stage (plus hand-off, which the
    // pipeline.stall.* spans expose).
    const double modeled = pipelined ? r.stage_max() : r.stage_sum();
    table.add_row({pipelined ? "pipelined" : "serial",
                   util::Table::cell(r.wall, 3),
                   util::Table::cell(r.sim_cpu_max, 3),
                   util::Table::cell(r.tess_cpu_max, 3),
                   util::Table::cell(r.write_cpu_max, 3),
                   util::Table::cell(modeled, 3),
                   util::Table::cell(r.modeled_overlap_speedup(), 2)});
  };
  if (run_serial) run_mode(false);
  if (run_pipelined) run_mode(true);
  std::printf(
      "In-situ loop (np=%d^3, %d ranks, %d steps, tessellate+write every "
      "step):\n%s\n"
      "'Overlap x' = (sim+tess+write)/max(stage): the modeled speedup from\n"
      "overlapping the stages; wall equals the modeled number only when\n"
      "each stage has its own core (see EXPERIMENTS.md on the CPU-timer\n"
      "substitution). Spans pipeline.stage.* land on the stage-thread\n"
      "lanes, off the simulation thread's critical path.\n\n",
      sim.np, ranks, steps, table.render().c_str());
}

// ---------------------------------------------------------------------------
// --clustered: the adaptive-decomposition rebalance smoke (DESIGN.md §4.14).
// ---------------------------------------------------------------------------

/// Heavily clustered cloud: half the particles in one tight Gaussian blob,
/// a quarter in a second looser one, the rest uniform background — the
/// distribution a uniform grid decomposition is worst at.
std::vector<diy::Particle> clustered_cloud(int n, double domain) {
  util::Rng rng(777);
  const geom::Vec3 c1{0.30 * domain, 0.62 * domain, 0.40 * domain};
  const geom::Vec3 c2{0.72 * domain, 0.22 * domain, 0.66 * domain};
  std::vector<diy::Particle> ps;
  ps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    geom::Vec3 p;
    if (i % 2 == 0) {
      p = {c1.x + rng.normal(0.0, 0.05 * domain),
           c1.y + rng.normal(0.0, 0.05 * domain),
           c1.z + rng.normal(0.0, 0.05 * domain)};
    } else if (i % 4 == 1) {
      p = {c2.x + rng.normal(0.0, 0.08 * domain),
           c2.y + rng.normal(0.0, 0.08 * domain),
           c2.z + rng.normal(0.0, 0.08 * domain)};
    } else {
      p = {rng.uniform(0.0, domain), rng.uniform(0.0, domain),
           rng.uniform(0.0, domain)};
    }
    p.x = std::clamp(p.x, 0.0, domain * (1.0 - 1e-12));
    p.y = std::clamp(p.y, 0.0, domain * (1.0 - 1e-12));
    p.z = std::clamp(p.z, 0.0, domain * (1.0 - 1e-12));
    ps.push_back({p, i});
  }
  return ps;
}

struct ClusteredLeg {
  double particle_imbalance = 0.0;  ///< max/mean per-rank particle count
  double seconds_imbalance = 0.0;   ///< max/mean per-rank build seconds
  double tess_critical = 0.0;       ///< max per-rank compute seconds
  std::size_t max_particles = 0;
  std::vector<std::byte> merged;    ///< canonical merged mesh (rank 0)
};

ClusteredLeg run_clustered_leg(int nranks,
                               const std::vector<diy::Particle>& cloud,
                               double domain, bool kd, double ghost) {
  ClusteredLeg leg;
  comm::Runtime::run(nranks, [&](comm::Comm& c) {
    const geom::Vec3 lo{0, 0, 0};
    const geom::Vec3 hi{domain, domain, domain};
    std::vector<geom::Vec3> sites;
    if (kd) {
      sites.reserve(cloud.size());
      for (const auto& p : cloud) sites.push_back(p.pos);
    }
    const diy::Decomposition d =
        kd ? diy::Decomposition::kd(lo, hi, false, nranks, sites)
           : diy::Decomposition(lo, hi, diy::Decomposition::factor(nranks),
                                false);
    core::TessOptions opt;
    opt.ghost = ghost;
    opt.auto_ghost = true;
    opt.incremental = true;
    opt.threads = 1;
    core::Tessellator t(c, d, opt);
    const auto mine = diy::migrate_items(
        c, d, c.rank() == 0 ? cloud : std::vector<diy::Particle>{},
        [](diy::Particle& p) -> geom::Vec3& { return p.pos; });
    const auto mesh = t.tessellate(mine);
    const auto counts =
        c.allgather(static_cast<double>(mine.size()));
    const auto seconds = c.allgather(t.stats().compute_seconds);
    auto merged = core::merged_mesh_bytes(c, mesh);
    if (c.rank() == 0) {
      leg.particle_imbalance = obs::imbalance_factor(counts);
      leg.seconds_imbalance = obs::imbalance_factor(seconds);
      leg.tess_critical = *std::max_element(seconds.begin(), seconds.end());
      leg.max_particles = static_cast<std::size_t>(
          *std::max_element(counts.begin(), counts.end()));
      leg.merged = std::move(merged);
    }
  });
  return leg;
}

/// Uniform grid vs mass-weighted k-d on the same clustered snapshot:
/// reports both imbalance factors, asserts the k-d merged mesh is
/// byte-identical to the grid's (the §4.14 invariance guarantee), and
/// asserts the particle-count imbalance dropped at least 30% toward 1.0 —
/// the CI gate for the rebalancing loop. The post-balance factor is also
/// recorded as histogram tess.clustered.imbalance.milli (particle counts
/// are deterministic, so the p99 obs_compare gates is stable).
int clustered_section(bool small) {
  const int nranks = 4;
  const int np = small ? 20 : 64;
  const int n = np * np * np;
  const double domain = 6.0;
  const double ghost = 2.0 * domain / np;
  const auto cloud = clustered_cloud(n, domain);

  std::printf("== Clustered rebalance smoke (np=%d^3, %d ranks) ==\n\n", np,
              nranks);
  const auto grid = run_clustered_leg(nranks, cloud, domain, false, ghost);
  const auto tree = run_clustered_leg(nranks, cloud, domain, true, ghost);

  util::Table table({"Decomposition", "Max particles/rank",
                     "Imbalance(particles)", "Imbalance(build s)",
                     "Tess(s,critical)"});
  table.add_row({"uniform grid", util::Table::cell(grid.max_particles),
                 util::Table::cell(grid.particle_imbalance, 3),
                 util::Table::cell(grid.seconds_imbalance, 3),
                 util::Table::cell(grid.tess_critical, 3)});
  table.add_row({"mass-weighted k-d", util::Table::cell(tree.max_particles),
                 util::Table::cell(tree.particle_imbalance, 3),
                 util::Table::cell(tree.seconds_imbalance, 3),
                 util::Table::cell(tree.tess_critical, 3)});
  std::printf("%s\n", table.render().c_str());

  // Excess imbalance (factor - 1) removed by the k-d split.
  const double excess = grid.particle_imbalance - 1.0;
  const double removed = grid.particle_imbalance - tree.particle_imbalance;
  const double reduction = excess > 0.0 ? removed / excess : 1.0;
  std::printf("imbalance reduction toward 1.0: %.0f%% (gate: >= 30%%)\n",
              100.0 * reduction);

  TESS_HIST_ADD("tess.clustered.imbalance.milli",
                tree.particle_imbalance * 1000.0);
  TESS_HIST_ADD("tess.clustered.imbalance.grid.milli",
                grid.particle_imbalance * 1000.0);

  int failures = 0;
  if (tree.merged != grid.merged) {
    std::fprintf(stderr,
                 "FAIL: merged mesh bytes differ between grid and k-d "
                 "decompositions (%zu vs %zu bytes)\n",
                 grid.merged.size(), tree.merged.size());
    ++failures;
  } else {
    std::printf("merged mesh: byte-identical across decompositions "
                "(%zu bytes)\n", grid.merged.size());
  }
  if (reduction < 0.30) {
    std::fprintf(stderr,
                 "FAIL: k-d split removed only %.0f%% of the excess "
                 "imbalance (%.3f -> %.3f), need >= 30%%\n",
                 100.0 * reduction, grid.particle_imbalance,
                 tree.particle_imbalance);
    ++failures;
  }
  std::printf("\n");
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  // --insitu {serial|pipelined|both|off}: restrict the in-situ loop modes.
  // --clustered: run only the adaptive-rebalance smoke (grid vs k-d on a
  // clustered cloud) and exit nonzero if the gate fails.
  std::string insitu_mode = "both";
  bool clustered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--insitu") == 0 && i + 1 < argc)
      insitu_mode = argv[++i];
    else if (std::strcmp(argv[i], "--clustered") == 0)
      clustered = true;
  }
  const char* small_env = std::getenv("TESS_BENCH_SMALL");
  const bool small = small_env != nullptr && *small_env != '\0' &&
                     *small_env != '0';
  if (clustered) {
    const std::string prefix = bench::obs_begin("BENCH_fig10_clustered");
    const int failures = clustered_section(small);
    bench::obs_export(prefix);
    std::printf("observability: %s.summary.{json,tsv}, %s.trace.json\n",
                prefix.c_str(), prefix.c_str());
    return failures == 0 ? 0 : 1;
  }
  const std::string prefix = bench::obs_begin("BENCH_fig10");

  std::printf("== Figure 10: strong and weak scaling of tessellation time ==%s\n\n",
              small ? " [small/CI config]" : "");

  // ---- Strong scaling: fixed problem, rank count doubles. ----
  hacc::SimConfig sim;
  sim.np = sim.ng = small ? 16 : 32;
  sim.nsteps = small ? 10 : 50;
  sim.seed = 99;
  const auto snapshot = bench::evolve_snapshot(sim, sim.nsteps);
  const std::vector<int> strong_ranks =
      small ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

  util::Table strong({"Ranks", "Tess(s,critical)", "Tess(s,wall)", "Speedup",
                      "Efficiency%"});
  double t1 = 0.0;
  std::string imbalance_md;
  for (const int ranks : strong_ranks) {
    const bool widest = ranks == strong_ranks.back();
    // The imbalance report should cover exactly the widest run: start it
    // from a clean trace and snapshot (without reset) right after, so the
    // final export still contains this run plus the weak-scaling runs.
    if (widest) obs::Tracer::instance().clear();
    const auto r = tessellate_snapshot(ranks, snapshot, sim.box(), 1.0);
    if (widest) {
      const auto dump = obs::Tracer::instance().drain(false);
      const auto report = obs::analyze_imbalance(dump);
      imbalance_md = obs::imbalance_markdown(report);
      obs::write_text_file(prefix + ".imbalance.md", imbalance_md);
      obs::write_text_file(prefix + ".imbalance.tsv",
                           obs::imbalance_tsv(report));
    }
    const double t = r.tess_critical_path();
    if (ranks == 1) t1 = t;
    const double speedup = t1 / t;
    strong.add_row({util::Table::cell(std::size_t(ranks)), util::Table::cell(t, 3),
                    util::Table::cell(r.tess_wall, 3),
                    util::Table::cell(speedup, 2),
                    util::Table::cell(100.0 * speedup / ranks, 1)});
  }
  std::printf("Strong scaling (np=%d^3, includes write):\n%s\n", sim.np,
              strong.render().c_str());

  // ---- Weak scaling: fixed particle count per rank. ----
  util::Table weak({"Ranks", "Particles", "Tess(s,critical)", "us/particle",
                    "Efficiency%"});
  // np^3/ranks ~ 4096 each (full) / ~1024 each (small).
  const std::vector<int> np_per_rank =
      small ? std::vector<int>{10, 13, 16} : std::vector<int>{16, 20, 26, 32};
  const std::vector<int> rank_counts =
      small ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  double us1 = 0.0;
  for (std::size_t i = 0; i < rank_counts.size(); ++i) {
    hacc::SimConfig wsim;
    wsim.np = np_per_rank[i];
    // Mesh: next power of two >= np.
    int ng = 1;
    while (ng < wsim.np) ng *= 2;
    wsim.ng = ng;
    wsim.nsteps = small ? 10 : 30;
    wsim.seed = 99;
    const auto snap = bench::evolve_snapshot(wsim, wsim.nsteps);
    const double spacing = wsim.box() / wsim.np;
    const auto r = tessellate_snapshot(rank_counts[i], snap, wsim.box(), spacing);
    const double n = std::pow(static_cast<double>(wsim.np), 3);
    const double us = r.tess_critical_path() / n * 1e6;
    if (i == 0) us1 = us;
    // Time normalized per (total) particle slopes downward ~1/p when weak
    // scaling is perfect (the paper's Fig. 10 right panel presentation);
    // efficiency compares against that ideal slope.
    weak.add_row({util::Table::cell(std::size_t(rank_counts[i])),
                  std::to_string(wsim.np) + "^3",
                  util::Table::cell(r.tess_critical_path(), 3),
                  util::Table::cell(us, 2),
                  util::Table::cell(100.0 * us1 / (us * rank_counts[i]), 1)});
  }
  std::printf("Weak scaling (~%d particles/rank, includes write):\n%s\n",
              small ? 1024 : 4096, weak.render().c_str());
  std::printf("paper reference: strong scaling efficiency 30-41%%, weak scaling\n"
              "efficiency ~86%%; the serial Voronoi computation dominates and\n"
              "scales well, I/O begins to wane at the largest configurations\n\n");

  // ---- In-situ loop: tessellate + write every step, serial vs pipelined. ----
  if (insitu_mode != "off")
    insitu_loop_section(small, insitu_mode == "both" || insitu_mode == "serial",
                        insitu_mode == "both" || insitu_mode == "pipelined");

  std::printf("%s\n", imbalance_md.c_str());
  bench::obs_export(prefix);
  std::printf("observability: %s.summary.{json,tsv}, %s.trace.json, "
              "%s.imbalance.{md,tsv}\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str());
  return 0;
}
