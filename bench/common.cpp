#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "analysis/insitu_stats.hpp"
#include "core/pipeline.hpp"
#include "diy/blockio.hpp"
#include "obs/obs.hpp"

namespace tess::bench {

namespace {

const char* obs_export_prefix() { return std::getenv("TESS_OBS_EXPORT"); }

}  // namespace

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

void warn_if_debug_build() {
#ifndef NDEBUG
  static std::once_flag warned;
  std::call_once(warned, [] {
    std::fprintf(
        stderr,
        "\n"
        "========================================================================\n"
        "  WARNING: this benchmark binary is a DEBUG build (NDEBUG not set).\n"
        "  Its numbers are NOT comparable to release builds and MUST NOT be\n"
        "  committed as a perf baseline. Rebuild with -DCMAKE_BUILD_TYPE=Release\n"
        "  before recording BENCH_*.json files; tools/obs_compare flags any\n"
        "  summary whose tess_build_type context says \"debug\".\n"
        "========================================================================\n"
        "\n");
  });
#endif
}

bool obs_begin_from_env() {
  warn_if_debug_build();
  const char* prefix = obs_export_prefix();
  if (prefix == nullptr || *prefix == '\0') return false;
  obs_begin(prefix);
  return true;
}

std::string obs_begin(const std::string& default_prefix) {
  warn_if_debug_build();
  obs::Tracer::instance().set_enabled(true);
  obs::Tracer::instance().clear();
  obs::metrics().reset();
  const char* env = obs_export_prefix();
  const std::string prefix =
      env != nullptr && *env != '\0' ? env : default_prefix;
  obs::FlightConfig flight;
  flight.path_prefix = prefix;
  flight.stall_ms = 60000;
  if (const char* stall = std::getenv("TESS_FLIGHT_STALL_MS"))
    if (const long v = std::atol(stall); v > 0)
      flight.stall_ms = static_cast<std::uint64_t>(v);
  obs::FlightRecorder::instance().arm(std::move(flight));
  return prefix;
}

void obs_export_from_env() {
  const char* prefix = obs_export_prefix();
  if (prefix == nullptr || *prefix == '\0') return;
  obs_export(prefix);
}

void obs_export(const std::string& prefix) {
  const auto trace = obs::Tracer::instance().drain();
  const auto snap = obs::metrics().snapshot();
  obs::write_chrome_trace(prefix + ".trace.json", trace);
  obs::write_summary(prefix + ".summary.jsonl", trace, snap);
}

InSituResult run_insitu(int nranks, const InSituConfig& cfg) {
  InSituResult result;
  std::mutex m;
  const int tess_at = cfg.tess_at_step < 0 ? cfg.sim.nsteps : cfg.tess_at_step;

  comm::Runtime::run(nranks, [&](comm::Comm& c) {
    util::Timer sim_timer, tess_timer;
    sim_timer.start();
    hacc::Simulation sim(c, cfg.sim);
    sim.run_until(tess_at);
    c.barrier();
    sim_timer.stop();

    tess_timer.start();
    core::Tessellator t(c, sim.decomposition(), cfg.tess);
    auto mesh = t.tessellate(sim.local_tess_particles());
    if (!cfg.output_path.empty()) t.write(cfg.output_path, mesh);
    c.barrier();
    tess_timer.stop();

    const auto stats = t.reduced_stats();
    auto meshes = cfg.gather_meshes ? core::gather_meshes(c, mesh)
                                    : std::vector<core::BlockMesh>{};
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lock(m);
      result.sim_wall = sim_timer.seconds();
      result.tess_wall = tess_timer.seconds();
      result.exchange_max = stats.exchange_seconds;
      result.voronoi_max = stats.compute_seconds;
      result.output_max = stats.output_seconds;
      result.cells_kept = static_cast<long long>(stats.cells_kept);
      result.cells_incomplete = static_cast<long long>(stats.cells_incomplete);
      result.cells_culled = static_cast<long long>(stats.cells_culled_early +
                                                   stats.cells_culled_volume);
      result.ghost_exchanged = static_cast<long long>(stats.ghost_received);
      result.output_bytes = stats.output_bytes;
      result.traffic_bytes = c.traffic_bytes();
      result.meshes = std::move(meshes);
    }
  });
  return result;
}

InSituResult run_standalone(int nranks, const std::vector<diy::Particle>& particles,
                            double domain, const core::TessOptions& options,
                            const std::string& output_path, bool gather_meshes) {
  InSituResult result;
  std::mutex m;
  comm::Runtime::run(nranks, [&](comm::Comm& c) {
    diy::Decomposition d({0, 0, 0}, {domain, domain, domain},
                         diy::Decomposition::factor(nranks), true);
    auto mine = diy::migrate_items(
        c, d, c.rank() == 0 ? particles : std::vector<diy::Particle>{},
        [](diy::Particle& p) -> geom::Vec3& { return p.pos; });
    c.barrier();

    util::Timer tess_timer;
    tess_timer.start();
    core::Tessellator t(c, d, options);
    auto mesh = t.tessellate(mine);
    if (!output_path.empty()) t.write(output_path, mesh);
    c.barrier();
    tess_timer.stop();

    const auto stats = t.reduced_stats();
    auto meshes = gather_meshes ? core::gather_meshes(c, mesh)
                                : std::vector<core::BlockMesh>{};
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lock(m);
      result.tess_wall = tess_timer.seconds();
      result.exchange_max = stats.exchange_seconds;
      result.voronoi_max = stats.compute_seconds;
      result.output_max = stats.output_seconds;
      result.cells_kept = static_cast<long long>(stats.cells_kept);
      result.cells_incomplete = static_cast<long long>(stats.cells_incomplete);
      result.cells_culled = static_cast<long long>(stats.cells_culled_early +
                                                   stats.cells_culled_volume);
      result.ghost_exchanged = static_cast<long long>(stats.ghost_received);
      result.output_bytes = stats.output_bytes;
      result.traffic_bytes = c.traffic_bytes();
      result.meshes = std::move(meshes);
    }
  });
  return result;
}

InSituLoopResult run_insitu_loop(int nranks, const InSituLoopConfig& cfg) {
  InSituLoopResult result;
  std::mutex m;
  const auto hook = analysis::make_stats_streamer(0.0, 8.0, 32);

  comm::Runtime::run(nranks, [&](comm::Comm& c) {
    hacc::Simulation sim(c, cfg.sim);
    c.barrier();
    util::Timer wall;
    wall.start();
    util::ThreadCpuTimer sim_cpu;
    double tess_cpu = 0.0, write_cpu = 0.0;
    std::uint64_t bytes = 0;

    if (cfg.pipelined) {
      core::PipelineOptions opt;
      opt.tess = cfg.tess;
      opt.output_pattern = cfg.output_pattern;
      opt.queue_depth = cfg.queue_depth;
      opt.on_step = [&hook](comm::Comm& wc,
                            const core::PipelineStepResult& r) {
        hook(wc, r.step, r.cell_volumes);
      };
      core::InSituPipeline pipe(c, sim.decomposition(), opt);
      for (int s = 0; s < cfg.steps; ++s) {
        sim_cpu.start();
        sim.step();
        sim_cpu.stop();
        pipe.submit(sim.step_index(), sim.local_tess_particles());
      }
      for (const auto& r : pipe.finish()) {
        tess_cpu += r.stats.exchange_seconds + r.stats.compute_seconds;
        write_cpu += r.write_seconds;
        bytes += r.file_bytes;
      }
    } else {
      core::Tessellator t(c, sim.decomposition(), cfg.tess);
      for (int s = 0; s < cfg.steps; ++s) {
        sim_cpu.start();
        sim.step();
        sim_cpu.stop();
        const int step = sim.step_index();
        auto mesh = t.tessellate_step(step, sim.local_tess_particles());
        tess_cpu += t.stats().exchange_seconds + t.stats().compute_seconds;
        util::ThreadCpuTimer w;
        w.start();
        std::vector<double> volumes;
        volumes.reserve(mesh.cells.size());
        for (const auto& cell : mesh.cells) volumes.push_back(cell.volume);
        if (!cfg.output_pattern.empty()) {
          diy::Buffer buf;
          mesh.serialize(buf);
          bytes += diy::write_blocks(c, diy::step_path(cfg.output_pattern, step),
                                     buf);
        }
        hook(c, step, volumes);
        w.stop();
        write_cpu += w.seconds();
      }
    }
    c.barrier();
    wall.stop();

    const double sim_max = c.allreduce_max(sim_cpu.seconds());
    const double tess_max = c.allreduce_max(tess_cpu);
    const double write_max = c.allreduce_max(write_cpu);
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lock(m);
      result.wall = wall.seconds();
      result.sim_cpu_max = sim_max;
      result.tess_cpu_max = tess_max;
      result.write_cpu_max = write_max;
      result.steps = cfg.steps;
      result.file_bytes = bytes;
    }
  });
  return result;
}

std::vector<diy::Particle> evolve_snapshot(const hacc::SimConfig& cfg, int steps) {
  std::vector<diy::Particle> out;
  comm::Runtime::run(1, [&](comm::Comm& c) {
    hacc::Simulation sim(c, cfg);
    sim.run_until(steps);
    out = sim.local_tess_particles();
  });
  return out;
}

}  // namespace tess::bench
