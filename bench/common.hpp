// Shared machinery for the benchmark harness: drives the mini-HACC
// simulation with the tessellation in situ and reports the same timing
// breakdown as the paper's Table II.
//
// Timing semantics: ranks execute as threads of one process on a 4-vCPU
// host, so runs with more ranks than cores oversubscribe it and their
// wall-clock time is partly serialized. Stage timers therefore use
// per-thread CPU time, and scaling metrics report the per-rank critical
// path (the maximum of per-rank stage timers), which is what the wall
// clock of a real distributed run converges to; DESIGN.md §1 and
// EXPERIMENTS.md discuss the substitution.
#pragma once

#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "hacc/simulation.hpp"
#include "util/timer.hpp"

namespace tess::bench {

struct InSituResult {
  // Wall-clock (serialized across thread-ranks).
  double sim_wall = 0.0;
  double tess_wall = 0.0;
  // Per-rank critical path (max across ranks) for the tessellation stages.
  double exchange_max = 0.0;
  double voronoi_max = 0.0;
  double output_max = 0.0;
  [[nodiscard]] double tess_critical_path() const {
    return exchange_max + voronoi_max + output_max;
  }

  long long cells_kept = 0;
  long long cells_incomplete = 0;
  long long cells_culled = 0;
  long long ghost_exchanged = 0;
  std::uint64_t output_bytes = 0;
  std::uint64_t traffic_bytes = 0;

  /// Gathered blocks (only when `gather` was requested).
  std::vector<core::BlockMesh> meshes;
};

struct InSituConfig {
  hacc::SimConfig sim{};
  core::TessOptions tess{};
  int tess_at_step = -1;       ///< default: sim.nsteps
  std::string output_path;     ///< empty: skip the write stage
  bool gather_meshes = false;  ///< collect all blocks on the caller
};

/// Run the simulation for `tess_at_step` steps on `nranks` ranks, then one
/// in situ tessellation (+ optional parallel write). Blocking.
InSituResult run_insitu(int nranks, const InSituConfig& cfg);

/// Result of a full in-situ loop (tessellate + write EVERY step), serial
/// or pipelined. Stage seconds are per-rank thread-CPU critical paths (max
/// across ranks of each rank's summed stage CPU time) — the distributed
/// wall-clock model this harness uses on a shared-core host. On such a
/// host the measured wall serializes all stages in both modes, so overlap
/// shows up in the *modeled* numbers: the serial loop's modeled wall is
/// sum(stages), the pipelined loop's is max(stages).
struct InSituLoopResult {
  double wall = 0.0;          ///< measured wall of the whole loop
  double sim_cpu_max = 0.0;   ///< max over ranks: sim-stage CPU seconds
  double tess_cpu_max = 0.0;  ///< max over ranks: tess-stage CPU seconds
  double write_cpu_max = 0.0; ///< max over ranks: write-stage CPU seconds
  int steps = 0;
  std::uint64_t file_bytes = 0;  ///< sum of per-step blocked-file sizes

  [[nodiscard]] double stage_sum() const {
    return sim_cpu_max + tess_cpu_max + write_cpu_max;
  }
  [[nodiscard]] double stage_max() const {
    double m = sim_cpu_max;
    if (tess_cpu_max > m) m = tess_cpu_max;
    if (write_cpu_max > m) m = write_cpu_max;
    return m;
  }
  /// Modeled speedup of overlapping the three stages (sum/max) — the
  /// figure of merit the pipeline exists for.
  [[nodiscard]] double modeled_overlap_speedup() const {
    const double m = stage_max();
    return m > 0.0 ? stage_sum() / m : 1.0;
  }
  /// Wall-clock overlap efficiency: max(stage)/wall, approaching 1 when
  /// the slowest stage hides the others (meaningful only with real cores).
  [[nodiscard]] double overlap_efficiency() const {
    return wall > 0.0 ? stage_max() / wall : 0.0;
  }
};

struct InSituLoopConfig {
  hacc::SimConfig sim{};
  core::TessOptions tess{};
  int steps = 10;              ///< simulation steps, one tessellation each
  std::string output_pattern;  ///< per-step path pattern ("%d" -> step)
  bool pipelined = false;      ///< false: serial reference loop
  int queue_depth = 1;
};

/// Drive the simulation `steps` steps with the tessellation + write after
/// every step — serial (reference) or through core::InSituPipeline. Both
/// modes produce byte-identical per-step files, and both reduce each
/// step's cell-volume statistics (analysis::make_stats_streamer), which
/// reach the live stream as {"k":"step"} records when it is armed.
InSituLoopResult run_insitu_loop(int nranks, const InSituLoopConfig& cfg);

/// Tessellate a fixed particle set (no simulation) and report the same
/// result structure; used by the accuracy and scaling benches.
InSituResult run_standalone(int nranks, const std::vector<diy::Particle>& particles,
                            double domain, const core::TessOptions& options,
                            const std::string& output_path = "",
                            bool gather_meshes = false);

/// Evolve a simulation serially and return all particles (for benches that
/// reuse one snapshot across many tessellation configurations).
std::vector<diy::Particle> evolve_snapshot(const hacc::SimConfig& cfg, int steps);

/// Build type this bench binary was compiled as: "release" when NDEBUG is
/// defined, "debug" otherwise. Benches stamp it into their benchmark JSON
/// context (key "tess_build_type") so tools/obs_compare can refuse to trust
/// debug-build numbers.
[[nodiscard]] const char* build_type();

/// Print a loud stderr banner (once per process) when this binary is a
/// debug build: debug bench numbers are meaningless as baselines, and a
/// silently committed debug baseline poisons the perf-regression gate.
void warn_if_debug_build();

/// Observability hooks, driven by the TESS_OBS_EXPORT environment variable.
/// When it holds a path prefix, obs_begin_from_env() turns the tracer on and
/// resets the metrics registry; returns whether exporting is active.
/// No-op when the variable is unset.
bool obs_begin_from_env();

/// Start recording unconditionally: tracer on (fresh trace, zeroed
/// metrics) and the flight recorder armed so a hung or crashed bench run
/// leaves a dump. Dumps and exports go to TESS_OBS_EXPORT when set, else
/// `default_prefix`; TESS_FLIGHT_STALL_MS overrides the watchdog threshold
/// (default 60 s — benches have long legitimately-quiet serial stretches).
/// Returns the resolved prefix.
std::string obs_begin(const std::string& default_prefix);

/// Write <prefix>.trace.json (chrome://tracing, one lane per rank x thread)
/// and <prefix>.summary.jsonl (obs::write_summary: full stream "snap"
/// records, global then per rank) for everything recorded since
/// obs_begin_from_env(). No-op when TESS_OBS_EXPORT is unset.
void obs_export_from_env();

/// Same export, to an explicit prefix (used by benches that always emit a
/// machine-readable summary alongside their table).
void obs_export(const std::string& prefix);

}  // namespace tess::bench
