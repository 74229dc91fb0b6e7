// serve_mixed (perfbench/README.md): one closed-loop client runs query
// sessions against a QueryService over eight step files of the
// insitu_uniform configuration. The seeded schedule sends three of every
// four sessions to the three newest files and the fourth to the next older
// file, which misses the four-snapshot cache.
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/tessellator.hpp"
#include "diy/blockio.hpp"
#include "hacc/simulation.hpp"
#include "inputs.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using tess::geom::Vec3;

constexpr int kRanks = 4;
constexpr int kSetups = 3;
constexpr std::size_t kPoints = 16384;
/// Query points stay one ghost width (4 spacings) inside the periodic box,
/// where the nearest stored site is the nearest periodic site too.
constexpr double kMargin = 4.0;
/// Void cells: volume above 1.5x the mean cell volume (1 for 32^3 in 32^3).
constexpr double kVoidThreshold = 1.5;
constexpr double kHistHi = 8.0;
constexpr std::size_t kHistBins = 64;
constexpr std::size_t kSampleChecks = 16;
constexpr int kWarmupSessions = 4;
constexpr int kMinSessions = 40;
/// Work counts come from the first timed sessions only (whole groups of
/// four), so the same seed gives the same counts whatever the host speed.
constexpr int kCountSessions = 40;

double box_side() { return static_cast<double>(kUniformNp); }

/// Writes the eight step files (steps kUniformStartStep+1.. of the
/// insitu_uniform run) and returns each file's cell sites.
std::vector<FileSites> write_files(std::uint64_t seed,
                                   const std::vector<std::string>& paths,
                                   bool& all_kept) {
  std::vector<FileSites> sites(paths.size());
  all_kept = true;
  tess::comm::Runtime::run(kRanks, [&](tess::comm::Comm& c) {
    tess::hacc::Simulation sim(c, uniform_sim_config(seed));
    sim.run_until(kUniformStartStep);
    tess::core::Tessellator tessellator(c, sim.decomposition(), {});
    for (std::size_t k = 0; k < paths.size(); ++k) {
      sim.step();
      const auto mesh = tessellator.tessellate_step(
          sim.step_index(), sim.local_tess_particles());
      tess::diy::Buffer buf;
      mesh.serialize(buf);
      tess::diy::write_blocks(c, paths[k], buf);
      std::vector<Vec3> pos;
      std::vector<std::int64_t> ids;
      for (const auto& cell : mesh.cells) {
        pos.push_back(cell.site);
        ids.push_back(cell.site_id);
      }
      auto all_pos = c.gatherv(pos);
      auto all_ids = c.gatherv(ids);
      if (c.rank() == 0) {
        all_kept = all_kept && all_pos.size() == static_cast<std::size_t>(
                                                     sim.total_particles());
        sites[k] = {std::move(all_pos), std::move(all_ids)};
      }
    }
  });
  return sites;
}

tess::serve::ServiceConfig service_config() {
  tess::serve::ServiceConfig cfg;
  cfg.cache.max_snapshots = 4;
  cfg.threads = 4;
  return cfg;
}

}  // namespace

SessionInput session_input(std::uint64_t seed, std::int64_t session) {
  return {query_points(seed, session, kPoints, kMargin, box_side() - kMargin),
          region_box(seed, session, box_side(), box_side() / 4.0)};
}

SessionOut run_session(tess::serve::QueryService& service,
                       const std::string& path, const SessionInput& in,
                       std::int64_t id) {
  TESS_SPAN_ARG("bench.op", id);
  SessionOut out;
  const auto misses = service.cache().stats().misses;
  std::shared_ptr<const tess::serve::Snapshot> snap;
  {
    TESS_SPAN_ARG("bench.diy.open", id);
    snap = service.snapshot(path);
  }
  out.cold = service.cache().stats().misses != misses;
  {
    TESS_SPAN_ARG("bench.serve.point_locate", id);
    out.locs = service.point_locate(path, in.points);
  }
  if (out.cold) {
    // The catalog void_lookup would build first, timed on its own.
    TESS_SPAN_ARG("bench.analysis.voids", id);
    (void)snap->voids(kVoidThreshold);
  }
  {
    TESS_SPAN_ARG("bench.serve.void_lookup", id);
    out.voids = service.void_lookup(path, in.points, kVoidThreshold);
  }
  {
    TESS_SPAN_ARG("bench.serve.extract_region", id);
    out.region_cells = service.extract_region(path, in.region).cells.size();
  }
  {
    TESS_SPAN_ARG("bench.serve.volume_histogram", id);
    out.hist_total =
        service.volume_histogram(path, 0.0, kHistHi, kHistBins).total();
  }
  out.blocks_loaded = snap->blocks_loaded();
  return out;
}

bool session_ok(const SessionOut& out, const SessionInput& in,
                const FileSites& file, std::uint64_t seed, std::int64_t id) {
  if (out.locs.size() != in.points.size() ||
      out.voids.size() != in.points.size())
    return false;
  for (const std::size_t i :
       check_sample(seed, id, in.points.size(), kSampleChecks)) {
    double best = std::numeric_limits<double>::infinity();
    std::int64_t best_id = -1;
    for (std::size_t k = 0; k < file.pos.size(); ++k) {
      const double d2 = tess::geom::dist2(in.points[i], file.pos[k]);
      if (d2 < best) {
        best = d2;
        best_id = file.ids[k];
      }
    }
    const auto& loc = out.locs[i];
    // Equidistant sites are both right.
    if (!loc.found() || (loc.site_id != best_id && loc.site_dist2 != best))
      return false;
  }
  std::size_t in_box = 0;
  for (const auto& p : file.pos) in_box += in.region.contains(p) ? 1 : 0;
  return out.region_cells == in_box && out.hist_total == file.pos.size();
}

Report run_serve_mixed(const Args& a, double t_process, SpanLog& spans) {
  Report rep;
  std::vector<std::string> paths;
  for (int k = 0; k < kServeFiles; ++k)
    paths.push_back(a.data_dir + "/serve-" + std::to_string(k) + ".bin");
  std::vector<FileSites> sites;
  std::unique_ptr<tess::serve::QueryService> service;
  auto& tracer = tess::obs::Tracer::instance();

  std::vector<double> setups, session_ms, traced_ms, untraced_ms;
  std::map<std::string, std::vector<double>> layer;
  double hits = 0, misses = 0, walk = 0, fallbacks = 0, located = 0;
  double peak_mb = 0;
  int timed = 0;

  // One session: input generation and checks stay outside the timed span.
  const auto session = [&](std::int64_t id, bool traced) {
    const int f = session_file(a.seed, id);
    const SessionInput in = session_input(a.seed, id);
    const auto stats0 = service->cache().stats();
    if (traced) tracer.set_enabled(true);
    rep.begin_op();
    const double t0 = now_s();
    SessionOut out;
    try {
      out = run_session(*service, paths[static_cast<std::size_t>(f)], in, id);
    } catch (const std::exception& e) {
      tracer.set_enabled(false);
      rep.fail_pending(e.what());
      return;
    }
    const double ms = (now_s() - t0) * 1e3;
    tracer.set_enabled(false);
    rep.end_op(session_ok(out, in, sites[static_cast<std::size_t>(f)], a.seed,
                          id));
    if (id < kWarmupSessions) return;
    const int n = timed++;
    session_ms.push_back(ms);
    if (!a.trace) return;
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (n < kCountSessions) {
      const auto stats1 = service->cache().stats();
      hits += static_cast<double>(stats1.hits - stats0.hits);
      misses += static_cast<double>(stats1.misses - stats0.misses);
      if (out.cold) {
        layer["serve.blocks_loaded"].push_back(out.blocks_loaded);
      } else {
        for (const auto& loc : out.locs) {
          walk += loc.walk_steps;
          fallbacks += loc.grid_fallback ? 1 : 0;
        }
        located += static_cast<double>(out.locs.size());
      }
    }
    if (!traced) return;
    const auto span_ms = spans.collect();
    const auto take = [&](const char* metric, const char* span) {
      if (const auto it = span_ms.find(span); it != span_ms.end())
        layer[metric].push_back(it->second);
    };
    if (out.cold) {
      take("diy.open_ms", "bench.diy.open");
      take("serve.cold_locate_ms", "bench.serve.point_locate");
      take("analysis.void_catalog_ms", "bench.analysis.voids");
    } else {
      take("serve.locate_ms", "bench.serve.point_locate");
      take("serve.void_ms", "bench.serve.void_lookup");
      take("serve.region_ms", "bench.serve.extract_region");
      take("serve.hist_ms", "bench.serve.volume_histogram");
    }
  };

  try {
    for (int s = 0; s < kSetups; ++s) {
      const double t_begin = s == 0 ? t_process : now_s();
      service.reset();  // unmap the previous set-up's files first
      bool all_kept = false;
      sites = write_files(a.seed, paths, all_kept);
      if (!all_kept) rep.fail_run_check("a step file lost cells");
      service = std::make_unique<tess::serve::QueryService>(service_config());
      for (std::int64_t id = 0; id < kWarmupSessions; ++id) session(id, false);
      setups.push_back(now_s() - t_begin);
    }
    if (!reset_peak_rss()) rep.note("cannot reset the RSS high-water mark");
    const double t0 = now_s();
    for (std::int64_t id = kWarmupSessions;; ++id) {
      const int n = static_cast<int>(id) - kWarmupSessions;
      if (n >= kMinSessions && now_s() - t0 >= a.seconds) break;
      // Trace every other group of four, so traced and untraced sessions
      // hold the same share of cache misses.
      session(id, a.trace && (n / 4) % 2 == 1);
    }
    peak_mb = peak_rss_mb();
  } catch (const std::exception& e) {
    rep.fail_pending(e.what());
  }

  if (a.trace) {
    set_medians(rep, layer);
    rep.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
    rep.set("serve.walk_steps", ratio(walk, located));
    rep.set("serve.fallback_ratio", ratio(fallbacks, located));
    rep.set("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
  } else {
    set_op_metrics(rep, session_ms, 2.0 * kPoints);
    rep.set("setup_s", median(setups));
    rep.set("peak_rss_mb", peak_mb);
  }
  return rep;
}

}  // namespace perfbench
