// The three benchmark workloads (perfbench/README.md) and the output checks
// that decide whether an op failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "diy/decomposition.hpp"
#include "harness.hpp"
#include "serve/service.hpp"

namespace perfbench {

/// Each runs one workload: set-up three times (setup_s is the median),
/// timed ops for args.seconds, output checks outside the timed intervals.
/// `t_process` is when the process started; the first set-up counts from it.
Report run_insitu_uniform(const Args& args, double t_process, SpanLog& spans);
Report run_insitu_clustered(const Args& args, double t_process,
                            SpanLog& spans);
Report run_serve_mixed(const Args& args, double t_process, SpanLog& spans);

/// insitu_uniform op check: every particle keeps its cell, and the kept
/// volumes sum to the periodic box volume within 1e-9 relative.
[[nodiscard]] bool uniform_op_ok(double kept, double volume_sum,
                                 double particles, double box_volume);
/// insitu_clustered op check: every particle's cell is kept, incomplete or
/// culled.
[[nodiscard]] bool clustered_op_ok(double accounted, double particles);

/// One serve_mixed session's inputs (generated before its timed interval).
struct SessionInput {
  std::vector<tess::geom::Vec3> points;  ///< point_locate and void_lookup
  tess::diy::Bounds region;              ///< extract_region
};
[[nodiscard]] SessionInput session_input(std::uint64_t seed,
                                         std::int64_t session);

/// What one session got back.
struct SessionOut {
  bool cold = false;  ///< the session's snapshot() missed the cache
  std::vector<tess::serve::PointLocation> locs;
  std::vector<std::int64_t> voids;
  std::size_t region_cells = 0;
  std::size_t hist_total = 0;
  int blocks_loaded = 0;  ///< of the session's snapshot, at its end
};

/// The sites of a file's cells, for brute-force checks.
struct FileSites {
  std::vector<tess::geom::Vec3> pos;
  std::vector<std::int64_t> ids;
};

/// One session (the timed op of serve_mixed) against `path`.
SessionOut run_session(tess::serve::QueryService& service,
                       const std::string& path, const SessionInput& in,
                       std::int64_t id);
/// Checks a seeded sample of located points against the brute-force
/// nearest site, the region's cell count against a brute-force count of
/// sites in the box, and the histogram total against the cell count.
[[nodiscard]] bool session_ok(const SessionOut& out, const SessionInput& in,
                              const FileSites& file, std::uint64_t seed,
                              std::int64_t id);

}  // namespace perfbench
