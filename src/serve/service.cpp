#include "serve/service.hpp"

#include <chrono>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace tess::serve {

namespace {

/// Stamps the per-kind latency histogram (microseconds) on scope exit and
/// bumps the kind's SLO-breach counter when the call ran past the
/// threshold. Looks the metrics up per call (names vary per query kind, so
/// the TESS_HIST_ADD static-cache macro would bind to the wrong metric).
class LatencyScope {
 public:
  LatencyScope(const char* base_name, std::uint64_t slo_us)
      : base_(base_name), slo_us_(slo_us),
        t0_(std::chrono::steady_clock::now()) {}
  ~LatencyScope() {
#if TESS_OBS_ENABLED
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
    const std::string base(base_);
    obs::metrics().histogram(base + ".us").add(us);
    if (slo_us_ > 0 && us > slo_us_)
      obs::metrics().counter(base + ".slo_breach").add(1);
#endif
  }

 private:
  [[maybe_unused]] const char* base_;
  [[maybe_unused]] std::uint64_t slo_us_;
  [[maybe_unused]] std::chrono::steady_clock::time_point t0_;
};

std::uint64_t resolve_slo_us(std::uint64_t configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("TESS_SERVE_SLO_US"))
    if (const long v = std::atol(env); v > 0)
      return static_cast<std::uint64_t>(v);
  return 100000;  // 100 ms: generous for point batches, catches cold loads
}

}  // namespace

QueryService::QueryService(const ServiceConfig& config)
    : config_(config),
      cache_(config.cache),
      pool_(util::ThreadPool::resolve(config.threads)) {
  if (config_.batch_grain == 0) config_.batch_grain = 1;
  config_.slo_us = resolve_slo_us(config_.slo_us);
}

void QueryService::maybe_stream() {
  auto* sw = obs::stream();
  if (sw == nullptr || !sw->interval_elapsed()) return;
  obs::StreamSample sample;
  sample.rank = -1;  // the service is not rank-scoped: global totals
  sample.with_hists = true;
  sample.with_spans = true;
  sw->emit(sample);
}

std::shared_ptr<const Snapshot> QueryService::snapshot(
    const std::string& path) {
  return cache_.acquire(path);
}

std::vector<PointLocation> QueryService::point_locate(
    const std::string& path, const std::vector<Vec3>& points) {
  TESS_SPAN("serve.query.point");
  LatencyScope latency("serve.query.point", config_.slo_us);
  TESS_COUNT("serve.query.point.count", points.size());
  const auto snap = cache_.acquire(path);
  std::vector<PointLocation> out(points.size());
  std::lock_guard<std::mutex> lock(pool_mutex_);
  util::parallel_for(pool_, points.size(), config_.batch_grain,
                     [&](std::size_t begin, std::size_t end, int, int) {
                       TESS_SPAN("serve.locate.chunk");
                       Snapshot::LocateTally tally;
                       for (std::size_t i = begin; i < end; ++i)
                         out[i] = snap->locate(points[i], tally);
                     });
  maybe_stream();
  return out;
}

std::vector<std::int64_t> QueryService::void_lookup(
    const std::string& path, const std::vector<Vec3>& points,
    double min_volume) {
  TESS_SPAN("serve.query.void");
  LatencyScope latency("serve.query.void", config_.slo_us);
  TESS_COUNT("serve.query.void.count", points.size());
  const auto snap = cache_.acquire(path);
  // Materialize the catalog once, before fanning out; the per-point path
  // then only does locate + a hash lookup.
  const auto catalog = snap->voids(min_volume);
  std::vector<std::int64_t> out(points.size());
  std::lock_guard<std::mutex> lock(pool_mutex_);
  util::parallel_for(
      pool_, points.size(), config_.batch_grain,
      [&](std::size_t begin, std::size_t end, int, int) {
        TESS_SPAN("serve.locate.chunk");
        Snapshot::LocateTally tally;
        for (std::size_t i = begin; i < end; ++i) {
          const auto loc = snap->locate(points[i], tally);
          out[i] =
              loc.found() ? catalog->components->label_of(loc.site_id) : -1;
        }
      });
  maybe_stream();
  return out;
}

core::BlockMesh QueryService::extract_region(const std::string& path,
                                             const diy::Bounds& box) {
  TESS_SPAN("serve.query.region");
  LatencyScope latency("serve.query.region", config_.slo_us);
  TESS_COUNT("serve.query.region.count", 1);
  auto mesh = cache_.acquire(path)->extract_region(box);
  maybe_stream();
  return mesh;
}

util::Histogram QueryService::volume_histogram(const std::string& path,
                                               double lo, double hi,
                                               std::size_t bins) {
  TESS_SPAN("serve.query.hist");
  LatencyScope latency("serve.query.hist", config_.slo_us);
  TESS_COUNT("serve.query.hist.count", 1);
  auto hist = cache_.acquire(path)->volume_histogram(lo, hi, bins);
  maybe_stream();
  return hist;
}

util::Histogram QueryService::density_contrast_histogram(
    const std::string& path, std::size_t bins) {
  TESS_SPAN("serve.query.hist");
  LatencyScope latency("serve.query.hist", config_.slo_us);
  TESS_COUNT("serve.query.hist.count", 1);
  auto hist = cache_.acquire(path)->density_contrast_histogram(bins);
  maybe_stream();
  return hist;
}

}  // namespace tess::serve
