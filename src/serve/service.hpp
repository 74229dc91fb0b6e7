// Concurrent mesh query service over blocked tessellation files — the
// "millions of users" serving surface of ROADMAP item 1 (DESIGN.md §4.12).
//
// A QueryService owns a SnapshotCache and a util::ThreadPool of reader
// threads. Batched queries (point location, void lookup) fan out across
// the pool against the immutable snapshot the cache hands back; scalar
// queries (region extraction, histogram slices) run on the calling thread.
// Results are bitwise independent of the reader-thread count: batch
// entries are written into preallocated slots, never merged.
//
// Every query kind is observable through src/obs:
//   serve.query.<kind>            span around each call (batch granularity)
//   serve.query.<kind>.count      queries served (batch entries, not batches)
//   serve.query.<kind>.us         per-call latency histogram, microseconds
//   serve.query.<kind>.slo_breach calls slower than the SLO threshold
//                                 (ServiceConfig::slo_us / TESS_SERVE_SLO_US)
// plus the serve.cache.* hit/miss/evict counters from the cache and the
// serve.locate.* walk/fallback counters from the snapshot. The batch paths
// tally those per parallel_for chunk (Snapshot::LocateTally) and add them
// to the registry once per chunk, under one serve.locate.chunk span, so
// the totals equal per-point updates without their atomics. When the live
// telemetry streamer is on (obs/stream.hpp), the service also appends one
// global stream record per TESS_OBS_STREAM_MS interval, carrying the
// latency histograms with p50/p90/p99 — the feed tess_top watches.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/snapshot.hpp"
#include "util/parallel_for.hpp"

namespace tess::serve {

struct ServiceConfig {
  CacheConfig cache{};
  /// Reader threads (ThreadPool semantics: total parallelism including
  /// the caller; 0 = hardware concurrency).
  int threads = 1;
  /// Batch entries per pool chunk; chunking depends only on the batch
  /// size, so results are identical for any thread count.
  std::size_t batch_grain = 256;
  /// Per-call latency SLO in microseconds: calls slower than this bump
  /// serve.query.<kind>.slo_breach. 0 = resolve from TESS_SERVE_SLO_US
  /// (default 100000, i.e. 100 ms).
  std::uint64_t slo_us = 0;
};

class QueryService {
 public:
  explicit QueryService(const ServiceConfig& config = {});

  [[nodiscard]] int threads() const { return pool_.size(); }
  [[nodiscard]] SnapshotCache& cache() { return cache_; }
  /// Resolved latency SLO (after the TESS_SERVE_SLO_US fallback).
  [[nodiscard]] std::uint64_t slo_us() const { return config_.slo_us; }

  /// Pin a snapshot (through the cache) for repeated direct queries.
  std::shared_ptr<const Snapshot> snapshot(const std::string& path);

  /// Batched point location: result i answers points[i].
  std::vector<PointLocation> point_locate(const std::string& path,
                                          const std::vector<Vec3>& points);

  /// Batched void lookup: label of the void containing each point at the
  /// given volume threshold (-1 = below threshold / not in a void).
  std::vector<std::int64_t> void_lookup(const std::string& path,
                                        const std::vector<Vec3>& points,
                                        double min_volume);

  /// Axis-aligned region extraction into one re-welded mesh.
  core::BlockMesh extract_region(const std::string& path,
                                 const diy::Bounds& box);

  /// Both histograms throw std::invalid_argument when `bins` is 0.
  util::Histogram volume_histogram(const std::string& path, double lo,
                                   double hi, std::size_t bins);
  util::Histogram density_contrast_histogram(const std::string& path,
                                             std::size_t bins);

 private:
  /// Interval-gated live-stream emission (no-op when streaming is off),
  /// called at the end of every query.
  void maybe_stream();

  ServiceConfig config_;
  SnapshotCache cache_;
  util::ThreadPool pool_;
  /// ThreadPool::run is not reentrant; concurrent batch submissions are
  /// serialized here (each still fans out across all reader threads).
  std::mutex pool_mutex_;
};

}  // namespace tess::serve
