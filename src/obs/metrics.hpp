// Metrics registry — the counting half of the observability layer (see
// DESIGN.md §4.7): named counters, gauges, and exponential histograms that
// absorb the ad-hoc statistics fields previously scattered across
// TessStats, Exchanger, and the benches.
//
// Metrics are process-global and always on (no runtime flag): an update is
// one relaxed atomic RMW on a slot private to the calling thread's rank,
// so cross-rank cache contention only occurs between a rank and its own
// pool workers. Per-rank attribution uses the thread rank tag from
// obs/trace.hpp; values can be read whole (value()) or per rank slice
// (value(rank)), and obs/reduce.hpp merges slices to rank 0 at a barrier.
//
// The TESS_COUNT / TESS_GAUGE_SET / TESS_HIST_ADD / TESS_HIST_MERGE macros
// cache the registry lookup in a function-local static, so instrumented
// hot paths pay no name hashing after the first call — and compile to
// nothing when TESS_OBS_ENABLED=0.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace tess::obs {

/// Ranks with dedicated metric slots; higher ranks share the last slot.
inline constexpr int kMaxTrackedRanks = 64;
/// Slot 0 collects updates from unranked threads (rank tag -1).
inline constexpr int kRankSlots = kMaxTrackedRanks + 1;

namespace detail {
inline std::size_t rank_slot() {
  const int r = thread_rank();
  if (r < 0) return 0;
  return static_cast<std::size_t>(r < kMaxTrackedRanks ? r + 1
                                                       : kMaxTrackedRanks);
}
inline std::size_t slot_of(int rank) {
  if (rank < 0) return 0;
  return static_cast<std::size_t>(rank < kMaxTrackedRanks ? rank + 1
                                                          : kMaxTrackedRanks);
}
}  // namespace detail

/// Monotonic per-rank-sliced counter.
class Counter {
 public:
  void add(std::uint64_t delta) {
    slots_[detail::rank_slot()].fetch_add(delta, std::memory_order_relaxed);
  }
  /// Sum over every rank slice (plus the unranked slot).
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : slots_) total += s.load(std::memory_order_relaxed);
    return total;
  }
  /// One rank's slice (-1 = updates from unranked threads).
  [[nodiscard]] std::uint64_t value(int rank) const {
    return slots_[detail::slot_of(rank)].load(std::memory_order_relaxed);
  }
  void reset() {
    for (auto& s : slots_) s.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kRankSlots> slots_{};
};

/// Last-written value per rank slice; value() reduces with max (the
/// convention for per-rank quantities like the ghost size actually used).
class Gauge {
 public:
  void set(double v) {
    auto& s = slots_[detail::rank_slot()];
    s.value.store(v, std::memory_order_relaxed);
    s.written.store(true, std::memory_order_release);
  }
  [[nodiscard]] double value() const {
    double best = 0.0;
    bool any = false;
    for (const auto& s : slots_) {
      if (!s.written.load(std::memory_order_acquire)) continue;
      const double v = s.value.load(std::memory_order_relaxed);
      if (!any || v > best) best = v;
      any = true;
    }
    return best;
  }
  [[nodiscard]] double value(int rank) const {
    return slots_[detail::slot_of(rank)].value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool written(int rank) const {
    return slots_[detail::slot_of(rank)].written.load(
        std::memory_order_acquire);
  }
  void reset() {
    for (auto& s : slots_) {
      s.value.store(0.0, std::memory_order_relaxed);
      s.written.store(false, std::memory_order_relaxed);
    }
  }

 private:
  struct Slot {
    std::atomic<double> value{0.0};
    std::atomic<bool> written{false};
  };
  std::array<Slot, kRankSlots> slots_;
};

/// Quantile by bucket interpolation over exported (bin_floor, count)
/// pairs, ascending by floor: find the bucket holding the q-th sample and
/// interpolate linearly inside its [floor, 2*floor) range (the zero bucket
/// returns 0 exactly — its samples are all zero). The error is bounded by
/// the power-of-two bucket width; good enough to gate p99 latencies where
/// a mean hides tail regressions. Returns 0 on an empty histogram.
[[nodiscard]] double histogram_quantile(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& bins,
    double q);

/// Lock-free exponential histogram over unsigned samples: bin k holds the
/// samples whose bit width is k (bin 0 = zero), i.e. power-of-two buckets.
/// Coarse by design — it answers "what order of magnitude are the ghost
/// messages" without any hot-path allocation or mutex. Quantiles come from
/// bucket interpolation (quantile(), histogram_quantile()).
class ExpHistogram {
 public:
  static constexpr int kBins = 65;

  /// Caller-owned, non-atomic bins in the same layout. A hot loop adds
  /// here and merge()s once, instead of three atomic RMWs per sample.
  struct Local {
    std::array<std::uint64_t, kBins> bins{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void add(std::uint64_t v) {
      ++bins[static_cast<std::size_t>(bin_of(v))];
      ++count;
      sum += v;
    }
  };

  void add(std::uint64_t v) {
    bins_[static_cast<std::size_t>(bin_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  /// Adds every sample of `local`: the same totals as add() per sample.
  void merge(const Local& local) {
    if (local.count == 0) return;
    for (std::size_t k = 0; k < bins_.size(); ++k)
      if (local.bins[k] != 0)
        bins_[k].fetch_add(local.bins[k], std::memory_order_relaxed);
    count_.fetch_add(local.count, std::memory_order_relaxed);
    sum_.fetch_add(local.sum, std::memory_order_relaxed);
  }
  [[nodiscard]] static int bin_of(std::uint64_t v) {
    return static_cast<int>(std::bit_width(v));
  }
  /// Lower bound of bin k's sample range (0, then 2^(k-1)).
  [[nodiscard]] static std::uint64_t bin_floor(int k) {
    return k <= 0 ? 0 : std::uint64_t{1} << (k - 1);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const auto n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  [[nodiscard]] std::uint64_t bin_count(int k) const {
    return bins_[static_cast<std::size_t>(k)].load(std::memory_order_relaxed);
  }
  /// Interpolated quantile (q in [0,1]) over the current bin contents.
  [[nodiscard]] double quantile(double q) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> bins;
    for (int k = 0; k < kBins; ++k)
      if (const auto n = bin_count(k); n != 0)
        bins.emplace_back(bin_floor(k), n);
    return histogram_quantile(bins, q);
  }
  void reset() {
    for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBins> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One exported metric. `per_rank` lists the nonzero rank slices for
/// counters and the written slices for gauges (rank -1 = unranked slot);
/// histograms export count in `value`, sample sum in `sum`, and nonzero
/// bins as (bin_floor, count) pairs in `bins`.
struct MetricSample {
  std::string name;
  char kind = 'c';  ///< 'c' counter, 'g' gauge, 'h' histogram
  double value = 0.0;
  double sum = 0.0;
  std::vector<std::pair<int, double>> per_rank;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bins;
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  ///< sorted by name
  [[nodiscard]] const MetricSample* find(std::string_view name) const;
  /// Value of a sample by name (0 when absent).
  [[nodiscard]] double value(std::string_view name) const;
};

/// Name → metric registry. Lookups are mutex-protected; returned
/// references stay valid for the process lifetime (reset() zeroes values
/// but never unregisters), which is what lets call sites cache them in
/// function-local statics.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  ExpHistogram& histogram(std::string_view name);

  /// Per-tag comm traffic (message count + bytes), kept in a fixed table
  /// so Comm::send_bytes never builds a metric name. Exported as
  /// "comm.tag<N>.messages" / "comm.tag<N>.bytes". Tags outside
  /// [kMinTag, kMaxTag] clamp to the edge slots.
  void add_tagged_message(int tag, std::uint64_t bytes);
  static constexpr int kMinTag = -8;
  static constexpr int kMaxTag = 119;

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zero every metric (registrations and references stay valid).
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

inline Registry& metrics() { return Registry::instance(); }

#if TESS_OBS_ENABLED
#define TESS_COUNT(name, delta)                                  \
  do {                                                           \
    static ::tess::obs::Counter& TESS_OBS_CONCAT(                \
        tess_obs_counter_, __LINE__) =                           \
        ::tess::obs::metrics().counter(name);                    \
    TESS_OBS_CONCAT(tess_obs_counter_, __LINE__)                 \
        .add(static_cast<std::uint64_t>(delta));                 \
  } while (false)
#define TESS_GAUGE_SET(name, v)                                             \
  do {                                                                      \
    static ::tess::obs::Gauge& TESS_OBS_CONCAT(tess_obs_gauge_, __LINE__) = \
        ::tess::obs::metrics().gauge(name);                                 \
    TESS_OBS_CONCAT(tess_obs_gauge_, __LINE__)                              \
        .set(static_cast<double>(v));                                       \
  } while (false)
#define TESS_HIST_ADD(name, v)                                   \
  do {                                                           \
    static ::tess::obs::ExpHistogram& TESS_OBS_CONCAT(           \
        tess_obs_hist_, __LINE__) =                              \
        ::tess::obs::metrics().histogram(name);                  \
    TESS_OBS_CONCAT(tess_obs_hist_, __LINE__)                    \
        .add(static_cast<std::uint64_t>(v));                     \
  } while (false)
#define TESS_HIST_MERGE(name, local)                             \
  do {                                                           \
    static ::tess::obs::ExpHistogram& TESS_OBS_CONCAT(           \
        tess_obs_hist_, __LINE__) =                              \
        ::tess::obs::metrics().histogram(name);                  \
    TESS_OBS_CONCAT(tess_obs_hist_, __LINE__).merge(local);      \
  } while (false)
#else
#define TESS_COUNT(name, delta) static_cast<void>(0)
#define TESS_GAUGE_SET(name, v) static_cast<void>(0)
#define TESS_HIST_ADD(name, v) static_cast<void>(0)
#define TESS_HIST_MERGE(name, local) static_cast<void>(0)
#endif

}  // namespace tess::obs
