// Live telemetry streaming (DESIGN.md §4.13): a low-overhead streamer that
// appends one crash-consistent JSONL record per emission point — per
// pipeline step per rank, per auto-ghost pass, per query-service interval —
// so an in-situ run or a long-lived query server is observable WHILE it
// runs, not only from its exit-time exports.
//
// Crash consistency: every record is serialized into one buffer and
// appended with a single write(2) on an O_APPEND descriptor, so records
// from concurrent rank threads interleave whole, never fragmented, and a
// kill -9 can leave at most one torn record at the tail — which the reader
// detects (missing newline or malformed JSON in the final line) and drops
// without losing anything earlier. No fsync: the page cache survives
// process death, and machine-crash durability is not this layer's job.
//
// Delta encoding: counters, histogram bins, and span aggregates are
// emitted as deltas against the writer's previous snapshot for the same
// rank, so steady-state records carry only what changed; every
// `keyframe_every`-th record per rank is a full ("full":1) keyframe that
// re-absolutizes the state, bounding how much a reader that joins late (or
// skips a malformed line) has to trust accumulated deltas. Gauges and
// histogram quantiles are always absolute.
//
// Record kinds (one JSON object per line, schema version "v":1):
//   {"k":"meta", ...}   stream header: pid, interval_ms — written at open
//   {"k":"snap", ...}   metric/span snapshot for one rank (-1 = global)
//   {"k":"step", ...}   per-step reduced StepStats (analysis/insitu_stats)
//   {"k":"final",...}   dying gasp flushed by the flight recorder on a
//                       watchdog stall or crash signal (signal-safe path:
//                       integers + a sanitized reason string, one write)
//
// The exit-time summary (write_summary) is the same "snap" record, full:
// one global record, then one per rank slice. One encoder renders every
// snap record and one decoder (read_stream_file) reads every file.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tess::obs {

/// One histogram of a snap record: n, sum and bins (bucket floor ->
/// count) are cumulative once decoded; quantiles are absolute as emitted.
struct StreamHist {
  double count = 0.0, sum = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  std::map<std::uint64_t, double> bins;
};

/// One rank's cumulative telemetry: what a full "snap" record carries, and
/// what a reader holds after replaying that rank's deltas.
struct SnapState {
  std::map<std::string, double> counters;  ///< nonzero counters
  std::map<std::string, double> gauges;
  std::map<std::string, StreamHist> hists;  ///< nonempty histograms
  /// Span aggregates: name -> (count, total_s).
  std::map<std::string, std::pair<double, double>> spans;
};

struct StreamConfig {
  std::string path;               ///< JSONL output file (appended to)
  std::uint64_t interval_ms = 1000;  ///< gate for interval_elapsed()
  int keyframe_every = 32;        ///< full records every N emissions per rank
};

/// One emission request. `values` is a free-form scalar payload (dotted
/// names, e.g. "stage.write_s") for quantities the metrics registry does
/// not carry per rank, such as a pipeline stage's per-step seconds.
struct StreamSample {
  int step = -1;  ///< simulation step (-1 = not step-scoped)
  int rank = -1;  ///< whose registry slice to emit (-1 = global totals)
  std::map<std::string, double> values;
  bool with_metrics = true;  ///< counters + gauges (slice or totals)
  bool with_hists = false;   ///< histograms + p50/p90/p99 (global values)
  bool with_spans = false;   ///< span aggregates (drains tracer w/o reset)
};

class StreamWriter {
 public:
  explicit StreamWriter(StreamConfig config);
  ~StreamWriter();
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  [[nodiscard]] const StreamConfig& config() const { return config_; }

  /// Emit one "snap" record from the live registry (and tracer, when
  /// with_spans). Thread-safe; one write(2) per record.
  void emit(const StreamSample& sample);
  /// Same, but counters/gauges come from an externally reduced snapshot
  /// (obs/reduce.hpp) instead of the live registry; histograms still read
  /// the live registry (the reduction strips bins, and ranks share one
  /// process here, so the global bins ARE the reduced bins).
  void emit(const StreamSample& sample, const MetricsSnapshot& metrics);

  /// Append one caller-serialized record (must be a full JSON object
  /// including its "k" kind; no trailing newline). Used by the StepStats
  /// record kind.
  void append_record(const std::string& json_object);

  /// True (and arms the gate) when interval_ms has elapsed since the last
  /// interval emission — the rate limit for non-step-scoped emitters
  /// (auto-ghost passes, query service).
  bool interval_elapsed();

  /// Signal-safe dying gasp: one write(2) of a {"k":"final"} record built
  /// from integers and a sanitized copy of `reason` — no allocation, no
  /// locks. Safe to call from the flight recorder's crash handler.
  void emit_final(const char* reason) noexcept;

  /// Milliseconds since the process trace epoch (now_ns()/1e6).
  [[nodiscard]] static double now_ms();

 private:
  struct Impl;
  void emit_impl(const StreamSample& sample,
                 const MetricsSnapshot& metric_src,
                 const MetricsSnapshot& hist_src);
  /// Append one already-terminated line with a single write(2).
  void append_record_line(const std::string& line);
  StreamConfig config_;
  int fd_ = -1;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> last_interval_ns_{0};
  std::unique_ptr<Impl> impl_;  ///< delta state, guarded by its mutex
};

/// Process-global streamer: non-null once configured (configure_stream or
/// the TESS_OBS_STREAM / TESS_OBS_STREAM_MS environment variables,
/// evaluated before main like the flight recorder). The pointer load is
/// lock-free, so emission points can probe it on hot-ish paths and the
/// flight recorder can reach it from a signal handler.
[[nodiscard]] StreamWriter* stream() noexcept;

/// Install (or replace) the global streamer. An empty path disables it.
void configure_stream(StreamConfig config);
void shutdown_stream();

/// TESS_OBS_STREAM names the stream file; setting only TESS_OBS_STREAM_MS
/// also enables streaming, to "<TESS_OBS_EXPORT or tess>.stream.jsonl".
/// Returns whether a streamer was installed.
bool configure_stream_from_env();

/// Write the exit-time summary to `path` (conventionally
/// <prefix>.summary.jsonl) as full "snap" records: first the global record
/// (rank -1) with every nonzero counter, every gauge, every nonempty
/// histogram with its p50/p90/p99, the span count and total seconds per
/// name, and "trace.lanes" / "trace.dropped_spans" in "val"; then one
/// record per rank >= 0 holding that rank's counter and gauge slices.
/// Throws like write_text_file when the file cannot be written.
void write_summary(const std::string& path, const TraceDump& dump,
                   const MetricsSnapshot& metrics);

// ---------------------------------------------------------------------------
// Reader side: torn-tail-tolerant decode, used by tools/tess_top,
// tools/obs_compare and tests.
// ---------------------------------------------------------------------------

/// One decoded record. For "snap" records the inherited metric maps hold
/// CUMULATIVE values (the reader re-accumulates the writer's deltas per
/// rank); for "step"/"meta"/"final" records the numeric payload is
/// flattened into `values` with dotted names ("volume.mean", "cells",
/// "reason" excluded).
struct StreamRecord : SnapState {
  std::string kind;
  std::uint64_t seq = 0;
  double t_ms = 0.0;
  int step = -1;
  int rank = -1;
  bool full = false;
  std::map<std::string, double> values;
};

/// Parse one line (without its newline) into a RAW record — snap metric
/// maps still hold deltas. Returns false on malformed input: a torn tail,
/// bad JSON, or a "seq", "step" or "rank" that is not a finite integer in
/// range.
bool parse_stream_record(const std::string& line, StreamRecord& out);

struct StreamFile {
  std::vector<StreamRecord> records;  ///< decoded, deltas accumulated
  std::size_t dropped = 0;  ///< torn/malformed lines dropped (tail or not)
};

/// Incremental decoder: feed it raw bytes as they appear (tailing) and it
/// yields complete decoded records, holding back a trailing partial line
/// until its newline arrives. Accumulates per-rank delta state across
/// calls; a "full" keyframe resets that rank's state.
class StreamDecoder {
 public:
  /// Decode every complete record in `bytes` (appended to any held-back
  /// partial line). Malformed complete lines bump dropped() and are
  /// skipped.
  std::vector<StreamRecord> feed(const std::string& bytes);
  /// Count of malformed complete lines seen so far.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// Bytes of an unterminated tail currently held back (a torn tail iff
  /// the stream is known to be complete).
  [[nodiscard]] std::size_t pending_bytes() const { return partial_.size(); }

 private:
  void accumulate(StreamRecord& rec);
  std::string partial_;
  std::size_t dropped_ = 0;
  std::map<int, SnapState> state_;
};

/// Read and decode a whole stream file. A trailing line without a newline,
/// or any malformed line, is dropped and counted — every complete record
/// survives (the crash-consistency contract).
StreamFile read_stream_file(const std::string& path);

// ---------------------------------------------------------------------------
// Drift detection (tess_top --check): EWMA baseline + ratio threshold.
// ---------------------------------------------------------------------------

struct DriftOptions {
  double alpha = 0.3;       ///< EWMA smoothing factor
  double threshold = 1.75;  ///< sample drifts when > baseline * threshold
  int sustain = 3;          ///< consecutive drifting samples required
  int warmup = 3;           ///< samples seeding the baseline (never flag)
  double min_value = 1e-9;  ///< baseline floor (avoids 0-baseline blowups)
};

struct DriftResult {
  bool drifted = false;
  std::size_t first_index = 0;  ///< start of the sustained run
  double value = 0.0;           ///< last sample of the run
  double baseline = 0.0;        ///< EWMA the run was judged against
  [[nodiscard]] double ratio() const {
    return baseline > 0.0 ? value / baseline : 0.0;
  }
};

/// Flag a sustained upward drift: after `warmup` samples seed the EWMA,
/// a sample exceeding baseline*threshold starts (or extends) a run;
/// `sustain` consecutive such samples trip the detector. The baseline
/// does NOT absorb drifting samples — otherwise it would chase the
/// regression and un-flag it.
DriftResult detect_drift(const std::vector<double>& series,
                         const DriftOptions& options);

struct StreamCheckOptions {
  DriftOptions drift{};
};

struct StreamCheckReport {
  bool ok = true;
  std::size_t records = 0;
  std::size_t dropped = 0;
  /// rank -> snap-record count (rank >= 0 only).
  std::map<int, std::size_t> rank_records;
  /// Distinct steps across rank records that carry "stage.step_s" (the
  /// pipeline's per-step records; mid-step heartbeats don't count).
  int steps_seen = 0;
  bool quantiles_seen = false;  ///< any histogram with p99 present
  std::vector<std::string> findings;  ///< one line per sustained drift
};

/// Cross-step drift detection over a decoded stream: per-rank step
/// wall-time (t_ms deltas between a rank's step-scoped snap records),
/// per-step imbalance factor (max/mean across ranks of "stage.step_s"),
/// and global stall fraction (delta of pipeline.stall.* span seconds per
/// second of wall, from span-bearing global records). `ok` is false when
/// any series shows sustained drift.
StreamCheckReport check_stream(const StreamFile& file,
                               const StreamCheckOptions& options);

}  // namespace tess::obs
