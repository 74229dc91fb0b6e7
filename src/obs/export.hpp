// Exporters for the observability layer: chrome://tracing JSON (one lane
// per rank×thread), span aggregation by name, and the reader for
// google-benchmark files that feed the same regression gate as the
// exit-time summary (which obs/stream.hpp writes as stream records).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace tess::obs {

/// Per-name span aggregate across every lane of a dump.
struct SpanAgg {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< summed wall-clock duration
};

/// Aggregate spans by name, sorted by name.
[[nodiscard]] std::vector<SpanAgg> aggregate_spans(const TraceDump& dump);

/// chrome://tracing "trace event" JSON: complete ("X") events with
/// pid = rank + 1 (0 = unranked threads) and tid = the process-unique
/// thread ordinal, plus process/thread name metadata — load the file via
/// chrome://tracing or https://ui.perfetto.dev.
[[nodiscard]] std::string chrome_trace_json(const TraceDump& dump);

/// One row of the regression gate's input (obs/analyze.hpp): a span,
/// counter, gauge or histogram of a summary record (summary_rows), or a
/// google-benchmark row (parse_benchmark_json).
struct SummaryRow {
  std::string kind;
  std::string name;
  double count = 0.0;
  double total = 0.0;
  double min = 0.0;  ///< histogram rows: p50
  double max = 0.0;  ///< histogram rows: p99
  /// Histogram rows: lowest/highest occupied bucket floor (-1 = no
  /// occupied bucket). compare_summaries uses these to flag bucket-layout
  /// changes between two summaries.
  double bins_lo = -1.0;
  double bins_hi = -1.0;
};

/// Parse a google-benchmark `--benchmark_format=json` file into rows of
/// kind "bench": one row per benchmark, `count` = iterations, `total` =
/// per-iteration real time in seconds, `min`/`max` = per-iteration CPU
/// time in seconds. A benchmark run with --benchmark_repetitions yields
/// one row, its fastest repetition (smallest per-iteration real time);
/// aggregate rows (mean, median, stddev) are skipped. When
/// `build_type` is non-null it receives the context's "tess_build_type"
/// (falling back to google-benchmark's own "library_build_type", empty if
/// neither is present) so callers can flag debug-build numbers. Feeds the
/// same compare_summaries gate as span summaries — pass --min-seconds 0 to
/// obs_compare, since per-iteration times sit far below the span noise
/// floor.
[[nodiscard]] std::vector<SummaryRow> parse_benchmark_json(
    const std::string& text, std::string* build_type = nullptr);

/// Write `text` to `path`, replacing it. Throws when the file cannot be
/// opened or any byte of it (the final flush included) fails to land.
void write_text_file(const std::string& path, const std::string& text);

inline void write_chrome_trace(const std::string& path,
                               const TraceDump& dump) {
  write_text_file(path, chrome_trace_json(dump));
}

}  // namespace tess::obs
