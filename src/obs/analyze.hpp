// Diagnostics on top of the raw observability layer (see DESIGN.md §4.8):
// turns a drained span snapshot into the per-phase × per-rank load-imbalance
// report the paper's scaling discussion calls for — which rank is the
// straggler in each phase, how much of its time is barrier/recv wait, and
// what the critical path across ranks looks like — plus the summary-diff
// used by the perf-regression gate (tools/obs_compare).
//
// The analyzer consumes plain TraceDump / SummaryRow values, so it works on
// live drains, on exported files, and on synthetic span sets in tests; it
// has no dependency on comm and compiles identically under -DTESS_OBS=OFF.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace tess::obs {

/// Spans whose name ends in ".wait" are wait time (blocked in a barrier or
/// a recv), not work; the analyzer subtracts them from the enclosing
/// phase's busy time and attributes them to it.
[[nodiscard]] bool is_wait_span(std::string_view name);

/// One rank's contribution to one phase. Lanes of the same rank (the rank
/// thread plus its pool workers) are merged.
struct RankPhase {
  int rank = -1;
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< summed wall time of this phase on this rank
  double wait_s = 0.0;   ///< *.wait span time nested inside this phase
  double root_s = 0.0;   ///< wall time of depth-0 occurrences only
  [[nodiscard]] double busy_s() const { return total_s - wait_s; }
};

/// Per-phase aggregate across ranks. `mean_s` divides by the number of
/// ranks seen anywhere in the dump (absent ranks count as zero), so a
/// phase executed by a subset of ranks shows up as imbalanced.
struct PhaseStats {
  std::string name;
  bool is_wait = false;
  std::vector<RankPhase> ranks;  ///< ascending by rank; -1 = unranked lanes
  double total_s = 0.0;
  double wait_s = 0.0;
  double max_s = 0.0;   ///< slowest rank's total (the phase critical path)
  double mean_s = 0.0;  ///< mean over all ranked ranks
  int slowest_rank = -1;
  /// Max/mean imbalance factor over ranked lanes (1 = perfectly balanced).
  [[nodiscard]] double imbalance() const {
    return mean_s > 0.0 ? max_s / mean_s : (max_s > 0.0 ? 0.0 : 1.0);
  }
};

struct ImbalanceReport {
  int nranks = 0;  ///< distinct ranks (>= 0) seen in the dump
  std::size_t lanes = 0;
  std::size_t total_spans = 0;
  std::uint64_t dropped_spans = 0;
  std::vector<PhaseStats> phases;  ///< sorted by name
  /// Sum over root phases of the slowest rank's depth-0 time: the wall
  /// clock a distributed run converges to (phases separated by barriers).
  double critical_path_s = 0.0;
  /// Same sum with the per-rank mean — the perfectly balanced ideal.
  double ideal_path_s = 0.0;
  /// Total *.wait time across all ranks.
  double wait_total_s = 0.0;
  [[nodiscard]] const PhaseStats* find(std::string_view name) const;
  /// (critical - ideal) / critical: fraction of the critical path that is
  /// pure imbalance slack (0 = perfectly balanced).
  [[nodiscard]] double slack() const {
    return critical_path_s > 0.0
               ? (critical_path_s - ideal_path_s) / critical_path_s
               : 0.0;
  }
};

/// Max/mean imbalance factor of one value per rank (1 = perfectly
/// balanced, 0 treated as balanced). The adaptive decomposition loop feeds
/// per-rank tess.build_cells seconds through this to decide whether to
/// repartition; it is the same max/mean convention as PhaseStats.
[[nodiscard]] double imbalance_factor(const std::vector<double>& per_rank);

/// Build the per-phase × per-rank report from a drained snapshot. Wait
/// attribution reconstructs each lane's span tree from the exit-ordered
/// records (children precede parents; depth disambiguates), so a
/// comm.barrier.wait nested under tess.pass is charged to tess.pass on
/// that rank. Tolerates ring-dropped prefixes: orphaned wait time is
/// simply not attributed.
[[nodiscard]] ImbalanceReport analyze_imbalance(const TraceDump& dump);

/// Human-readable markdown: summary header plus one row per phase naming
/// the slowest rank, the max/mean factor, and the wait share.
[[nodiscard]] std::string imbalance_markdown(const ImbalanceReport& report);

/// Full matrix, one row per (phase, rank):
///   phase<TAB>rank<TAB>count<TAB>total_s<TAB>wait_s<TAB>busy_s
[[nodiscard]] std::string imbalance_tsv(const ImbalanceReport& report);

// ---------------------------------------------------------------------------
// Perf-regression comparison of two exported summaries (the gate behind
// tools/obs_compare). Operates on the SummaryRow lists produced by
// summary_rows (a summary's global record) or parse_benchmark_json.
// ---------------------------------------------------------------------------

/// The gate's rows for one decoded "snap" record: spans (count, total
/// seconds), counters and gauges (value as `total`), and histograms (n as
/// `count`, sum as `total`, p50/p99 as `min`/`max`, and the lowest and
/// highest occupied bucket floor as `bins_lo`/`bins_hi`).
[[nodiscard]] std::vector<SummaryRow> summary_rows(const StreamRecord& rec);

struct CompareOptions {
  /// A phase regresses when current > baseline * (1 + threshold).
  double threshold = 0.20;
  /// Phases where both sides are below this many seconds are ignored
  /// (timer noise dominates tiny phases).
  double min_seconds = 1e-3;
  /// Per-phase threshold overrides (name -> fraction).
  std::map<std::string, double> per_phase;
};

struct PhaseDelta {
  enum class Verdict { kOk, kRegression, kImproved, kAdded, kRemoved, kSkipped };
  std::string name;
  double baseline_s = 0.0;
  double current_s = 0.0;
  double ratio = 0.0;  ///< current / baseline (0 when baseline is 0)
  double threshold = 0.0;
  Verdict verdict = Verdict::kOk;
};

struct CompareResult {
  std::vector<PhaseDelta> deltas;  ///< sorted by name
  bool regressed = false;
  /// Informational findings that never fail the gate — currently histogram
  /// bucket-layout changes (a p99 delta computed over different occupied
  /// bucket ranges measures the layout shift, not a regression).
  std::vector<std::string> notes;
  [[nodiscard]] std::size_t regressions() const {
    std::size_t n = 0;
    for (const auto& d : deltas)
      if (d.verdict == PhaseDelta::Verdict::kRegression) ++n;
    return n;
  }
};

/// Diff the timed rows of two summaries per phase — "span" rows (wall
/// seconds) and "bench" rows (per-iteration seconds from
/// parse_benchmark_json) gate on `total`; "histogram" rows gate on p99
/// (as "<name>.p99" deltas, with per-phase overrides matched on either
/// the suffixed or the bare name; no noise floor — histogram units are
/// not seconds); counters/gauges are ignored. Phases present on only one
/// side are reported as added/removed but never fail the gate
/// (instrumentation legitimately moves). Histograms whose occupied bucket
/// range changed are flagged in `notes`.
[[nodiscard]] CompareResult compare_summaries(
    const std::vector<SummaryRow>& baseline,
    const std::vector<SummaryRow>& current, const CompareOptions& options);

/// Markdown report of the comparison (the CI artifact).
[[nodiscard]] std::string compare_markdown(const CompareResult& result,
                                           const CompareOptions& options);

}  // namespace tess::obs
