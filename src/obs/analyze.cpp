#include "obs/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace tess::obs {

bool is_wait_span(std::string_view name) {
  return name.size() >= 5 && name.substr(name.size() - 5) == ".wait";
}

namespace {

std::string fmt(double v, int prec = 4) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string fmt_g(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Per-lane pass: for every span, compute the *.wait time nested inside it.
/// Records are exit-ordered (a post-order traversal of the span forest), so
/// a subtree's accumulated wait is pending at depth d+1 when its parent at
/// depth d is recorded. Ring drops truncate oldest records — any pending
/// wait whose parent was dropped is simply never attributed.
std::vector<double> nested_wait_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<double> wait(spans.size(), 0.0);
  std::vector<double> pending;  // indexed by depth: wait awaiting a parent
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (pending.size() <= s.depth + 1) pending.resize(s.depth + 2, 0.0);
    const double child_wait = pending[s.depth + 1];
    pending[s.depth + 1] = 0.0;
    wait[i] = child_wait;
    const double subtree =
        is_wait_span(s.name)
            ? child_wait + static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9
            : child_wait;
    pending[s.depth] += subtree;
  }
  return wait;
}

}  // namespace

const PhaseStats* ImbalanceReport::find(std::string_view name) const {
  for (const auto& p : phases)
    if (p.name == name) return &p;
  return nullptr;
}

double imbalance_factor(const std::vector<double>& per_rank) {
  if (per_rank.empty()) return 1.0;
  double max = 0.0, sum = 0.0;
  for (double v : per_rank) {
    if (v > max) max = v;
    sum += v;
  }
  const double mean = sum / static_cast<double>(per_rank.size());
  return mean > 0.0 ? max / mean : 1.0;
}

ImbalanceReport analyze_imbalance(const TraceDump& dump) {
  ImbalanceReport report;
  report.lanes = dump.lanes.size();
  report.total_spans = dump.total_spans();
  report.dropped_spans = dump.total_dropped();

  // phase name -> rank -> aggregate.
  std::map<std::string, std::map<int, RankPhase>> agg;
  std::vector<int> ranks_seen;
  for (const auto& lane : dump.lanes) {
    if (!lane.spans.empty() && lane.rank >= 0) ranks_seen.push_back(lane.rank);
    const auto wait = nested_wait_seconds(lane.spans);
    for (std::size_t i = 0; i < lane.spans.size(); ++i) {
      const auto& s = lane.spans[i];
      const double dur = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
      RankPhase& rp = agg[s.name][lane.rank];
      rp.rank = lane.rank;
      rp.count += 1;
      rp.total_s += dur;
      rp.wait_s += wait[i];
      if (s.depth == 0) rp.root_s += dur;
    }
  }
  std::sort(ranks_seen.begin(), ranks_seen.end());
  ranks_seen.erase(std::unique(ranks_seen.begin(), ranks_seen.end()),
                   ranks_seen.end());
  report.nranks = static_cast<int>(ranks_seen.size());

  for (auto& [name, by_rank] : agg) {
    PhaseStats ps;
    ps.name = name;
    ps.is_wait = is_wait_span(name);
    double ranked_total = 0.0;
    double root_max = 0.0, root_total = 0.0;
    bool has_root = false;
    for (auto& [rank, rp] : by_rank) {
      ps.total_s += rp.total_s;
      ps.wait_s += rp.wait_s;
      if (rank >= 0) {
        ranked_total += rp.total_s;
        if (ps.slowest_rank < 0 || rp.total_s > ps.max_s) {
          ps.max_s = rp.total_s;
          ps.slowest_rank = rank;
        }
        if (rp.root_s > 0.0) {
          has_root = true;
          root_max = std::max(root_max, rp.root_s);
          root_total += rp.root_s;
        }
      }
      ps.ranks.push_back(rp);
    }
    ps.mean_s =
        report.nranks > 0 ? ranked_total / report.nranks : 0.0;
    if (ps.is_wait) report.wait_total_s += ps.total_s;
    if (has_root && report.nranks > 0) {
      report.critical_path_s += root_max;
      report.ideal_path_s += root_total / report.nranks;
    }
    report.phases.push_back(std::move(ps));
  }
  return report;
}

std::string imbalance_markdown(const ImbalanceReport& report) {
  std::ostringstream os;
  os << "# Load imbalance by phase\n\n";
  os << "ranks: " << report.nranks << " · lanes: " << report.lanes
     << " · spans: " << report.total_spans;
  if (report.dropped_spans > 0) os << " (+" << report.dropped_spans << " dropped)";
  os << "\n\n";
  os << "critical path (root spans, slowest rank per phase): "
     << fmt(report.critical_path_s) << " s · balanced ideal: "
     << fmt(report.ideal_path_s) << " s · imbalance slack: "
     << fmt(100.0 * report.slack(), 1) << "%\n\n";
  if (report.phases.empty()) {
    os << "(no spans recorded)\n";
    return os.str();
  }
  os << "| phase | count | total s | max s | mean s | max/mean | slowest "
        "rank | wait s | wait % |\n";
  os << "|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& p : report.phases) {
    std::uint64_t count = 0;
    for (const auto& r : p.ranks) count += r.count;
    const double wait_pct =
        p.total_s > 0.0 ? 100.0 * p.wait_s / p.total_s : 0.0;
    os << "| " << p.name << " | " << count << " | " << fmt(p.total_s) << " | "
       << fmt(p.max_s) << " | " << fmt(p.mean_s) << " | "
       << fmt(p.imbalance(), 2) << " | "
       << (p.slowest_rank < 0 ? std::string("-")
                              : std::to_string(p.slowest_rank))
       << " | " << fmt(p.wait_s) << " | " << fmt(wait_pct, 1) << " |\n";
  }
  return os.str();
}

std::string imbalance_tsv(const ImbalanceReport& report) {
  std::ostringstream os;
  os << "phase\trank\tcount\ttotal_s\twait_s\tbusy_s\n";
  for (const auto& p : report.phases)
    for (const auto& r : p.ranks)
      os << p.name << "\t" << r.rank << "\t" << r.count << "\t"
         << fmt_g(r.total_s) << "\t" << fmt_g(r.wait_s) << "\t"
         << fmt_g(r.busy_s()) << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Summary comparison (perf-regression gate)
// ---------------------------------------------------------------------------

std::vector<SummaryRow> summary_rows(const StreamRecord& rec) {
  std::vector<SummaryRow> rows;
  for (const auto& [name, cs] : rec.spans)
    rows.push_back({"span", name, cs.first, cs.second});
  for (const auto& [name, v] : rec.counters)
    rows.push_back({"counter", name, 1.0, v});
  for (const auto& [name, v] : rec.gauges)
    rows.push_back({"gauge", name, 1.0, v});
  for (const auto& [name, h] : rec.hists) {
    SummaryRow row{"histogram", name, h.count, h.sum, h.p50, h.p99};
    if (!h.bins.empty()) {
      row.bins_lo = static_cast<double>(h.bins.begin()->first);
      row.bins_hi = static_cast<double>(h.bins.rbegin()->first);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

CompareResult compare_summaries(const std::vector<SummaryRow>& baseline,
                                const std::vector<SummaryRow>& current,
                                const CompareOptions& options) {
  // Spans (wall seconds summed per phase) and bench rows (per-iteration
  // seconds from parse_benchmark_json) ride the same gate; counters/gauges/
  // histograms are not times and stay out.
  const auto timed = [](const SummaryRow& r) {
    return r.kind == "span" || r.kind == "bench";
  };
  std::map<std::string, double> base, cur;
  for (const auto& r : baseline)
    if (timed(r)) base[r.name] += r.total;
  for (const auto& r : current)
    if (timed(r)) cur[r.name] += r.total;

  CompareResult result;
  std::map<std::string, std::pair<const double*, const double*>> names;
  for (const auto& [name, v] : base) names[name].first = &v;
  for (const auto& [name, v] : cur) names[name].second = &v;

  for (const auto& [name, sides] : names) {
    PhaseDelta d;
    d.name = name;
    d.baseline_s = sides.first != nullptr ? *sides.first : 0.0;
    d.current_s = sides.second != nullptr ? *sides.second : 0.0;
    const auto it = options.per_phase.find(name);
    d.threshold = it != options.per_phase.end() ? it->second
                                                : options.threshold;
    d.ratio = d.baseline_s > 0.0 ? d.current_s / d.baseline_s : 0.0;
    if (sides.first == nullptr) {
      d.verdict = PhaseDelta::Verdict::kAdded;
    } else if (sides.second == nullptr) {
      d.verdict = PhaseDelta::Verdict::kRemoved;
    } else if (d.baseline_s < options.min_seconds &&
               d.current_s < options.min_seconds) {
      d.verdict = PhaseDelta::Verdict::kSkipped;
    } else if (d.baseline_s > 0.0 &&
               d.current_s > d.baseline_s * (1.0 + d.threshold)) {
      d.verdict = PhaseDelta::Verdict::kRegression;
      result.regressed = true;
    } else if (d.baseline_s > 0.0 &&
               d.current_s < d.baseline_s * (1.0 - d.threshold)) {
      d.verdict = PhaseDelta::Verdict::kImproved;
    }
    result.deltas.push_back(std::move(d));
  }

  // Histogram rows gate on p99 (carried in SummaryRow::max). Means hide
  // tail regressions — a serve.query histogram can keep its mean while its
  // p99 doubles — so the gate watches the quantile directly.
  struct HistSide {
    bool present = false;
    double p99 = 0.0;
    double lo = -1.0, hi = -1.0;
  };
  std::map<std::string, std::pair<HistSide, HistSide>> hists;
  for (const auto& r : baseline)
    if (r.kind == "histogram")
      hists[r.name].first = {true, r.max, r.bins_lo, r.bins_hi};
  for (const auto& r : current)
    if (r.kind == "histogram")
      hists[r.name].second = {true, r.max, r.bins_lo, r.bins_hi};

  for (const auto& [name, sides] : hists) {
    const auto& [b, c] = sides;
    PhaseDelta d;
    d.name = name + ".p99";
    auto it = options.per_phase.find(d.name);
    if (it == options.per_phase.end()) it = options.per_phase.find(name);
    d.threshold =
        it != options.per_phase.end() ? it->second : options.threshold;
    d.baseline_s = b.p99;
    d.current_s = c.p99;
    d.ratio = d.baseline_s > 0.0 ? d.current_s / d.baseline_s : 0.0;
    if (!b.present) {
      d.verdict = PhaseDelta::Verdict::kAdded;
    } else if (!c.present) {
      d.verdict = PhaseDelta::Verdict::kRemoved;
    } else if (d.baseline_s > 0.0 &&
               d.current_s > d.baseline_s * (1.0 + d.threshold)) {
      d.verdict = PhaseDelta::Verdict::kRegression;
      result.regressed = true;
    } else if (d.baseline_s > 0.0 &&
               d.current_s < d.baseline_s * (1.0 - d.threshold)) {
      d.verdict = PhaseDelta::Verdict::kImproved;
    }
    result.deltas.push_back(std::move(d));

    if (b.present && c.present && b.lo >= 0.0 && c.lo >= 0.0 &&
        (b.lo != c.lo || b.hi != c.hi)) {
      result.notes.push_back("histogram " + name +
                             ": occupied bucket range changed [" +
                             fmt_g(b.lo) + ", " + fmt_g(b.hi) + "] -> [" +
                             fmt_g(c.lo) + ", " + fmt_g(c.hi) + "]");
    }
  }
  std::sort(result.deltas.begin(), result.deltas.end(),
            [](const PhaseDelta& a, const PhaseDelta& b2) {
              return a.name < b2.name;
            });
  return result;
}

std::string compare_markdown(const CompareResult& result,
                             const CompareOptions& options) {
  std::ostringstream os;
  os << "# Perf-regression gate: summary diff\n\n";
  os << "default threshold: +" << fmt(100.0 * options.threshold, 0)
     << "% · noise floor: " << fmt_g(options.min_seconds) << " s\n\n";
  os << "**verdict: "
     << (result.regressed
             ? "REGRESSED (" + std::to_string(result.regressions()) +
                   " phase(s) over threshold)"
             : "ok")
     << "**\n\n";
  os << "| phase | baseline s | current s | ratio | threshold | verdict |\n";
  os << "|---|---|---|---|---|---|\n";
  for (const auto& d : result.deltas) {
    const char* verdict = "ok";
    switch (d.verdict) {
      case PhaseDelta::Verdict::kRegression: verdict = "**REGRESSION**"; break;
      case PhaseDelta::Verdict::kImproved: verdict = "improved"; break;
      case PhaseDelta::Verdict::kAdded: verdict = "added"; break;
      case PhaseDelta::Verdict::kRemoved: verdict = "removed"; break;
      case PhaseDelta::Verdict::kSkipped: verdict = "below noise floor"; break;
      case PhaseDelta::Verdict::kOk: break;
    }
    os << "| " << d.name << " | " << fmt_g(d.baseline_s) << " | "
       << fmt_g(d.current_s) << " | "
       << (d.baseline_s > 0.0 ? fmt(d.ratio, 2) : std::string("-")) << " | +"
       << fmt(100.0 * d.threshold, 0) << "% | " << verdict << " |\n";
  }
  if (!result.notes.empty()) {
    os << "\n**notes** (informational, never gate):\n\n";
    for (const auto& note : result.notes) os << "- " << note << "\n";
  }
  return os.str();
}

}  // namespace tess::obs
