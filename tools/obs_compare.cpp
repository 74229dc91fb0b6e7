// obs_compare — the perf-regression gate's CLI (see DESIGN.md §4.8).
//
// Diffs two observability summaries (the .summary.json / .summary.tsv
// files the benches write under TESS_OBS_EXPORT) phase by phase and exits
// nonzero when any phase's wall time regressed past its threshold:
//
//   obs_compare baseline.summary.json current.summary.json
//       [--threshold 0.20] [--min-seconds 1e-3]
//       [--phase-threshold name=0.5]... [--report report.md]
//
// Exit codes: 0 = within thresholds, 1 = regression, 2 = usage/IO error.
// Phases present on only one side are reported but never fail the gate
// (instrumentation legitimately comes and goes across commits).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/analyze.hpp"
#include "obs/export.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " <baseline.summary.{json,tsv}> <current.summary.{json,tsv}>\n"
         "  [--threshold F]        default allowed slowdown fraction "
         "(default 0.20)\n"
         "  [--min-seconds F]      noise floor: phases below this on both "
         "sides are skipped (default 1e-3)\n"
         "  [--phase-threshold name=F]  per-phase override (repeatable)\n"
         "  [--report PATH]        also write the markdown report to PATH\n"
         "exit codes: 0 ok, 1 regression, 2 usage/IO error\n";
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::vector<tess::obs::SummaryRow> load_summary(const std::string& path) {
  const std::string text = read_file(path);
  if (ends_with(path, ".tsv")) return tess::obs::parse_summary_tsv(text);
  // google-benchmark --benchmark_out files carry a "benchmarks" array; obs
  // summaries never do. Route them through the bench parser and flag files
  // recorded from a debug build — their numbers poison the gate silently.
  if (text.find("\"benchmarks\"") != std::string::npos) {
    std::string build_type;
    auto rows = tess::obs::parse_benchmark_json(text, &build_type);
    if (build_type == "debug")
      std::cerr << "obs_compare: WARNING: '" << path
                << "' was recorded from a DEBUG build; its numbers are not "
                   "comparable to release baselines (re-record with "
                   "-DCMAKE_BUILD_TYPE=Release)\n";
    return rows;
  }
  return tess::obs::parse_summary_json(text);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path, report_path;
  tess::obs::CompareOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "obs_compare: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threshold") {
      options.threshold = std::atof(value());
    } else if (arg == "--min-seconds") {
      options.min_seconds = std::atof(value());
    } else if (arg == "--phase-threshold") {
      const std::string spec = value();
      const std::size_t eq = spec.rfind('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "obs_compare: --phase-threshold expects name=F, got '"
                  << spec << "'\n";
        return 2;
      }
      options.per_phase[spec.substr(0, eq)] =
          std::atof(spec.c_str() + eq + 1);
    } else if (arg == "--report") {
      report_path = value();
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "obs_compare: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (baseline_path.empty() || current_path.empty()) return usage(argv[0]);

  try {
    const auto baseline = load_summary(baseline_path);
    const auto current = load_summary(current_path);
    const auto result =
        tess::obs::compare_summaries(baseline, current, options);
    const std::string report = tess::obs::compare_markdown(result, options);
    std::cout << report;
    if (!report_path.empty())
      tess::obs::write_text_file(report_path, report);
    return result.regressed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "obs_compare: " << e.what() << "\n";
    return 2;
  }
}
