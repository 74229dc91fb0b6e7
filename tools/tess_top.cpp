// tess_top — watch a live (or finished) telemetry stream (DESIGN.md §4.13).
//
// Tails one or more stream JSONL files written by obs::StreamWriter and
// renders a refreshing per-rank table: step progress and rate, per-stage
// seconds for the latest step, queue depths, the cross-rank imbalance
// factor, and the global histogram quantiles (query latency p99s, cell
// counts, ...). Torn tails and mid-write records are handled by the
// incremental decoder — tess_top never sees a fragment.
//
//   tess_top run.stream.jsonl                    # live, refreshing view
//   tess_top --once run.stream.jsonl             # render once and exit
//   tess_top --check run.stream.jsonl            # batch drift detection
//
// --check reads the whole file(s), runs EWMA drift detection over per-rank
// step wall time, cross-rank imbalance factor, and global stall fraction
// (obs::check_stream), prints one finding per sustained drift, and exits
// nonzero — the CI soft gate.
//
// Exit codes: 0 = ok, 1 = sustained drift (--check only), 2 = usage/IO.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/stream.hpp"
#include "util/table.hpp"

namespace {

using tess::obs::StreamCheckOptions;
using tess::obs::StreamDecoder;
using tess::obs::StreamFile;
using tess::obs::StreamRecord;
using tess::util::Table;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] <stream.jsonl>...\n"
         "  --check                batch mode: decode everything, run drift\n"
         "                         detection, exit 1 on sustained drift\n"
         "  --once                 render the table once and exit\n"
         "  --refresh-ms N         live refresh period (default 1000)\n"
         "  --iterations N         stop after N refreshes (default: forever)\n"
         "  --no-clear             do not clear the screen between refreshes\n"
         "  --drift-threshold F    drift ratio vs EWMA baseline (default "
         "1.75)\n"
         "  --drift-sustain N      consecutive drifting samples (default 3)\n"
         "  --drift-alpha F        EWMA smoothing factor (default 0.3)\n"
         "  --drift-warmup N       baseline warmup samples (default 3)\n"
         "exit codes: 0 ok, 1 sustained drift (--check), 2 usage/IO error\n";
  return 2;
}

/// Everything the table needs, folded incrementally from decoded records.
struct RankView {
  int last_step = -1;
  std::size_t step_records = 0;
  double first_step_t_ms = 0.0;  ///< t_ms of the first per-step record
  double last_step_t_ms = 0.0;
  double exchange_s = 0.0, compute_s = 0.0, write_s = 0.0, step_s = 0.0;
  double queue_tess = 0.0, queue_write = 0.0;
  double ghost_pass = 0.0;  ///< latest auto-ghost heartbeat, 0 = none
};

struct View {
  std::map<int, RankView> ranks;
  /// step -> rank -> step seconds, for the imbalance factor; pruned so a
  /// long tail session does not grow without bound.
  std::map<int, std::map<int, double>> step_seconds;
  std::map<std::string, tess::obs::StreamHist> hists;  ///< latest global
  double stall_fraction = -1.0;  ///< cumulative stall s / (wall s * ranks)
  double first_span_t_ms = 0.0, last_span_t_ms = 0.0;
  double stall_seconds = 0.0;
  long long cells = -1;          ///< latest {"k":"step"} record
  double volume_mean = 0.0;
  std::string final_reason;      ///< nonempty once a {"k":"final"} arrived
  std::size_t records = 0, dropped = 0;

  void fold(const StreamRecord& rec);
  [[nodiscard]] double imbalance() const;
  [[nodiscard]] std::string render() const;
};

double sum_stall_spans(const StreamRecord& rec) {
  double s = 0.0;
  for (const auto& [name, agg] : rec.spans)
    if (name.rfind("pipeline.stall.", 0) == 0) s += agg.second;
  return s;
}

void View::fold(const StreamRecord& rec) {
  ++records;
  if (rec.kind == "final") {
    final_reason = "final record seen (crash/stall dying gasp)";
    return;
  }
  if (rec.kind == "step") {
    auto cell_it = rec.values.find("cells");
    if (cell_it != rec.values.end())
      cells = static_cast<long long>(cell_it->second);
    auto mean_it = rec.values.find("volume.mean");
    if (mean_it != rec.values.end()) volume_mean = mean_it->second;
    return;
  }
  if (rec.kind != "snap") return;

  if (rec.rank < 0) {
    for (const auto& [name, h] : rec.hists) hists[name] = h;
    if (!rec.spans.empty()) {
      if (first_span_t_ms <= 0.0) first_span_t_ms = rec.t_ms;
      last_span_t_ms = rec.t_ms;
      stall_seconds = sum_stall_spans(rec);
      const double wall_s = (last_span_t_ms - first_span_t_ms) / 1000.0;
      const std::size_t nranks = ranks.empty() ? 1 : ranks.size();
      if (wall_s > 0.0)
        stall_fraction =
            stall_seconds / (wall_s * static_cast<double>(nranks));
    }
    return;
  }

  RankView& rv = ranks[rec.rank];
  auto val = [&rec](const char* key) -> const double* {
    auto it = rec.values.find(key);
    return it == rec.values.end() ? nullptr : &it->second;
  };
  if (const double* g = val("tess.pass.ghost")) rv.ghost_pass = *g;
  auto gauge = [&rec](const char* key, double& out) {
    auto it = rec.gauges.find(key);
    if (it != rec.gauges.end()) out = it->second;
  };
  gauge("pipeline.queue.tess.depth", rv.queue_tess);
  gauge("pipeline.queue.write.depth", rv.queue_write);

  // Per-step pipeline records are the ones carrying stage.step_s;
  // mid-step heartbeats must not count toward step progress.
  const double* step_s = val("stage.step_s");
  if (step_s == nullptr) return;
  rv.last_step = rec.step;
  ++rv.step_records;
  if (rv.first_step_t_ms <= 0.0) rv.first_step_t_ms = rec.t_ms;
  rv.last_step_t_ms = rec.t_ms;
  rv.step_s = *step_s;
  if (const double* v = val("stage.exchange_s")) rv.exchange_s = *v;
  if (const double* v = val("stage.compute_s")) rv.compute_s = *v;
  if (const double* v = val("stage.write_s")) rv.write_s = *v;
  step_seconds[rec.step][rec.rank] = *step_s;
  while (step_seconds.size() > 64)
    step_seconds.erase(step_seconds.begin());
}

double View::imbalance() const {
  // Latest step for which every known rank reported: max/mean step time.
  for (auto it = step_seconds.rbegin(); it != step_seconds.rend(); ++it) {
    if (it->second.size() < ranks.size() || it->second.size() < 2) continue;
    double max = 0.0, sum = 0.0;
    for (const auto& [rank, s] : it->second) {
      (void)rank;
      if (s > max) max = s;
      sum += s;
    }
    const double mean = sum / static_cast<double>(it->second.size());
    return mean > 0.0 ? max / mean : 0.0;
  }
  return 0.0;
}

std::string View::render() const {
  std::ostringstream os;
  os << "tess_top — " << records << " records";
  if (dropped > 0) os << ", " << dropped << " dropped (torn/malformed)";
  os << '\n';
  if (!final_reason.empty()) os << "!! " << final_reason << '\n';

  Table per_rank({"rank", "step", "steps", "step/s", "exch_s", "comp_s",
                  "write_s", "step_s", "q.tess", "q.write", "ghost"});
  for (const auto& [rank, rv] : ranks) {
    const double span_s = (rv.last_step_t_ms - rv.first_step_t_ms) / 1000.0;
    const double rate = span_s > 0.0 && rv.step_records > 1
                            ? static_cast<double>(rv.step_records - 1) / span_s
                            : 0.0;
    per_rank.add_row({Table::cell(static_cast<long long>(rank)),
                      Table::cell(static_cast<long long>(rv.last_step)),
                      Table::cell(rv.step_records), Table::cell(rate),
                      Table::cell(rv.exchange_s, 4),
                      Table::cell(rv.compute_s, 4),
                      Table::cell(rv.write_s, 4), Table::cell(rv.step_s, 4),
                      Table::cell(rv.queue_tess, 0),
                      Table::cell(rv.queue_write, 0),
                      Table::cell(rv.ghost_pass, 3)});
  }
  os << '\n' << per_rank.render();

  const double imb = imbalance();
  os << "\nimbalance factor (max/mean step_s, latest full step): "
     << (imb > 0.0 ? Table::cell(imb) : std::string("n/a"));
  os << "\nstall fraction (stall s / wall s / rank):             "
     << (stall_fraction >= 0.0 ? Table::cell(stall_fraction, 4)
                               : std::string("n/a"));
  if (cells >= 0)
    os << "\nlatest step stats: cells=" << cells
       << " volume.mean=" << Table::cell(volume_mean, 6);
  os << '\n';

  if (!hists.empty()) {
    Table quants({"histogram", "n", "sum", "p50", "p90", "p99"});
    for (const auto& [name, h] : hists)
      quants.add_row({name, Table::cell(h.count, 0), Table::cell(h.sum, 3),
                      Table::cell(h.p50, 3), Table::cell(h.p90, 3),
                      Table::cell(h.p99, 3)});
    os << '\n' << quants.render();
  }
  return os.str();
}

/// One tailed file: remembers its read offset and decoder state across
/// refreshes. Reopens on every poll so rotation/truncation cannot wedge
/// the loop (a shrunk file restarts from byte 0 with fresh state).
struct Tail {
  std::string path;
  std::streamoff offset = 0;
  StreamDecoder decoder;

  /// Append newly arrived records into `view`. Returns false on IO error.
  bool poll(View& view) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < offset) {  // truncated/rotated: start over
      offset = 0;
      decoder = StreamDecoder();
    }
    if (size == offset) return true;
    in.seekg(offset);
    std::string bytes(static_cast<std::size_t>(size - offset), '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes.resize(static_cast<std::size_t>(in.gcount()));
    offset += static_cast<std::streamoff>(bytes.size());
    const std::size_t dropped_before = decoder.dropped();
    for (auto& rec : decoder.feed(bytes)) view.fold(rec);
    // The view sums every tailed file's drops.
    view.dropped += decoder.dropped() - dropped_before;
    return true;
  }
};

int run_check(const std::vector<std::string>& paths,
              const StreamCheckOptions& options) {
  bool ok = true;
  for (const auto& path : paths) {
    const StreamFile file = tess::obs::read_stream_file(path);
    if (file.records.empty()) {
      std::cerr << "tess_top: '" << path
                << "' has no complete records (missing or empty?)\n";
      return 2;
    }
    const auto report = tess::obs::check_stream(file, options);
    std::cout << path << ": " << report.records << " records ("
              << report.dropped << " dropped), " << report.rank_records.size()
              << " rank(s), " << report.steps_seen << " step(s), quantiles "
              << (report.quantiles_seen ? "present" : "absent") << '\n';
    for (const auto& finding : report.findings)
      std::cout << "  DRIFT: " << finding << '\n';
    if (!report.ok) ok = false;
  }
  std::cout << (ok ? "tess_top --check: ok\n"
                   : "tess_top --check: sustained drift detected\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool check = false, once = false, clear = true;
  int refresh_ms = 1000;
  long long iterations = -1;
  StreamCheckOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "tess_top: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--check") {
      check = true;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--refresh-ms") {
      refresh_ms = std::atoi(value());
    } else if (arg == "--iterations") {
      iterations = std::atoll(value());
    } else if (arg == "--no-clear") {
      clear = false;
    } else if (arg == "--drift-threshold") {
      options.drift.threshold = std::atof(value());
    } else if (arg == "--drift-sustain") {
      options.drift.sustain = std::atoi(value());
    } else if (arg == "--drift-alpha") {
      options.drift.alpha = std::atof(value());
    } else if (arg == "--drift-warmup") {
      options.drift.warmup = std::atoi(value());
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "tess_top: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage(argv[0]);
  if (refresh_ms < 10) refresh_ms = 10;

  try {
    if (check) return run_check(paths, options);

    View view;
    std::vector<Tail> tails;
    tails.reserve(paths.size());
    for (const auto& p : paths) tails.push_back(Tail{p, 0, {}});

    for (long long iter = 0; iterations < 0 || iter < iterations; ++iter) {
      for (auto& tail : tails) {
        if (!tail.poll(view) && once) {
          std::cerr << "tess_top: cannot open '" << tail.path << "'\n";
          return 2;
        }
      }
      if (clear && !once) std::cout << "\033[2J\033[H";
      std::cout << view.render() << std::flush;
      if (once) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tess_top: " << e.what() << '\n';
    return 2;
  }
}
