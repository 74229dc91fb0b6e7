#include "harness.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "obs/trace.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},
      {"items_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"hacc.step_ms", "ms"},
      {"hacc.fft_per_step", "count"},
      {"comm.wait_ms", "ms"},
      {"comm.bytes_per_step", "B"},
      {"comm.messages_per_step", "count"},
      {"diy.exchange_ms", "ms"},
      {"diy.ghost_per_particle", "ratio"},
      {"diy.write_ms", "ms"},
      {"diy.file_bytes_per_particle", "B"},
      {"diy.open_ms", "ms"},
      {"geom.build_ms", "ms"},
      {"geom.cuts_per_cell", "count"},
      {"geom.candidates_per_cell", "count"},
      {"geom.screen_keep_ratio", "ratio"},
      {"geom.exact_fallback_ratio", "ratio"},
      {"core.tessellate_ms", "ms"},
      {"core.passes_per_step", "count"},
      {"core.rebuilds_per_cell", "ratio"},
      {"core.retry_build_share", "ratio"},
      {"core.uncertified_cells", "count"},
      {"core.build_imbalance", "ratio"},
      {"core.repartitions", "count"},
      {"core.serialize_ms", "ms"},
      {"serve.locate_ms", "ms"},
      {"serve.void_ms", "ms"},
      {"serve.region_ms", "ms"},
      {"serve.hist_ms", "ms"},
      {"serve.walk_steps", "count"},
      {"serve.fallback_ratio", "ratio"},
      {"serve.cold_locate_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.blocks_loaded", "count"},
      {"analysis.void_catalog_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return defs;
}

// ---------------------------------------------------------------------------
// Report

void Report::begin_op() {
  ++attempted_;
  pending_ = true;
}

void Report::end_op(bool ok) {
  pending_ = false;
  if (!ok) ++failed_;
}

void Report::fail_pending(const std::string& what) {
  if (!pending_) ++attempted_;
  pending_ = false;
  ++failed_;
  note("op failed: " + what);
}

void Report::fail_run_check(const std::string& what) {
  run_checks_ok_ = false;
  note("check failed: " + what);
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string Report::json(const std::vector<MetricDef>& defs) const {
  std::string s = "{\"correct\": ";
  s += correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    double v = get(defs[i].name);
    if (!std::isfinite(v)) v = 0.0;  // JSON has no inf/nan
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", v);
    s += i > 0 ? ", \"" : "\"";
    s += defs[i].name;
    s += "\": {\"value\": ";
    s += num;
    s += ", \"unit\": \"";
    s += defs[i].unit;
    s += "\"}";
  }
  s += "}}";
  return s;
}

// ---------------------------------------------------------------------------
// Sample statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double imbalance(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double sum = std::accumulate(v.begin(), v.end(), 0.0);
  if (sum <= 0.0) return 0.0;
  return *std::max_element(v.begin(), v.end()) /
         (sum / static_cast<double>(v.size()));
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

Tail tail_percentile(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= min_beyond) {
    // No percentile leaves enough samples beyond it: report the minimum.
    t.value = v.front();
    t.beyond = n - 1;
    return t;
  }
  // p = floor(100 (n - m) / n) is the largest p whose nearest rank
  // k = ceil(p n / 100) satisfies k <= n - m.
  const std::size_t p = 100 * (n - min_beyond) / n;
  const std::size_t k = std::max<std::size_t>(1, (p * n + 99) / 100);
  t.percentile = static_cast<int>(p);
  t.value = v[k - 1];
  t.beyond = n - k;
  return t;
}

void set_op_metrics(Report& report, const std::vector<double>& op_ms,
                    double items_per_op) {
  report.set("op_p50_ms", median(op_ms));
  const Tail tail = tail_percentile(op_ms);
  report.set("op_tail_ms", tail.value);
  report.note("op_tail_ms is p" + std::to_string(tail.percentile) + " of " +
              std::to_string(tail.count) + " timed ops (" +
              std::to_string(tail.beyond) + " beyond it)");
  const double total_s =
      std::accumulate(op_ms.begin(), op_ms.end(), 0.0) / 1e3;
  report.set("items_per_s",
             ratio(items_per_op * static_cast<double>(op_ms.size()), total_s));
}

void set_medians(Report& report,
                 const std::map<std::string, std::vector<double>>& samples) {
  for (const auto& [name, v] : samples) report.set(name, median(v));
}

// ---------------------------------------------------------------------------
// Resident set

bool reset_peak_rss() {
  // Freed heap pages the allocator still holds are not "allocated"; hand
  // them back first, so the mark starts at live memory and does not depend
  // on how fragmented set-up left the heap.
  ::malloc_trim(0);
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

namespace {
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::size_t len = std::strlen(key);
  for (std::string line; std::getline(in, line);)
    if (line.compare(0, len, key) == 0)
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB
  return 0.0;
}
}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }
double rss_mb() { return status_mb("VmRSS:"); }

// ---------------------------------------------------------------------------
// Spans

std::map<std::string, double> SpanLog::collect() {
  const auto dump = tess::obs::Tracer::instance().drain(true);
  std::map<std::string, double> longest;
  for (const auto& lane : dump.lanes) {
    std::vector<std::size_t> mine;
    for (const auto& rec : lane.spans) {
      if (rec.name == nullptr || std::strncmp(rec.name, "bench.", 6) != 0)
        continue;
      Span s;
      s.name = rec.name;
      s.rank = lane.rank;
      s.lane = lane.lane;
      s.op = rec.arg;
      s.t0_ns = rec.t0_ns;
      s.t1_ns = rec.t1_ns;
      mine.push_back(spans_.size());
      spans_.push_back(std::move(s));
    }
    // Spans of one thread nest properly: walk them by start time (outer
    // first on ties) with a stack of the spans still open.
    std::sort(mine.begin(), mine.end(), [&](std::size_t a, std::size_t b) {
      const Span& x = spans_[a];
      const Span& y = spans_[b];
      return x.t0_ns != y.t0_ns ? x.t0_ns < y.t0_ns : x.t1_ns > y.t1_ns;
    });
    std::vector<std::size_t> open;
    for (const std::size_t i : mine) {
      while (!open.empty() && spans_[open.back()].t1_ns < spans_[i].t1_ns)
        open.pop_back();
      if (!open.empty()) {
        spans_[i].parent = static_cast<std::int64_t>(open.back());
        spans_[open.back()].child_ns += spans_[i].t1_ns - spans_[i].t0_ns;
      }
      open.push_back(i);
      double& l = longest[spans_[i].name];
      l = std::max(l, spans_[i].ms());
    }
  }
  return longest;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : spans_)
    out << "{\"name\": \"" << s.name << "\", \"rank\": " << s.rank
        << ", \"lane\": " << s.lane << ", \"op\": " << s.op
        << ", \"parent\": " << s.parent << ", \"t0_ns\": " << s.t0_ns
        << ", \"t1_ns\": " << s.t1_ns
        << ", \"self_ns\": " << (s.t1_ns - s.t0_ns - s.child_ns) << "}\n";
}

std::string SpanLog::self_time_table() const {
  // name -> op -> (longest total, longest self) over ranks
  std::map<std::string, std::map<std::int64_t, std::pair<double, double>>> by;
  for (const auto& s : spans_) {
    auto& slot = by[s.name][s.op];
    slot.first = std::max(slot.first, s.ms());
    slot.second = std::max(slot.second, s.self_ms());
  }
  std::string out =
      "  span (median over ops of the max over ranks)     ops    total_ms"
      "     self_ms\n";
  for (const auto& [name, ops] : by) {
    std::vector<double> total, self;
    for (const auto& [op, ts] : ops) {
      total.push_back(ts.first);
      self.push_back(ts.second);
    }
    char line[160];
    std::snprintf(line, sizeof line, "  %-46s %5zu %11.3f %11.3f\n",
                  name.c_str(), ops.size(), median(total), median(self));
    out += line;
  }
  return out;
}

}  // namespace perfbench
