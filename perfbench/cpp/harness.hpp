// Shared machinery of the end-to-end benchmark (perfbench/README.md): run
// arguments, the op ledger and metric report, the percentile rules,
// peak-RSS control, and the benchmark's own trace spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";   ///< where the span dump goes
  std::string data_dir = ".";  ///< this run's step files (removed after)
};

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// A metric as printed: name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};
/// Printed by untraced runs (--trace 0); BENCHMARK.json's end_to_end list.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by traced runs (--trace 1); BENCHMARK.json's per_layer list.
/// Every workload prints all of them; a layer a workload does not exercise
/// reads 0.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// One run's op ledger and metric values. Only one thread (rank 0, or the
/// serving client) touches it.
class Report {
 public:
  /// An op starts; it counts as attempted and stays pending until end_op.
  void begin_op();
  /// The pending op finished; a failed output check fails it.
  void end_op(bool ok);
  /// An exception escaped: the pending op fails, or, outside any op, the
  /// set-up that threw counts as one failed op.
  void fail_pending(const std::string& what);
  /// A once-per-run output check failed.
  void fail_run_check(const std::string& what);

  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] double get(const std::string& name) const;
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  [[nodiscard]] bool correct() const {
    return attempted_ > 0 && failed_ == 0 && run_checks_ok_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

  /// The result line: correct/attempted/failed plus every metric of `defs`
  /// (value with all its digits, and unit).
  [[nodiscard]] std::string json(const std::vector<MetricDef>& defs) const;

 private:
  long attempted_ = 0;
  long failed_ = 0;
  bool pending_ = false;
  bool run_checks_ok_ = true;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

[[nodiscard]] double median(std::vector<double> v);
/// max/mean of `v` (1 = balanced); 0 for an empty or all-zero vector.
[[nodiscard]] double imbalance(const std::vector<double>& v);
/// a/b, or 0 when b is 0.
[[nodiscard]] double ratio(double a, double b);

/// The tail rule: the highest integer percentile p whose nearest-rank
/// sample still has at least `min_beyond` samples above it.
struct Tail {
  int percentile = 0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked above `value`
  std::size_t count = 0;
};
[[nodiscard]] Tail tail_percentile(std::vector<double> v,
                                   std::size_t min_beyond = 10);

/// Sets op_p50_ms, op_tail_ms and items_per_s from the timed ops' wall
/// times, and notes which percentile the tail is.
void set_op_metrics(Report& report, const std::vector<double>& op_ms,
                    double items_per_op);
/// Median per name of per-op samples, into the report.
void set_medians(Report& report,
                 const std::map<std::string, std::vector<double>>& samples);

/// Returns freed heap memory to the kernel (malloc_trim), then resets the
/// resident-set high-water mark to the current RSS (writes 5 to
/// /proc/self/clear_refs). False if the kernel refuses.
bool reset_peak_rss();
/// VmHWM and VmRSS of this process, MB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double rss_mb();

/// One benchmark span as written out.
struct Span {
  std::string name;
  int rank = -1;
  int lane = 0;
  std::int64_t op = -1;
  std::int64_t parent = -1;    ///< index of the enclosing span; -1 at a root
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint64_t child_ns = 0;  ///< covered by direct children
  [[nodiscard]] double ms() const {
    return static_cast<double>(t1_ns - t0_ns) * 1e-6;
  }
  [[nodiscard]] double self_ms() const {
    return static_cast<double>(t1_ns - t0_ns - child_ns) * 1e-6;
  }
};

/// The spans the benchmark records around its calls into the library
/// (TESS_SPAN_ARG with the op id and a "bench." name), kept in obs::Tracer
/// during an op and collected here after it.
class SpanLog {
 public:
  /// Drains obs::Tracer (call it with every rank quiescent), keeps the
  /// benchmark's spans (library spans are dropped), links each to the
  /// benchmark span enclosing it on the same thread, and returns for this
  /// drain the longest duration of each span name over ranks, in ms.
  std::map<std::string, double> collect();
  /// One JSON object per span and line.
  void write_jsonl(const std::string& path) const;
  /// Per span name: ops seen, and the median over ops of the longest total
  /// and self time over ranks.
  [[nodiscard]] std::string self_time_table() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
