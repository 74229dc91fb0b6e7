// Tests for the load-imbalance analyzer and the summary-comparison gate
// (obs/analyze.hpp) on synthetic span sets with known answers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "obs/analyze.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace obs = tess::obs;

namespace {

constexpr std::uint64_t kSec = 1000000000ull;

obs::Lane make_lane(int rank, int lane_id,
                    std::vector<obs::SpanRecord> spans) {
  obs::Lane lane;
  lane.rank = rank;
  lane.lane = lane_id;
  lane.spans = std::move(spans);
  return lane;
}

obs::SpanRecord span(const char* name, double t0_s, double t1_s,
                     std::uint32_t depth) {
  return {name, static_cast<std::uint64_t>(t0_s * static_cast<double>(kSec)),
          static_cast<std::uint64_t>(t1_s * static_cast<double>(kSec)), depth};
}

std::vector<obs::SummaryRow> spans_only(
    std::initializer_list<std::pair<const char*, double>> rows) {
  std::vector<obs::SummaryRow> out;
  for (const auto& [name, total] : rows) {
    obs::SummaryRow r;
    r.kind = "span";
    r.name = name;
    r.count = 1;
    r.total = total;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

TEST(ObsAnalyze, IsWaitSpan) {
  EXPECT_TRUE(obs::is_wait_span("comm.barrier.wait"));
  EXPECT_TRUE(obs::is_wait_span("comm.recv.wait"));
  EXPECT_FALSE(obs::is_wait_span("tess.pass"));
  EXPECT_FALSE(obs::is_wait_span("wait"));  // needs the dot
  EXPECT_FALSE(obs::is_wait_span(""));
}

TEST(ObsAnalyze, KnownImbalanceFactorAndSlowestRank) {
  // Rank 0 spends 3 s in the phase, rank 1 spends 1 s: max/mean = 1.5.
  obs::TraceDump dump;
  dump.lanes.push_back(make_lane(0, 0, {span("tess.pass", 0.0, 3.0, 0)}));
  dump.lanes.push_back(make_lane(1, 1, {span("tess.pass", 0.0, 1.0, 0)}));

  const auto report = obs::analyze_imbalance(dump);
  EXPECT_EQ(report.nranks, 2);
  ASSERT_EQ(report.phases.size(), 1u);
  const auto* p = report.find("tess.pass");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->max_s, 3.0);
  EXPECT_DOUBLE_EQ(p->mean_s, 2.0);
  EXPECT_DOUBLE_EQ(p->imbalance(), 1.5);
  EXPECT_EQ(p->slowest_rank, 0);
}

TEST(ObsAnalyze, CriticalPathSumsRootPhasesAtTheirSlowestRank) {
  // Two barrier-separated root phases; rank 0 is slowest in the first
  // (3 s vs 1 s), rank 1 in the second (2 s vs 0.5 s).
  obs::TraceDump dump;
  dump.lanes.push_back(make_lane(0, 0,
                                 {span("phase.a", 0.0, 3.0, 0),
                                  span("phase.b", 3.0, 3.5, 0)}));
  dump.lanes.push_back(make_lane(1, 1,
                                 {span("phase.a", 0.0, 1.0, 0),
                                  span("phase.b", 3.0, 5.0, 0)}));

  const auto report = obs::analyze_imbalance(dump);
  EXPECT_DOUBLE_EQ(report.critical_path_s, 3.0 + 2.0);
  EXPECT_DOUBLE_EQ(report.ideal_path_s, (3.0 + 1.0) / 2 + (0.5 + 2.0) / 2);
  EXPECT_NEAR(report.slack(), (5.0 - 3.25) / 5.0, 1e-12);
  // Nested spans must not inflate the critical path: add a child under
  // phase.a on rank 0 and verify nothing changes.
  dump.lanes[0].spans.insert(dump.lanes[0].spans.begin(),
                             span("kernel.inner", 0.5, 2.5, 1));
  const auto report2 = obs::analyze_imbalance(dump);
  EXPECT_DOUBLE_EQ(report2.critical_path_s, 5.0);
}

TEST(ObsAnalyze, BarrierWaitAttributedToEnclosingPhase) {
  // Exit-ordered lane: the barrier wait (depth 1) exits before its parent
  // phase (depth 0). 1 s of the 3 s phase is wait => busy 2 s.
  obs::TraceDump dump;
  dump.lanes.push_back(make_lane(0, 0,
                                 {span("comm.barrier.wait", 1.0, 2.0, 1),
                                  span("tess.pass", 0.0, 3.0, 0)}));
  dump.lanes.push_back(make_lane(1, 1, {span("tess.pass", 0.0, 3.0, 0)}));

  const auto report = obs::analyze_imbalance(dump);
  const auto* p = report.find("tess.pass");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->wait_s, 1.0);
  ASSERT_EQ(p->ranks.size(), 2u);
  EXPECT_EQ(p->ranks[0].rank, 0);
  EXPECT_DOUBLE_EQ(p->ranks[0].wait_s, 1.0);
  EXPECT_DOUBLE_EQ(p->ranks[0].busy_s(), 2.0);
  EXPECT_DOUBLE_EQ(p->ranks[1].wait_s, 0.0);
  EXPECT_DOUBLE_EQ(report.wait_total_s, 1.0);

  const auto* w = report.find("comm.barrier.wait");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->is_wait);
}

TEST(ObsAnalyze, WaitPropagatesThroughIntermediateSpans) {
  // wait (depth 2) inside kernel (depth 1) inside phase (depth 0): the
  // wait time must reach the root through the intermediate span.
  obs::TraceDump dump;
  dump.lanes.push_back(
      make_lane(0, 0,
                {span("comm.recv.wait", 1.0, 1.5, 2),
                 span("exchange.neighbors", 0.5, 2.5, 1),
                 span("tess.pass", 0.0, 4.0, 0)}));

  const auto report = obs::analyze_imbalance(dump);
  EXPECT_DOUBLE_EQ(report.find("exchange.neighbors")->wait_s, 0.5);
  EXPECT_DOUBLE_EQ(report.find("tess.pass")->wait_s, 0.5);
}

TEST(ObsAnalyze, EmptySnapshot) {
  const obs::TraceDump dump;
  const auto report = obs::analyze_imbalance(dump);
  EXPECT_EQ(report.nranks, 0);
  EXPECT_TRUE(report.phases.empty());
  EXPECT_DOUBLE_EQ(report.critical_path_s, 0.0);
  EXPECT_DOUBLE_EQ(report.slack(), 0.0);
  EXPECT_EQ(report.find("anything"), nullptr);
  const std::string md = obs::imbalance_markdown(report);
  EXPECT_NE(md.find("no spans recorded"), std::string::npos);
}

TEST(ObsAnalyze, MarkdownNamesSlowestRankPerPhase) {
  obs::TraceDump dump;
  dump.lanes.push_back(make_lane(0, 0, {span("tess.pass", 0.0, 1.0, 0)}));
  dump.lanes.push_back(make_lane(3, 1, {span("tess.pass", 0.0, 4.0, 0)}));
  const auto report = obs::analyze_imbalance(dump);
  const std::string md = obs::imbalance_markdown(report);
  EXPECT_NE(md.find("tess.pass"), std::string::npos);
  EXPECT_NE(md.find("| 3 |"), std::string::npos);  // slowest rank column

  const std::string tsv = obs::imbalance_tsv(report);
  EXPECT_NE(tsv.find("tess.pass\t0\t"), std::string::npos);
  EXPECT_NE(tsv.find("tess.pass\t3\t"), std::string::npos);
}

TEST(ObsAnalyze, UnrankedLanesReportButDoNotSkewRankMean) {
  obs::TraceDump dump;
  dump.lanes.push_back(make_lane(0, 0, {span("tess.pass", 0.0, 2.0, 0)}));
  dump.lanes.push_back(make_lane(-1, 1, {span("tess.pass", 0.0, 9.0, 0)}));
  const auto report = obs::analyze_imbalance(dump);
  EXPECT_EQ(report.nranks, 1);
  const auto* p = report.find("tess.pass");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->mean_s, 2.0);  // unranked lane excluded from the mean
  EXPECT_DOUBLE_EQ(p->max_s, 2.0);
  EXPECT_EQ(p->slowest_rank, 0);
  EXPECT_DOUBLE_EQ(p->total_s, 11.0);  // ...but still counted in the total
}

TEST(ObsAnalyze, LanesOfSameRankMerge) {
  // A rank thread and its pool worker both record the phase.
  obs::TraceDump dump;
  dump.lanes.push_back(make_lane(2, 0, {span("kernel", 0.0, 1.0, 0)}));
  dump.lanes.push_back(make_lane(2, 1, {span("kernel", 0.0, 2.0, 0)}));
  const auto report = obs::analyze_imbalance(dump);
  EXPECT_EQ(report.nranks, 1);
  const auto* p = report.find("kernel");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->ranks.size(), 1u);
  EXPECT_EQ(p->ranks[0].count, 2u);
  EXPECT_DOUBLE_EQ(p->ranks[0].total_s, 3.0);
}

// ---------------------------------------------------------------------------
// compare_summaries: the perf-regression gate
// ---------------------------------------------------------------------------

TEST(ObsCompare, FlagsRegressionOverThreshold) {
  const auto baseline = spans_only({{"tess.pass", 1.0}, {"output", 0.5}});
  const auto current = spans_only({{"tess.pass", 1.3}, {"output", 0.5}});
  const auto result =
      obs::compare_summaries(baseline, current, obs::CompareOptions{});
  EXPECT_TRUE(result.regressed);
  EXPECT_EQ(result.regressions(), 1u);
  ASSERT_EQ(result.deltas.size(), 2u);
  const auto& d = result.deltas[1];  // sorted by name: output, tess.pass
  EXPECT_EQ(d.name, "tess.pass");
  EXPECT_EQ(d.verdict, obs::PhaseDelta::Verdict::kRegression);
  EXPECT_NEAR(d.ratio, 1.3, 1e-12);

  const std::string md =
      obs::compare_markdown(result, obs::CompareOptions{});
  EXPECT_NE(md.find("REGRESSION"), std::string::npos);
}

TEST(ObsCompare, WithinThresholdPasses) {
  const auto baseline = spans_only({{"tess.pass", 1.0}});
  const auto current = spans_only({{"tess.pass", 1.15}});
  const auto result =
      obs::compare_summaries(baseline, current, obs::CompareOptions{});
  EXPECT_FALSE(result.regressed);
  EXPECT_EQ(result.deltas[0].verdict, obs::PhaseDelta::Verdict::kOk);
}

TEST(ObsCompare, ImprovementAndNoiseFloor) {
  const auto baseline = spans_only({{"fast", 1e-5}, {"tess.pass", 1.0}});
  const auto current = spans_only({{"fast", 9e-4}, {"tess.pass", 0.5}});
  const auto result =
      obs::compare_summaries(baseline, current, obs::CompareOptions{});
  EXPECT_FALSE(result.regressed);
  // 90x slower but both sides under min_seconds: timer noise, skipped.
  EXPECT_EQ(result.deltas[0].verdict, obs::PhaseDelta::Verdict::kSkipped);
  EXPECT_EQ(result.deltas[1].verdict, obs::PhaseDelta::Verdict::kImproved);
}

TEST(ObsCompare, AddedAndRemovedPhasesNeverFail) {
  const auto baseline = spans_only({{"old.phase", 5.0}});
  const auto current = spans_only({{"new.phase", 5.0}});
  const auto result =
      obs::compare_summaries(baseline, current, obs::CompareOptions{});
  EXPECT_FALSE(result.regressed);
  ASSERT_EQ(result.deltas.size(), 2u);
  EXPECT_EQ(result.deltas[0].verdict, obs::PhaseDelta::Verdict::kAdded);
  EXPECT_EQ(result.deltas[1].verdict, obs::PhaseDelta::Verdict::kRemoved);
}

TEST(ObsCompare, PerPhaseThresholdOverride) {
  const auto baseline = spans_only({{"noisy.io", 1.0}});
  const auto current = spans_only({{"noisy.io", 1.4}});
  obs::CompareOptions options;
  options.per_phase["noisy.io"] = 0.5;  // allow +50% for this phase
  EXPECT_FALSE(obs::compare_summaries(baseline, current, options).regressed);
  options.per_phase["noisy.io"] = 0.1;
  EXPECT_TRUE(obs::compare_summaries(baseline, current, options).regressed);
}

TEST(ObsCompare, NonSpanRowsIgnored) {
  auto baseline = spans_only({{"tess.pass", 1.0}});
  auto current = spans_only({{"tess.pass", 1.0}});
  obs::SummaryRow counter;
  counter.kind = "counter";
  counter.name = "comm.bytes";
  counter.total = 100.0;
  baseline.push_back(counter);
  counter.total = 1e9;  // huge counter delta must not trip the gate
  current.push_back(counter);
  const auto result =
      obs::compare_summaries(baseline, current, obs::CompareOptions{});
  EXPECT_FALSE(result.regressed);
  EXPECT_EQ(result.deltas.size(), 1u);
}

// ---------------------------------------------------------------------------
// Summary files: the gate's input format (write_summary -> read_stream_file
// -> summary_rows, the path tools/obs_compare reads them by)
// ---------------------------------------------------------------------------

TEST(ObsCompare, ParseSummaryJsonRoundTrip) {
  obs::TraceDump dump;
  dump.lanes.push_back(make_lane(0, 0,
                                 {span("tess.pass", 0.0, 2.0, 0),
                                  span("tess.pass", 2.0, 3.0, 0),
                                  span("output", 3.0, 3.5, 0)}));
  obs::MetricsSnapshot snap;
  snap.samples.push_back(
      {"comm.bytes", 'c', 100.0, 0.0, {{0, 60.0}, {1, 40.0}}, {}});
  snap.samples.push_back(
      {"geom.cell_cuts", 'h', 4.0, 100.0, {}, {{16, 3}, {32, 1}}});
  snap.samples.push_back({"tess.cells", 'g', 7.0, 0.0, {}, {}});

  const std::string path =
      testing::TempDir() + "tess_obs_parse_summary.summary.jsonl";
  obs::write_summary(path, dump, snap);
  const auto file = obs::read_stream_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(file.dropped, 0u);
  ASSERT_FALSE(file.records.empty());
  ASSERT_EQ(file.records[0].rank, -1);
  const auto rows = obs::summary_rows(file.records[0]);

  // Spans by name (output, tess.pass), then counters, gauges, histograms.
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].kind, "span");
  EXPECT_EQ(rows[0].name, "output");
  EXPECT_NEAR(rows[0].count, 1.0, 1e-12);
  EXPECT_NEAR(rows[0].total, 0.5, 1e-9);
  EXPECT_EQ(rows[1].name, "tess.pass");
  EXPECT_NEAR(rows[1].count, 2.0, 1e-12);
  EXPECT_NEAR(rows[1].total, 3.0, 1e-9);
  EXPECT_EQ(rows[2].kind, "counter");
  EXPECT_EQ(rows[2].name, "comm.bytes");
  EXPECT_NEAR(rows[2].total, 100.0, 1e-12);
  EXPECT_EQ(rows[3].kind, "gauge");
  EXPECT_EQ(rows[3].name, "tess.cells");
  EXPECT_NEAR(rows[3].total, 7.0, 1e-12);

  // Histogram rows carry p50/p99 in min/max and the occupied bucket range.
  const auto& hist = rows[4];
  EXPECT_EQ(hist.kind, "histogram");
  EXPECT_EQ(hist.name, "geom.cell_cuts");
  EXPECT_NEAR(hist.count, 4.0, 1e-12);
  EXPECT_NEAR(hist.total, 100.0, 1e-12);
  const auto& bins = snap.samples[1].bins;
  EXPECT_NEAR(hist.min, obs::histogram_quantile(bins, 0.50), 1e-6);
  EXPECT_NEAR(hist.max, obs::histogram_quantile(bins, 0.99), 1e-6);
  EXPECT_EQ(hist.bins_lo, 16.0);
  EXPECT_EQ(hist.bins_hi, 32.0);

  // A summary compared with itself never regresses (CI's decode check).
  const auto result =
      obs::compare_summaries(rows, rows, obs::CompareOptions{});
  EXPECT_FALSE(result.regressed);
}

// ---------------------------------------------------------------------------
// parse_benchmark_json: google-benchmark files feeding the same gate
// ---------------------------------------------------------------------------

TEST(ObsCompare, ParseBenchmarkJson) {
  const std::string json = R"({
    "context": {
      "date": "2026-08-07", "num_cpus": 1,
      "tess_build_type": "release", "library_build_type": "debug"
    },
    "benchmarks": [
      {"name": "BM_Dist2Batch/simd", "run_type": "iteration",
       "iterations": 1000, "real_time": 250.0, "cpu_time": 240.0,
       "time_unit": "ns"},
      {"name": "BM_Slow", "iterations": 10, "real_time": 1.5,
       "cpu_time": 1.4, "time_unit": "ms"},
      {"name": "BM_Dist2Batch/simd_mean", "run_type": "aggregate",
       "iterations": 3, "real_time": 260.0, "cpu_time": 250.0,
       "time_unit": "ns"}
    ]
  })";
  std::string build_type;
  const auto rows = obs::parse_benchmark_json(json, &build_type);
  EXPECT_EQ(build_type, "release");  // tess_build_type wins over library's
  ASSERT_EQ(rows.size(), 2u);        // aggregate row skipped
  EXPECT_EQ(rows[0].kind, "bench");
  EXPECT_EQ(rows[0].name, "BM_Dist2Batch/simd");
  EXPECT_NEAR(rows[0].count, 1000.0, 1e-12);
  EXPECT_NEAR(rows[0].total, 250.0e-9, 1e-18);
  EXPECT_NEAR(rows[0].min, 240.0e-9, 1e-18);
  EXPECT_EQ(rows[1].name, "BM_Slow");
  EXPECT_NEAR(rows[1].total, 1.5e-3, 1e-12);

  // Bench rows ride the gate like spans: a 2x slowdown on one kernel
  // regresses (min_seconds 0 — per-iteration times are tiny by design).
  auto current = rows;
  current[0].total *= 2.0;
  obs::CompareOptions opt;
  opt.min_seconds = 0.0;
  const auto result = obs::compare_summaries(rows, current, opt);
  EXPECT_TRUE(result.regressed);
  EXPECT_EQ(result.regressions(), 1u);
}

TEST(ObsCompare, ParseBenchmarkJsonKeepsFastestRepetition) {
  // --benchmark_repetitions=3: three iteration rows under one name plus
  // their aggregates parse to one row at the fastest repetition, so the
  // gate compares 12 ns, not the 47 ns sum of the three.
  const std::string json = R"({
    "benchmarks": [
      {"name": "BM_K", "run_type": "iteration", "repetitions": 3,
       "repetition_index": 0, "iterations": 100, "real_time": 15.0,
       "cpu_time": 14.0, "time_unit": "ns"},
      {"name": "BM_K", "run_type": "iteration", "repetitions": 3,
       "repetition_index": 1, "iterations": 100, "real_time": 12.0,
       "cpu_time": 11.0, "time_unit": "ns"},
      {"name": "BM_K", "run_type": "iteration", "repetitions": 3,
       "repetition_index": 2, "iterations": 100, "real_time": 20.0,
       "cpu_time": 19.0, "time_unit": "ns"},
      {"name": "BM_K_mean", "run_type": "aggregate", "aggregate_name": "mean",
       "iterations": 3, "real_time": 15.67, "cpu_time": 14.67,
       "time_unit": "ns"},
      {"name": "BM_K_median", "run_type": "aggregate",
       "aggregate_name": "median", "iterations": 3, "real_time": 15.0,
       "cpu_time": 14.0, "time_unit": "ns"},
      {"name": "BM_K_stddev", "run_type": "aggregate",
       "aggregate_name": "stddev", "iterations": 3, "real_time": 4.04,
       "cpu_time": 4.04, "time_unit": "ns"}
    ]
  })";
  const auto rows = obs::parse_benchmark_json(json);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "BM_K");
  EXPECT_NEAR(rows[0].total, 12.0e-9, 1e-18);
  EXPECT_NEAR(rows[0].min, 11.0e-9, 1e-18);

  // Against a 12 ns baseline the repeated run does not regress.
  std::vector<obs::SummaryRow> baseline(1);
  baseline[0].kind = "bench";
  baseline[0].name = "BM_K";
  baseline[0].total = 12.0e-9;
  obs::CompareOptions opt;
  opt.min_seconds = 0.0;
  const auto result = obs::compare_summaries(baseline, rows, opt);
  EXPECT_FALSE(result.regressed);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_NEAR(result.deltas[0].current_s, 12.0e-9, 1e-18);
}

TEST(ObsCompare, ParseBenchmarkJsonBuildTypeFallback) {
  const std::string json = R"({
    "context": {"library_build_type": "debug"},
    "benchmarks": []
  })";
  std::string build_type;
  EXPECT_TRUE(obs::parse_benchmark_json(json, &build_type).empty());
  EXPECT_EQ(build_type, "debug");
}

// ---------------------------------------------------------------------------
// End to end: real comm instrumentation feeding the analyzer
// ---------------------------------------------------------------------------

#if TESS_OBS_ENABLED
TEST(ObsAnalyzeIntegration, CommWaitSpansReachTheReport) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  tracer.clear();

  // Rank 1 is deliberately slow: rank 0 must wait at the barrier and then
  // again in the recv, producing comm.barrier.wait / comm.recv.wait spans
  // attributed to rank 0.
  tess::comm::Runtime::run(2, [](tess::comm::Comm& c) {
    if (c.rank() == 0) {
      c.barrier();
      (void)c.recv<int>(1, 7);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      c.barrier();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      c.send(0, 7, std::vector<int>{1});
    }
  });

  const auto report = obs::analyze_imbalance(tracer.drain(true));
  tracer.set_enabled(false);

  const auto* bw = report.find("comm.barrier.wait");
  ASSERT_NE(bw, nullptr);
  EXPECT_TRUE(bw->is_wait);
  EXPECT_GE(bw->max_s, 0.05);
  EXPECT_EQ(bw->slowest_rank, 0);

  const auto* rw = report.find("comm.recv.wait");
  ASSERT_NE(rw, nullptr);
  EXPECT_GE(rw->max_s, 0.05);
  EXPECT_EQ(rw->slowest_rank, 0);
  EXPECT_GE(report.wait_total_s, 0.1);
}
#endif  // TESS_OBS_ENABLED
