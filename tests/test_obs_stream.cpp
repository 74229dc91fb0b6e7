// Tests for the live telemetry streamer (obs/stream.hpp): crash-consistent
// append/decode round trips, torn-tail tolerance at every byte offset,
// malformed-line rejection, delta encoding with keyframes, histogram
// quantile accuracy, EWMA drift detection, env-var arming, the StepStats
// stream record, and a 2-rank pipelined integration run producing one
// record per step per rank.
//
// Tests that install the process-global streamer rely on each TEST running
// in its own process (gtest_discover_tests registers them individually);
// they still shutdown_stream() on exit to stay direct-run friendly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/insitu_stats.hpp"
#include "comm/comm.hpp"
#include "core/pipeline.hpp"
#include "core/standalone.hpp"
#include "diy/exchange.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace obs = tess::obs;
namespace diy = tess::diy;

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::InSituPipeline;
using tess::core::PipelineOptions;
using tess::core::TessOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem + ".stream.jsonl";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(ObsStream, WriterEmitsMetaThenDecodableSnapRecords) {
  const std::string path = temp_path("tess_stream_basic");
  std::remove(path.c_str());
  {
    obs::StreamWriter w({path, 1000, 32});
    ASSERT_TRUE(w.ok());
    obs::StreamSample s;
    s.step = 1;
    s.rank = 0;
    s.with_metrics = false;
    s.values = {{"stage.step_s", 0.25}, {"stage.write_s", 0.05}};
    w.emit(s);
    s.step = 2;
    s.values = {{"stage.step_s", 0.30}, {"stage.write_s", 0.06}};
    w.emit(s);
  }
  const auto file = obs::read_stream_file(path);
  EXPECT_EQ(file.dropped, 0u);
  ASSERT_EQ(file.records.size(), 3u);
  EXPECT_EQ(file.records[0].kind, "meta");
  EXPECT_EQ(file.records[1].kind, "snap");
  EXPECT_EQ(file.records[1].step, 1);
  EXPECT_EQ(file.records[1].rank, 0);
  EXPECT_TRUE(file.records[1].full);
  EXPECT_DOUBLE_EQ(file.records[1].values.at("stage.step_s"), 0.25);
  EXPECT_EQ(file.records[2].step, 2);
  EXPECT_DOUBLE_EQ(file.records[2].values.at("stage.write_s"), 0.06);
  EXPECT_LT(file.records[1].seq, file.records[2].seq);
  // t_ms is monotone within a writer.
  EXPECT_LE(file.records[1].t_ms, file.records[2].t_ms);
}

TEST(ObsStream, TornTailToleratedAtEveryByteOffset) {
  const std::string path = temp_path("tess_stream_torn");
  std::remove(path.c_str());
  {
    obs::StreamWriter w({path, 1000, 32});
    obs::StreamSample s;
    s.rank = 0;
    s.with_metrics = false;
    for (int i = 1; i <= 3; ++i) {
      s.step = i;
      s.values = {{"stage.step_s", 0.1 * i}};
      w.emit(s);
    }
  }
  const std::string full = read_file(path);
  const auto whole = obs::read_stream_file(path);
  ASSERT_EQ(whole.records.size(), 4u);  // meta + 3 snaps
  EXPECT_EQ(whole.dropped, 0u);

  // Truncate inside the LAST record, at every byte offset: every earlier
  // (complete) record must survive, and nothing malformed may leak out.
  const std::size_t last_start = full.rfind('\n', full.size() - 2) + 1;
  const std::string cut_path = temp_path("tess_stream_torn_cut");
  for (std::size_t cut = last_start; cut < full.size(); ++cut) {
    write_file(cut_path, full.substr(0, cut));
    const auto got = obs::read_stream_file(cut_path);
    ASSERT_EQ(got.records.size(), 3u) << "cut at byte " << cut;
    EXPECT_EQ(got.dropped, cut > last_start ? 1u : 0u) << "cut " << cut;
    EXPECT_EQ(got.records[2].step, 2);
    EXPECT_DOUBLE_EQ(got.records[2].values.at("stage.step_s"), 0.2);
  }
  std::remove(cut_path.c_str());
}

TEST(ObsStream, MalformedLinesAreDropped) {
  // Truncated JSON, text that is not JSON, and an object with no kind are
  // counted as dropped; the valid records around them survive.
  const std::string good = "{\"k\":\"snap\",\"v\":1,\"rank\":-1,\"full\":1,"
                           "\"ctr\":{\"c\":2}}";
  obs::StreamDecoder decoder;
  const auto records = decoder.feed(good + "\n{\"k\":\"snap\",\"ctr\":{\n" +
                                    "not json\n{}\n" + good + "\n");
  EXPECT_EQ(decoder.dropped(), 3u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[1].counters.at("c"), 2.0);

  obs::StreamRecord rec;
  EXPECT_FALSE(obs::parse_stream_record("{\"spans\": {", rec));
  EXPECT_FALSE(obs::parse_stream_record("not json", rec));
  EXPECT_FALSE(obs::parse_stream_record("{}", rec));
}

TEST(ObsStream, NonIntegerSeqStepRankAreDropped) {
  // strtod reads all of these; an integer cast of them is undefined, so
  // the reader treats the line as malformed instead.
  const std::vector<std::string> bad = {
      "{\"k\":\"snap\",\"step\":nan,\"rank\":0}",
      "{\"k\":\"snap\",\"step\":inf,\"rank\":0}",
      "{\"k\":\"snap\",\"step\":1e300,\"rank\":0}",
      "{\"k\":\"snap\",\"step\":2.5,\"rank\":0}",
      "{\"k\":\"snap\",\"rank\":-1e300}",
      "{\"k\":\"snap\",\"rank\":-inf}",
      "{\"k\":\"snap\",\"rank\":2147483648}",
      "{\"k\":\"snap\",\"seq\":-1,\"rank\":0}",
      "{\"k\":\"snap\",\"seq\":1e300,\"rank\":0}",
      "{\"k\":\"snap\",\"seq\":nan,\"rank\":0}",
      "{\"k\":\"step\",\"step\":infinity}",
  };
  std::string bytes;
  for (const auto& line : bad) {
    obs::StreamRecord rec;
    EXPECT_FALSE(obs::parse_stream_record(line, rec)) << line;
    bytes += line + "\n";
  }
  obs::StreamDecoder decoder;
  EXPECT_TRUE(decoder.feed(bytes).empty());
  EXPECT_EQ(decoder.dropped(), bad.size());

  // The extremes that do fit still decode.
  obs::StreamRecord rec;
  ASSERT_TRUE(obs::parse_stream_record(
      "{\"k\":\"snap\",\"seq\":1e19,\"step\":2147483647,"
      "\"rank\":-2147483648}",
      rec));
  EXPECT_EQ(rec.seq, 10000000000000000000ull);
  EXPECT_EQ(rec.step, 2147483647);
  EXPECT_EQ(rec.rank, -2147483647 - 1);
}

TEST(ObsStream, DeltaEncodingAccumulatesAndKeyframesReabsolutize) {
  const std::string path = temp_path("tess_stream_delta");
  std::remove(path.c_str());
  auto& ctr = obs::metrics().counter("stream.test.ctr");
  auto& gauge = obs::metrics().gauge("stream.test.gauge");
  auto& hist = obs::metrics().histogram("stream.test.hist");
  ctr.reset();
  hist.reset();
  {
    obs::StreamWriter w({path, 1000, /*keyframe_every=*/2});
    obs::StreamSample s;  // rank -1: global totals
    s.with_hists = true;
    ctr.add(5);
    gauge.set(2.5);
    for (int i = 1; i <= 100; ++i) hist.add(static_cast<std::uint64_t>(i));
    w.emit(s);
    ctr.add(7);
    gauge.set(4.5);
    for (int i = 1; i <= 100; ++i) hist.add(static_cast<std::uint64_t>(i));
    w.emit(s);
    w.emit(s);  // unchanged; also the keyframe (emission index 2)
  }
  const auto file = obs::read_stream_file(path);
  ASSERT_EQ(file.records.size(), 4u);
  const auto& r1 = file.records[1];
  const auto& r2 = file.records[2];
  const auto& r3 = file.records[3];
  EXPECT_TRUE(r1.full);
  EXPECT_FALSE(r2.full);
  EXPECT_TRUE(r3.full);
  // Decoded records carry CUMULATIVE values regardless of the wire deltas.
  EXPECT_DOUBLE_EQ(r1.counters.at("stream.test.ctr"), 5.0);
  EXPECT_DOUBLE_EQ(r2.counters.at("stream.test.ctr"), 12.0);
  EXPECT_DOUBLE_EQ(r3.counters.at("stream.test.ctr"), 12.0);
  EXPECT_DOUBLE_EQ(r1.gauges.at("stream.test.gauge"), 2.5);
  EXPECT_DOUBLE_EQ(r2.gauges.at("stream.test.gauge"), 4.5);
  EXPECT_DOUBLE_EQ(r3.gauges.at("stream.test.gauge"), 4.5);
  EXPECT_DOUBLE_EQ(r1.hists.at("stream.test.hist").count, 100.0);
  EXPECT_DOUBLE_EQ(r2.hists.at("stream.test.hist").count, 200.0);
  EXPECT_DOUBLE_EQ(r3.hists.at("stream.test.hist").count, 200.0);
  // Quantiles ride along absolute on every hist-bearing record.
  EXPECT_GT(r3.hists.at("stream.test.hist").p50, 0.0);
  EXPECT_GE(r3.hists.at("stream.test.hist").p99,
            r3.hists.at("stream.test.hist").p50);
  // Off-keyframe records omit unchanged sections on the wire; the raw
  // parse of the last-but-one line must NOT repeat the counter.
  std::istringstream lines(read_file(path));
  std::string line, third_snap;
  std::vector<std::string> all;
  while (std::getline(lines, line)) all.push_back(line);
  obs::StreamRecord raw;
  ASSERT_TRUE(obs::parse_stream_record(all[2], raw));  // the delta record
  EXPECT_DOUBLE_EQ(raw.counters.at("stream.test.ctr"), 7.0);  // wire delta
  ctr.reset();
  hist.reset();
}

// A keyframe that carries no span section (the per-step global record
// takes spans only when the interval elapsed) still restarts the reader's
// span state, so the writer must send the next span section as absolutes.
TEST(ObsStream, KeyframeWithoutSpansRestartsSpanDeltas) {
  const std::string path = temp_path("tess_stream_span_keyframe");
  std::remove(path.c_str());
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  tracer.clear();
  {
    obs::StreamWriter w({path, 1000, /*keyframe_every=*/2});
    obs::StreamSample s;  // rank -1
    s.with_metrics = false;
    s.with_spans = true;
    { TESS_SPAN("keyframe.span"); }
    w.emit(s);  // full
    { TESS_SPAN("keyframe.span"); }
    w.emit(s);  // delta
    s.with_spans = false;
    w.emit(s);  // full, no spans
    s.with_spans = true;
    { TESS_SPAN("keyframe.span"); }
    w.emit(s);  // delta against the keyframe's empty span state
  }
  tracer.set_enabled(false);
  const auto file = obs::read_stream_file(path);
  EXPECT_EQ(file.dropped, 0u);
  ASSERT_EQ(file.records.size(), 5u);
  EXPECT_TRUE(file.records[3].full);
  EXPECT_TRUE(file.records[3].spans.empty());
#if TESS_OBS_ENABLED
  EXPECT_DOUBLE_EQ(file.records[2].spans.at("keyframe.span").first, 2.0);
  EXPECT_DOUBLE_EQ(file.records[4].spans.at("keyframe.span").first, 3.0);
#endif
}

TEST(ObsStream, QuantilesInterpolateCloseToExactPercentiles) {
  obs::ExpHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  // Uniform 1..1000: interpolation inside power-of-two buckets lands
  // within a few percent of the exact percentile.
  EXPECT_NEAR(p50, 500.0, 0.10 * 500.0);
  EXPECT_NEAR(p90, 900.0, 0.10 * 900.0);
  EXPECT_NEAR(p99, 990.0, 0.10 * 990.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Hard bucket bound: never off by more than the 2x bucket width.
  EXPECT_GE(p99, 990.0 / 2.0);
  EXPECT_LE(p99, 990.0 * 2.0);

  obs::ExpHistogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  obs::ExpHistogram zeros;
  zeros.add(0);
  zeros.add(0);
  EXPECT_DOUBLE_EQ(zeros.quantile(0.5), 0.0);
}

TEST(ObsStream, DriftDetectorFlagsSustainedRegressionOnly) {
  obs::DriftOptions opt;  // threshold 1.75, sustain 3, warmup 3
  // True positive: steady baseline, then a sustained 3x regression.
  std::vector<double> bad{1.0, 1.0, 1.1, 0.9, 1.0, 1.0, 3.0, 3.1, 3.2};
  const auto hit = obs::detect_drift(bad, opt);
  EXPECT_TRUE(hit.drifted);
  EXPECT_EQ(hit.first_index, 6u);
  EXPECT_GT(hit.ratio(), opt.threshold);

  // A single spike (< sustain) must not trip.
  std::vector<double> spike{1.0, 1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0};
  EXPECT_FALSE(obs::detect_drift(spike, opt).drifted);

  // Noisy-but-flat stays quiet.
  std::vector<double> noisy{1.0, 1.3, 0.8, 1.2, 0.9, 1.4, 1.1, 0.95, 1.25};
  EXPECT_FALSE(obs::detect_drift(noisy, opt).drifted);

  // Warmup samples never flag, even when huge.
  std::vector<double> early{9.0, 9.0, 9.0};
  EXPECT_FALSE(obs::detect_drift(early, opt).drifted);
}

TEST(ObsStream, CheckStreamFlagsStepWallTimeDrift) {
  // Synthetic per-step records for one rank: ~100 ms steps, then a
  // sustained 4x slowdown — check_stream must flag the wall-time series.
  auto make = [](int step, double t_ms, double step_s) {
    obs::StreamRecord r;
    r.kind = "snap";
    r.step = step;
    r.rank = 0;
    r.t_ms = t_ms;
    r.values["stage.step_s"] = step_s;
    return r;
  };
  obs::StreamFile healthy, drifting;
  double t = 0.0;
  for (int s = 1; s <= 12; ++s) {
    t += 100.0;
    healthy.records.push_back(make(s, t, 0.1));
  }
  t = 0.0;
  for (int s = 1; s <= 12; ++s) {
    t += s <= 8 ? 100.0 : 400.0;
    drifting.records.push_back(make(s, t, s <= 8 ? 0.1 : 0.4));
  }
  const auto ok = obs::check_stream(healthy, {});
  EXPECT_TRUE(ok.ok) << (ok.findings.empty() ? "" : ok.findings[0]);
  EXPECT_EQ(ok.steps_seen, 12);
  EXPECT_EQ(ok.rank_records.at(0), 12u);
  EXPECT_FALSE(ok.quantiles_seen);

  const auto bad = obs::check_stream(drifting, {});
  EXPECT_FALSE(bad.ok);
  ASSERT_FALSE(bad.findings.empty());
  EXPECT_NE(bad.findings[0].find("rank 0"), std::string::npos);
}

TEST(ObsStream, FinalRecordParsesAfterNormalRecords) {
  const std::string path = temp_path("tess_stream_final");
  std::remove(path.c_str());
  {
    obs::StreamWriter w({path, 1000, 32});
    obs::StreamSample s;
    s.rank = 0;
    s.with_metrics = false;
    s.values = {{"stage.step_s", 0.1}};
    w.emit(s);
    w.emit_final("watchdog stall: rank 1 \"quoted\"\n");
  }
  const auto file = obs::read_stream_file(path);
  ASSERT_EQ(file.records.size(), 3u);
  EXPECT_EQ(file.records.back().kind, "final");
  // t_ms is ms since the process trace epoch: may be 0 this early in the
  // process, but never behind the records before it.
  EXPECT_GE(file.records.back().t_ms, file.records[1].t_ms);
  // The sanitized reason survives as raw text (quotes/newline -> spaces).
  EXPECT_NE(read_file(path).find("watchdog stall: rank 1"),
            std::string::npos);
}

TEST(ObsStream, EnvArmingInstallsAndDisablesGlobalStreamer) {
  const std::string path = temp_path("tess_stream_env");
  std::remove(path.c_str());
  ::unsetenv("TESS_OBS_STREAM");
  ::unsetenv("TESS_OBS_STREAM_MS");
  EXPECT_FALSE(obs::configure_stream_from_env());

  ::setenv("TESS_OBS_STREAM", "0", 1);
  EXPECT_FALSE(obs::configure_stream_from_env());

  ::setenv("TESS_OBS_STREAM", path.c_str(), 1);
  ::setenv("TESS_OBS_STREAM_MS", "50", 1);
  ASSERT_TRUE(obs::configure_stream_from_env());
  ASSERT_NE(obs::stream(), nullptr);
  EXPECT_EQ(obs::stream()->config().path, path);
  EXPECT_EQ(obs::stream()->config().interval_ms, 50u);
  // First interval gate always opens; immediately after, it is shut.
  EXPECT_TRUE(obs::stream()->interval_elapsed());
  EXPECT_FALSE(obs::stream()->interval_elapsed());
  obs::shutdown_stream();
  EXPECT_EQ(obs::stream(), nullptr);

  // TESS_OBS_STREAM_MS alone arms a derived path next to the export
  // prefix.
  ::unsetenv("TESS_OBS_STREAM");
  const std::string prefix = testing::TempDir() + "tess_stream_env_prefix";
  ::setenv("TESS_OBS_EXPORT", prefix.c_str(), 1);
  ASSERT_TRUE(obs::configure_stream_from_env());
  EXPECT_EQ(obs::stream()->config().path, prefix + ".stream.jsonl");
  obs::shutdown_stream();
  ::unsetenv("TESS_OBS_STREAM_MS");
  ::unsetenv("TESS_OBS_EXPORT");
}

TEST(ObsStream, StepStatsRecordRidesStreamWithCompatShim) {
  const std::string stream_path = temp_path("tess_stream_stats");
  std::remove(stream_path.c_str());
  obs::configure_stream({stream_path, 1000, 32});
  auto hook = tess::analysis::make_stats_streamer(0.0, 8.0, 16);
  Runtime::run(2, [&](Comm& c) {
    std::vector<double> volumes =
        c.rank() == 0 ? std::vector<double>{1.0, 2.0, 3.0}
                      : std::vector<double>{4.0, 5.0};
    hook(c, 1, volumes);
    hook(c, 2, volumes);
  });
  obs::shutdown_stream();

  // The step payload arrives as {"k":"step"} records, flattened.
  const auto file = obs::read_stream_file(stream_path);
  std::vector<const obs::StreamRecord*> steps;
  for (const auto& r : file.records)
    if (r.kind == "step") steps.push_back(&r);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0]->step, 1);
  EXPECT_EQ(steps[1]->step, 2);
  EXPECT_DOUBLE_EQ(steps[0]->values.at("cells"), 5.0);
  EXPECT_DOUBLE_EQ(steps[0]->values.at("volume.mean"), 3.0);
  EXPECT_DOUBLE_EQ(steps[0]->values.at("hist.lo"), 0.0);
  EXPECT_GE(steps[1]->t_ms, steps[0]->t_ms);
}

TEST(ObsStream, StepRecordKeepsNineSignificantDigits) {
  // Step records share the snap records' %.9g numbers, so a mean of
  // 1.23456789 reads back whole (at 6 digits it would read 1.23457).
  tess::analysis::StepStats stats(1, 0.0, 8.0, 16);
  stats.volume.add(1.23456789);
  const std::string path = temp_path("tess_stream_step_digits");
  write_file(path, tess::analysis::step_stats_stream_record(stats) + "\n");
  const auto file = obs::read_stream_file(path);
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_EQ(file.records[0].kind, "step");
  EXPECT_EQ(file.records[0].values.at("volume.mean"), 1.23456789);
  EXPECT_EQ(file.records[0].values.at("volume.min"), 1.23456789);
  std::remove(path.c_str());
}

TEST(ObsStream, PipelinedTwoRanksEmitOneRecordPerStepPerRank) {
  const std::string path = temp_path("tess_stream_pipeline");
  std::remove(path.c_str());
  obs::configure_stream({path, /*interval_ms=*/0, 32});

  constexpr double kDomain = 10.0;
  constexpr int kSteps = 3;
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                    Decomposition::factor(2), true);
    PipelineOptions opt;
    opt.tess.ghost = 3.0;
    opt.output_pattern = testing::TempDir() + "tess_stream_pipe_%d.bin";
    InSituPipeline pipe(c, d, opt);
    auto pos = [](Particle& p) -> Vec3& { return p.pos; };
    for (int s = 1; s <= kSteps; ++s) {
      Rng rng(7700 + static_cast<std::uint64_t>(s));
      std::vector<Particle> ps;
      if (c.rank() == 0)
        for (int i = 0; i < 200; ++i)
          ps.push_back({{rng.uniform(0, kDomain), rng.uniform(0, kDomain),
                         rng.uniform(0, kDomain)},
                        i});
      pipe.submit(s, diy::migrate_items(c, d, std::move(ps), pos));
    }
    (void)pipe.finish();
  });
  obs::shutdown_stream();

  const auto file = obs::read_stream_file(path);
  EXPECT_EQ(file.dropped, 0u);
  // Exactly one per-rank record per (step, rank), plus one reduced global
  // record per step carrying histograms with quantiles.
  std::map<std::pair<int, int>, int> per_step_rank;
  int global_steps = 0;
  bool quantiles = false;
  for (const auto& r : file.records) {
    if (r.kind != "snap" || r.step < 0) continue;
    if (r.rank >= 0 && r.values.count("stage.step_s") != 0)
      ++per_step_rank[{r.step, r.rank}];
    if (r.rank < 0) {
      ++global_steps;
      for (const auto& [name, h] : r.hists)
        if (h.count > 0 && h.p99 > 0.0) quantiles = true;
    }
  }
  EXPECT_EQ(per_step_rank.size(), static_cast<std::size_t>(kSteps * 2));
  for (const auto& [key, n] : per_step_rank)
    EXPECT_EQ(n, 1) << "step " << key.first << " rank " << key.second;
  EXPECT_EQ(global_steps, kSteps);

  const auto report = obs::check_stream(file, {});
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.steps_seen, kSteps);
  EXPECT_EQ(report.rank_records.size(), 2u);
#if TESS_OBS_ENABLED
  // With metrics compiled in, the comm layer's message-size histogram
  // reaches the reduced global records, quantiles attached.
  EXPECT_TRUE(quantiles) << "no histogram quantiles on global records";
  EXPECT_TRUE(report.quantiles_seen);
#else
  (void)quantiles;
#endif
}

// The auto-ghost pass heartbeat and the per-step record share one
// interval_elapsed() gate (obs/reduce.hpp takes with_spans from it), so a
// heartbeat from a fixed-ghost pass would strip the span aggregates from
// fixed-ghost step records. With the gate always open (interval 0), a
// fixed-ghost tessellation must write no tess.pass.* values and an
// auto-ghost one must.
TEST(ObsStream, OnlyAutoGhostPassesEmitHeartbeats) {
  constexpr double kDomain = 6.0;
  Rng rng(5150);
  std::vector<Particle> particles;
  for (int i = 0; i < 300; ++i)
    particles.push_back({{rng.uniform(0, kDomain), rng.uniform(0, kDomain),
                          rng.uniform(0, kDomain)},
                         i});
  for (const bool auto_ghost : {false, true}) {
    const std::string path =
        temp_path(auto_ghost ? "tess_stream_auto" : "tess_stream_fixed");
    std::remove(path.c_str());
    obs::configure_stream({path, /*interval_ms=*/0, 32});
    Runtime::run(2, [&](Comm& c) {
      Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                      Decomposition::factor(2), true);
      TessOptions opt;
      opt.ghost = auto_ghost ? 0.3 : 2.0;
      opt.auto_ghost = auto_ghost;
      (void)tess::core::standalone_tessellate(
          c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);
    });
    obs::shutdown_stream();

    const auto file = obs::read_stream_file(path);
    EXPECT_EQ(file.dropped, 0u);
    std::size_t pass_values = 0;
    for (const auto& r : file.records)
      for (const auto& [name, v] : r.values)
        if (name.rfind("tess.pass.", 0) == 0) ++pass_values;
    if (auto_ghost)
      EXPECT_GT(pass_values, 0u) << "auto ghost emitted no pass heartbeat";
    else
      EXPECT_EQ(pass_values, 0u) << "fixed ghost emitted a pass heartbeat";
    std::remove(path.c_str());
  }
}
