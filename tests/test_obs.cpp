// Tests for the observability layer (src/obs): span nesting and ordering,
// thread-safety under parallel_for and the rank runtime, disabled-mode
// no-op behavior (zero allocations, verified with the same counting global
// allocator as test_parallel_tess), ring overflow accounting, the rank-0
// metric reduction, the TessStats per-pass/cumulative invariant, and the
// exporter round-trips.
//
// gtest runs each TEST in its own process (gtest_discover_tests), so the
// process-global tracer/registry state never leaks between tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/reduce.hpp"
#include "obs/trace.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator: every operator-new in this binary bumps the
// counter, so a region of code can be checked for heap traffic.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::TessOptions;
using tess::core::TessStats;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::obs::Tracer;
using tess::obs::TraceDump;
using tess::util::Rng;
using tess::util::ThreadPool;

namespace {

/// The lanes of `dump` that recorded at least one span.
std::vector<const tess::obs::Lane*> active_lanes(const TraceDump& dump) {
  std::vector<const tess::obs::Lane*> out;
  for (const auto& lane : dump.lanes)
    if (!lane.spans.empty()) out.push_back(&lane);
  return out;
}

std::vector<Particle> clustered_particles(int n, double domain) {
  Rng rng(4242);
  std::vector<Particle> ps;
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 4 != 3) {
      p = {0.4 * domain + rng.normal(0.0, 0.05 * domain),
           0.5 * domain + rng.normal(0.0, 0.05 * domain),
           0.5 * domain + rng.normal(0.0, 0.05 * domain)};
      p.x = std::clamp(p.x, 0.0, domain * (1.0 - 1e-12));
      p.y = std::clamp(p.y, 0.0, domain * (1.0 - 1e-12));
      p.z = std::clamp(p.z, 0.0, domain * (1.0 - 1e-12));
    } else {
      p = {rng.uniform(0, domain), rng.uniform(0, domain),
           rng.uniform(0, domain)};
    }
    ps.push_back({p, i});
  }
  return ps;
}

}  // namespace

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

TEST(ObsTrace, SpanNestingAndOrdering) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();

  {
    TESS_SPAN("outer");
    {
      TESS_SPAN("inner_a");
    }
    {
      TESS_SPAN("inner_b");
      { TESS_SPAN("leaf"); }
    }
  }

  const auto dump = Tracer::instance().drain();
  const auto lanes = active_lanes(dump);
  ASSERT_EQ(lanes.size(), 1u);
  const auto& spans = lanes[0]->spans;
  ASSERT_EQ(spans.size(), 4u);

  // Spans are recorded at scope exit: children precede their parent.
  EXPECT_STREQ(spans[0].name, "inner_a");
  EXPECT_STREQ(spans[1].name, "leaf");
  EXPECT_STREQ(spans[2].name, "inner_b");
  EXPECT_STREQ(spans[3].name, "outer");

  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 2u);
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_EQ(spans[3].depth, 0u);

  // Chronological by end time, and each child nests inside its parent.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LE(spans[i - 1].t1_ns, spans[i].t1_ns);
  EXPECT_LE(spans[3].t0_ns, spans[0].t0_ns);
  EXPECT_GE(spans[3].t1_ns, spans[2].t1_ns);
  EXPECT_LE(spans[2].t0_ns, spans[1].t0_ns);

  Tracer::instance().set_enabled(false);
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::instance().enabled());  // default state
  {
    TESS_SPAN("invisible");
    { TESS_SPAN("also_invisible"); }
  }
  const auto dump = Tracer::instance().drain();
  EXPECT_EQ(dump.total_spans(), 0u);
}

TEST(ObsTrace, DisabledModeIsAllocationFree) {
  ASSERT_FALSE(Tracer::instance().enabled());
  // Warm up the counter macro's registry lookup (first call may allocate
  // the registry entry).
  TESS_COUNT("test.obs.disabled_warmup", 1);

  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 10000; ++i) {
    TESS_SPAN("disabled_span");
    TESS_COUNT("test.obs.disabled_warmup", 1);
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "runtime-disabled tracing must not touch the heap";
}

TEST(ObsTrace, EnabledSteadyStateIsAllocationFree) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  // Warm up: first span creates this thread's ring buffer, first counter
  // call creates the registry entry.
  {
    TESS_SPAN("warmup");
    TESS_COUNT("test.obs.enabled_warmup", 1);
    TESS_HIST_ADD("test.obs.enabled_hist", 17);
  }

  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 4096; ++i) {  // < default ring capacity 8192
    TESS_SPAN("steady");
    TESS_COUNT("test.obs.enabled_warmup", 1);
    TESS_HIST_ADD("test.obs.enabled_hist", 17);
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "enabled tracing must be allocation-free after the ring exists";

  const auto dump = Tracer::instance().drain();
  EXPECT_GE(dump.total_spans(), 4096u);
  Tracer::instance().set_enabled(false);
}

TEST(ObsTrace, RingOverflowCountsDrops) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  Tracer::instance().set_capacity(16);

  // A fresh thread gets a fresh ring at the small capacity.
  std::thread t([] {
    for (int i = 0; i < 26; ++i) TESS_SPAN("overflow");
  });
  t.join();

  const auto dump = Tracer::instance().drain();
  const auto lanes = active_lanes(dump);
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0]->spans.size(), 16u);
  EXPECT_EQ(lanes[0]->dropped, 10u);
  EXPECT_EQ(dump.total_dropped(), 10u);

  Tracer::instance().set_capacity(8192);
  Tracer::instance().set_enabled(false);
}

TEST(ObsTrace, ParallelForIsThreadSafeAndInheritsRank) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  tess::obs::metrics().reset();

  constexpr int kChunks = 500;
  std::thread owner([] {
    tess::obs::set_thread_rank(7);
    ThreadPool pool(4);  // workers inherit rank 7 from the creating thread
    pool.run(kChunks, [&](int chunk, int) {
      TESS_SPAN("pf_chunk");
      TESS_COUNT("test.obs.pf", 1);
      (void)chunk;
    });
  });
  owner.join();

  EXPECT_EQ(tess::obs::metrics().counter("test.obs.pf").value(), kChunks);
  EXPECT_EQ(tess::obs::metrics().counter("test.obs.pf").value(7), kChunks);

  const auto dump = Tracer::instance().drain();
  std::size_t chunk_spans = 0;
  for (const auto& lane : dump.lanes) {
    if (lane.spans.empty()) continue;
    EXPECT_EQ(lane.rank, 7);
    chunk_spans += lane.spans.size();
  }
  EXPECT_EQ(chunk_spans, static_cast<std::size_t>(kChunks));
  Tracer::instance().set_enabled(false);
}

TEST(ObsTrace, RuntimeTagsRankLanes) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();

  Runtime::run(3, [](Comm& c) {
    TESS_SPAN("rank_span");
    c.barrier();
  });

  const auto dump = Tracer::instance().drain();
  std::set<int> ranks;
  for (const auto* lane : active_lanes(dump)) ranks.insert(lane->rank);
  EXPECT_EQ(ranks, (std::set<int>{0, 1, 2}));
  Tracer::instance().set_enabled(false);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterSlicesByRank) {
  auto& reg = tess::obs::metrics();
  reg.reset();
  Runtime::run(2, [&](Comm& c) {
    for (int i = 0; i <= c.rank(); ++i) TESS_COUNT("test.obs.sliced", 10);
  });
  const auto& ctr = reg.counter("test.obs.sliced");
  EXPECT_EQ(ctr.value(0), 10u);
  EXPECT_EQ(ctr.value(1), 20u);
  EXPECT_EQ(ctr.value(), 30u);

  const auto snap = reg.snapshot();
  const auto* s = snap.find("test.obs.sliced");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, 'c');
  EXPECT_DOUBLE_EQ(s->value, 30.0);
  ASSERT_EQ(s->per_rank.size(), 2u);
}

TEST(ObsMetrics, GaugeReducesWithMax) {
  auto& reg = tess::obs::metrics();
  reg.reset();
  Runtime::run(3, [&]([[maybe_unused]] Comm& c) {
    TESS_GAUGE_SET("test.obs.gauge", 1.5 * (c.rank() + 1));
  });
  const auto& g = reg.gauge("test.obs.gauge");
  EXPECT_DOUBLE_EQ(g.value(1), 3.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  EXPECT_TRUE(g.written(2));
  EXPECT_FALSE(g.written(3));
}

TEST(ObsMetrics, ExpHistogramBins) {
  tess::obs::ExpHistogram h;
  EXPECT_EQ(tess::obs::ExpHistogram::bin_of(0), 0);
  EXPECT_EQ(tess::obs::ExpHistogram::bin_of(1), 1);
  EXPECT_EQ(tess::obs::ExpHistogram::bin_of(2), 2);
  EXPECT_EQ(tess::obs::ExpHistogram::bin_of(3), 2);
  EXPECT_EQ(tess::obs::ExpHistogram::bin_of(1024), 11);
  EXPECT_EQ(tess::obs::ExpHistogram::bin_floor(0), 0u);
  EXPECT_EQ(tess::obs::ExpHistogram::bin_floor(2), 2u);
  EXPECT_EQ(tess::obs::ExpHistogram::bin_floor(11), 1024u);

  h.add(0);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1027u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(11), 1u);
}

TEST(ObsMetrics, TaggedMessagesClampAndExport) {
  auto& reg = tess::obs::metrics();
  reg.reset();
  reg.add_tagged_message(100, 64);
  reg.add_tagged_message(100, 36);
  reg.add_tagged_message(-1, 8);
  reg.add_tagged_message(-1000, 1);  // clamps to kMinTag
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("comm.tag100.messages"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("comm.tag100.bytes"), 100.0);
  EXPECT_DOUBLE_EQ(snap.value("comm.tag-1.bytes"), 8.0);
  EXPECT_DOUBLE_EQ(snap.value("comm.tag-8.messages"), 1.0);
}

TEST(ObsMetrics, ReduceMergesSlicesToRankZero) {
  auto& reg = tess::obs::metrics();
  reg.reset();
  std::vector<tess::obs::MetricsSnapshot> result(3);
  Runtime::run(3, [&](Comm& c) {
    TESS_COUNT("test.obs.red_counter", (c.rank() + 1) * 10);
    TESS_GAUGE_SET("test.obs.red_gauge", c.rank());
    c.barrier();
    result[static_cast<std::size_t>(c.rank())] = tess::obs::reduce_metrics(c);
  });
  EXPECT_DOUBLE_EQ(result[0].value("test.obs.red_counter"), 60.0);
  EXPECT_DOUBLE_EQ(result[0].value("test.obs.red_gauge"), 2.0);
  EXPECT_TRUE(result[1].samples.empty());
  EXPECT_TRUE(result[2].samples.empty());
}

// ---------------------------------------------------------------------------
// TessStats: per-pass entries are the single source of truth
// ---------------------------------------------------------------------------

TEST(ObsStats, CumulativeGhostTrafficEqualsPerPassSumAndRegistry) {
  constexpr int kRanks = 2;
  constexpr double kDomain = 6.0;
  const auto particles = clustered_particles(600, kDomain);

  tess::obs::metrics().reset();
  std::vector<TessStats> stats(kRanks);
  Runtime::run(kRanks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                    Decomposition::factor(kRanks), true);
    TessOptions opt;
    opt.ghost = 0.3;
    opt.auto_ghost = true;
    tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt,
        &stats[static_cast<std::size_t>(c.rank())]);
  });

  std::size_t all_sent = 0, all_received = 0;
  for (const auto& s : stats) {
    ASSERT_GT(s.iterations.size(), 1u) << "expected several auto-ghost passes";
    std::size_t sent = 0, received = 0;
    for (const auto& it : s.iterations) {
      sent += it.ghost_sent;
      received += it.ghost_received;
    }
    EXPECT_EQ(s.ghost_sent, sent);
    EXPECT_EQ(s.ghost_received, received);
    all_sent += sent;
    all_received += received;
  }

  // The registry counters were bumped once per pass with the same values.
  auto& reg = tess::obs::metrics();
  EXPECT_EQ(reg.counter("tess.ghost_sent").value(), all_sent);
  EXPECT_EQ(reg.counter("tess.ghost_received").value(), all_received);
}

// The wasted-work counters ride along with geom.cuts in both build loops:
// the one-pass fixed-ghost loop and the auto-ghost pass loop.
TEST(ObsStats, WastedWorkCountersEmittedWithCuts) {
  constexpr double kDomain = 6.0;
  const auto particles = clustered_particles(600, kDomain);
  for (const bool auto_ghost : {false, true}) {
    tess::obs::metrics().reset();
    Runtime::run(2, [&](Comm& c) {
      Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                      Decomposition::factor(2), true);
      TessOptions opt;
      opt.ghost = auto_ghost ? 0.3 : 1.5;
      opt.auto_ghost = auto_ghost;
      tess::core::standalone_tessellate(
          c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);
    });
    auto& reg = tess::obs::metrics();
    const std::uint64_t cuts = reg.counter("geom.cuts").value();
    const std::uint64_t noop = reg.counter("geom.cuts_noop").value();
    EXPECT_GT(cuts, 0u) << "auto_ghost=" << auto_ghost;
    EXPECT_GT(noop, 0u) << "auto_ghost=" << auto_ghost;
    EXPECT_LT(noop, cuts) << "auto_ghost=" << auto_ghost;
    EXPECT_GT(reg.counter("geom.bins_pruned").value(), 0u)
        << "auto_ghost=" << auto_ghost;
  }
}

// geom.cell_cuts takes one sample per cell build, its cut attempts: on a
// one-pass fixed-ghost run the samples are the cells built and their sum
// is the cut total.
TEST(ObsStats, CellCutsHistogramSamplesEveryBuild) {
  constexpr double kDomain = 6.0;
  const auto particles = clustered_particles(600, kDomain);
  auto& reg = tess::obs::metrics();
  const auto& hist = reg.histogram("geom.cell_cuts");
  const std::uint64_t samples0 = hist.count(), sum0 = hist.sum();
  const std::uint64_t built0 = reg.counter("tess.cells_built").value();
  const std::uint64_t cuts0 = reg.counter("geom.cuts").value();
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                    Decomposition::factor(1), true);
    TessOptions opt;
    opt.ghost = 1.5;
    tess::core::standalone_tessellate(c, d, particles, opt);
  });
  const std::uint64_t built = reg.counter("tess.cells_built").value() - built0;
  EXPECT_EQ(built, particles.size());
  EXPECT_EQ(hist.count() - samples0, built);
  EXPECT_EQ(hist.sum() - sum0, reg.counter("geom.cuts").value() - cuts0);
  EXPECT_GT(hist.sum() - sum0, 10 * built);
}

TEST(ObsStats, FinalizeRecomputesFromIterations) {
  TessStats s;
  s.ghost_sent = 123;  // stale
  s.ghost_received = 456;
  s.iterations.push_back({0.1, 0, 0, 10, 20, 0, 0, 0});
  s.iterations.push_back({0.2, 0, 0, 7, 5, 0, 0, 0});
  s.finalize_from_iterations();
  EXPECT_EQ(s.ghost_sent, 17u);
  EXPECT_EQ(s.ghost_received, 25u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ObsExport, SummaryTsvRoundTrips) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  tess::obs::metrics().reset();

  {
    TESS_SPAN("rt_outer");
    { TESS_SPAN("rt_inner"); }
    { TESS_SPAN("rt_inner"); }
  }
  TESS_COUNT("test.obs.rt_counter", 42);
  TESS_GAUGE_SET("test.obs.rt_gauge", 2.5);
  TESS_HIST_ADD("test.obs.rt_hist", 100);
  TESS_HIST_ADD("test.obs.rt_hist", 28);

  const auto dump = Tracer::instance().drain();
  const auto snap = tess::obs::metrics().snapshot();
  const auto rows = tess::obs::parse_summary_tsv(
      tess::obs::summary_tsv(dump, snap));

  auto row = [&rows](const std::string& kind, const std::string& name)
      -> const tess::obs::SummaryRow* {
    for (const auto& r : rows)
      if (r.kind == kind && r.name == name) return &r;
    return nullptr;
  };

  const auto* inner = row("span", "rt_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_DOUBLE_EQ(inner->count, 2.0);
  EXPECT_GE(inner->total, inner->max);
  EXPECT_LE(inner->min, inner->max);

  const auto* outer = row("span", "rt_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_DOUBLE_EQ(outer->count, 1.0);
  EXPECT_GE(outer->total, inner->total);  // children nest inside the parent

  const auto* ctr = row("counter", "test.obs.rt_counter");
  ASSERT_NE(ctr, nullptr);
  EXPECT_DOUBLE_EQ(ctr->total, 42.0);

  const auto* gauge = row("gauge", "test.obs.rt_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->total, 2.5);

  const auto* hist = row("histogram", "test.obs.rt_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->count, 2.0);
  EXPECT_DOUBLE_EQ(hist->total, 128.0);

  EXPECT_THROW(tess::obs::parse_summary_tsv("kind\tname\nbroken-row\n"),
               std::runtime_error);
  Tracer::instance().set_enabled(false);
}

TEST(ObsExport, ChromeTraceStructure) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();

  Runtime::run(2, [](Comm& c) {
    TESS_SPAN("chrome_span");
    c.barrier();
  });

  const auto dump = Tracer::instance().drain();
  const std::string json = tess::obs::chrome_trace_json(dump);

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"chrome_span\""), std::string::npos);
  // One chrome process per rank: metadata rows name both rank lanes.
  EXPECT_NE(json.find("\"name\":\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 1\""), std::string::npos);
  // Balanced braces — cheap structural sanity without a JSON parser.
  std::ptrdiff_t depth = 0;
  for (const char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  Tracer::instance().set_enabled(false);
}

TEST(ObsExport, SummaryJsonContainsSections) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  tess::obs::metrics().reset();
  { TESS_SPAN("sj_span"); }
  TESS_COUNT("test.obs.sj", 5);

  const auto dump = Tracer::instance().drain();
  const auto snap = tess::obs::metrics().snapshot();
  const std::string json = tess::obs::summary_json(dump, snap);
  for (const char* key : {"\"spans\"", "\"counters\"", "\"gauges\"",
                          "\"histograms\"", "\"lanes\"", "\"dropped_spans\"",
                          "\"sj_span\"", "\"test.obs.sj\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  Tracer::instance().set_enabled(false);
}
