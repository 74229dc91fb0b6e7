// Tests for the hang/crash flight recorder (obs/flight.hpp): heartbeat
// bookkeeping, stall detection naming the right rank, the watchdog thread,
// dump contents, and the SIGABRT crash path (as a death test).
//
// Each TEST runs in its own process (gtest_discover_tests registers them
// individually), so arming the process-global recorder in one test cannot
// leak into another.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "obs/obs.hpp"

namespace obs = tess::obs;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Assert the heartbeat line for `rank` exists and whether it is marked
/// STALLED.
void expect_rank_line(const std::string& dump, int rank, bool stalled) {
  const std::string needle = "rank " + std::to_string(rank) + ":";
  std::istringstream is(dump);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find(needle) == std::string::npos) continue;
    if (line.find("lane") != std::string::npos) continue;  // span section
    EXPECT_EQ(line.find("STALLED") != std::string::npos, stalled)
        << "heartbeat line for rank " << rank << ": " << line;
    return;
  }
  FAIL() << "no heartbeat line for rank " << rank << " in dump:\n" << dump;
}

}  // namespace

TEST(ObsFlight, HeartbeatAgesTrackRankSlots) {
  const int prev = obs::thread_rank();
  obs::set_thread_rank(5);
  obs::heartbeat();
  bool found = false;
  for (const auto& hb : obs::heartbeat_ages()) {
    if (hb.rank != 5) continue;
    found = true;
    EXPECT_LT(hb.age_ns, 1000000000ull);  // beaten just now
  }
  EXPECT_TRUE(found);

  obs::heartbeat_retire();
  for (const auto& hb : obs::heartbeat_ages()) EXPECT_NE(hb.rank, 5);
  obs::set_thread_rank(prev);
}

TEST(ObsFlight, UnrankedHeartbeatReportsAsRankMinusOne) {
  const int prev = obs::thread_rank();
  obs::set_thread_rank(-1);
  obs::heartbeat();
  bool found = false;
  for (const auto& hb : obs::heartbeat_ages())
    if (hb.rank == -1) found = true;
  EXPECT_TRUE(found);
  obs::heartbeat_retire();
  obs::set_thread_rank(prev);
}

TEST(ObsFlight, CheckNowIgnoresFreshAndUnrankedSlots) {
  auto& rec = obs::FlightRecorder::instance();
  obs::FlightConfig cfg;
  cfg.path_prefix = testing::TempDir() + "tess_flight_fresh";
  cfg.stall_ms = 10;
  cfg.watchdog = false;
  cfg.signals = false;
  rec.arm(cfg);

  const int prev = obs::thread_rank();
  // A stale *unranked* slot must never trigger (unranked threads go quiet
  // legitimately)...
  obs::set_thread_rank(-1);
  obs::heartbeat();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_FALSE(rec.check_now());
  EXPECT_FALSE(rec.fired());

  // ...and a fresh ranked slot doesn't either.
  obs::set_thread_rank(6);
  obs::heartbeat();
  EXPECT_FALSE(rec.check_now());

  obs::heartbeat_retire();
  obs::set_thread_rank(prev);
  rec.disarm();
  EXPECT_FALSE(rec.armed());
}

TEST(ObsFlight, WatchdogCheckNamesRankBlockedInRecv) {
  const std::string prefix = testing::TempDir() + "tess_flight_recv";
  auto& rec = obs::FlightRecorder::instance();
  obs::FlightConfig cfg;
  cfg.path_prefix = prefix;
  cfg.stall_ms = 50;
  cfg.watchdog = false;  // driven explicitly via check_now(): no timing race
  cfg.signals = false;
  rec.arm(cfg);
  obs::Tracer::instance().set_enabled(true);
  obs::Tracer::instance().clear();

  bool fired_in_run = false;
  tess::comm::Runtime::run(2, [&](tess::comm::Comm& c) {
    if (c.rank() == 1) {
      // Beats once on recv entry, then blocks: after stall_ms this rank is
      // what a real deadlock looks like to the watchdog.
      (void)c.recv<int>(0, 42);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      obs::heartbeat();  // rank 0 is demonstrably alive
      fired_in_run = rec.check_now();
      c.send(1, 42, std::vector<int>{7});  // release rank 1
    }
  });

  EXPECT_TRUE(fired_in_run);
  EXPECT_TRUE(rec.fired());
  EXPECT_FALSE(rec.check_now());  // one dump per arm
  rec.disarm();
  obs::Tracer::instance().set_enabled(false);

  const std::string dump = read_file(prefix + ".flight.txt");
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("watchdog"), std::string::npos);
  expect_rank_line(dump, 1, /*stalled=*/true);
  expect_rank_line(dump, 0, /*stalled=*/false);

  // The machine-readable companion decodes like any summary: a full
  // global record first, no malformed line.
  const auto summary = obs::read_stream_file(prefix + ".flight.summary.jsonl");
  EXPECT_EQ(summary.dropped, 0u);
  ASSERT_FALSE(summary.records.empty());
  EXPECT_EQ(summary.records[0].kind, "snap");
  EXPECT_EQ(summary.records[0].rank, -1);
  EXPECT_TRUE(summary.records[0].full);
  EXPECT_EQ(summary.records[0].values.count("trace.lanes"), 1u);
}

TEST(ObsFlight, WatchdogThreadFiresOnStalledRank) {
  const std::string prefix = testing::TempDir() + "tess_flight_wd";
  const int prev = obs::thread_rank();
  obs::set_thread_rank(3);

  auto& rec = obs::FlightRecorder::instance();
  obs::FlightConfig cfg;
  cfg.path_prefix = prefix;
  cfg.stall_ms = 40;
  cfg.poll_ms = 10;
  cfg.signals = false;
  rec.arm(cfg);
  obs::heartbeat();  // beat once, then go silent

  bool fired = false;
  for (int i = 0; i < 500 && !(fired = rec.fired()); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(fired);
  rec.disarm();
  obs::heartbeat_retire();
  obs::set_thread_rank(prev);

  const std::string dump = read_file(prefix + ".flight.txt");
  expect_rank_line(dump, 3, /*stalled=*/true);
}

TEST(ObsFlight, ExplicitDumpIncludesSpansAndMetrics) {
  const std::string prefix = testing::TempDir() + "tess_flight_dump";
  auto& rec = obs::FlightRecorder::instance();
  obs::FlightConfig cfg;
  cfg.path_prefix = prefix;
  cfg.watchdog = false;
  cfg.signals = false;
  rec.arm(cfg);
  EXPECT_EQ(rec.dump_path(), prefix + ".flight.txt");

  obs::Tracer::instance().set_enabled(true);
  obs::Tracer::instance().clear();
  { TESS_SPAN("flight.test.phase"); }
  TESS_COUNT("flight.test.counter", 3);
  rec.dump("manual test dump");
  rec.disarm();
  obs::Tracer::instance().set_enabled(false);

  const std::string dump = read_file(prefix + ".flight.txt");
  EXPECT_NE(dump.find("manual test dump"), std::string::npos);
#if TESS_OBS_ENABLED
  EXPECT_NE(dump.find("flight.test.phase"), std::string::npos);
  EXPECT_NE(dump.find("flight.test.counter"), std::string::npos);
#endif
}

TEST(ObsFlight, RearmResetsFiredLatch) {
  const std::string prefix = testing::TempDir() + "tess_flight_rearm";
  auto& rec = obs::FlightRecorder::instance();
  obs::FlightConfig cfg;
  cfg.path_prefix = prefix;
  cfg.watchdog = false;
  cfg.signals = false;
  rec.arm(cfg);
  rec.dump("first");
  EXPECT_TRUE(rec.fired());
  rec.arm(cfg);  // re-arm: latch resets, a new dump can fire
  EXPECT_FALSE(rec.fired());
  rec.dump("second");
  EXPECT_TRUE(rec.fired());
  rec.disarm();
  EXPECT_NE(read_file(prefix + ".flight.txt").find("second"),
            std::string::npos);
}

TEST(ObsFlight, ArmFromEnvRespectsVariables) {
  const std::string prefix = testing::TempDir() + "tess_flight_env";
  ::unsetenv("TESS_FLIGHT");
  EXPECT_FALSE(obs::FlightRecorder::arm_from_env());
  ::setenv("TESS_FLIGHT", "0", 1);
  EXPECT_FALSE(obs::FlightRecorder::arm_from_env());

  ::setenv("TESS_FLIGHT", "1", 1);
  ::setenv("TESS_OBS_EXPORT", prefix.c_str(), 1);
  EXPECT_TRUE(obs::FlightRecorder::arm_from_env());
  auto& rec = obs::FlightRecorder::instance();
  EXPECT_TRUE(rec.armed());
  EXPECT_EQ(rec.dump_path(), prefix + ".flight.txt");
  rec.disarm();
  ::unsetenv("TESS_FLIGHT");
  ::unsetenv("TESS_OBS_EXPORT");
}

TEST(ObsFlightDeathTest, SigabrtWritesCrashDumpThenDies) {
  const std::string prefix = testing::TempDir() + "tess_flight_crash";
  const std::string path = prefix + ".flight.txt";
  std::remove(path.c_str());

  // The statement runs in a forked child: arm the handlers there, record a
  // span, and abort. The handler must write the dump, announce it on
  // stderr (matched below), and re-raise so the child still dies.
  EXPECT_DEATH(
      {
        obs::FlightConfig cfg;
        cfg.path_prefix = prefix;
        cfg.watchdog = false;
        obs::FlightRecorder::instance().arm(cfg);
        obs::Tracer::instance().set_enabled(true);
        { TESS_SPAN("flight.crash.phase"); }
        std::raise(SIGABRT);
      },
      "flight recorder: dump written");

  // The dump the child wrote is visible to the parent.
  const std::string dump = read_file(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("SIGABRT"), std::string::npos);
#if TESS_OBS_ENABLED
  EXPECT_NE(dump.find("flight.crash.phase"), std::string::npos);
#endif
  // Metrics are omitted under async-signal constraints.
  EXPECT_NE(dump.find("metrics: omitted (signal context)"),
            std::string::npos);
}

TEST(ObsFlightDeathTest, CrashFlushesFinalStreamRecord) {
  const std::string prefix = testing::TempDir() + "tess_flight_stream";
  const std::string stream_path = prefix + ".stream.jsonl";
  std::remove(stream_path.c_str());

  // With the live streamer armed, the crash handler's dump must also leave
  // a {"k":"final"} dying-gasp record at the stream tail — and every record
  // written before the kill must still parse (the crash-consistency
  // contract).
  EXPECT_DEATH(
      {
        obs::StreamConfig scfg;
        scfg.path = stream_path;
        obs::configure_stream(scfg);
        obs::StreamSample s;
        s.step = 1;
        s.rank = 0;
        s.with_metrics = false;
        s.values["stage.step_s"] = 0.25;
        obs::stream()->emit(s);
        obs::FlightConfig cfg;
        cfg.path_prefix = prefix;
        cfg.watchdog = false;
        obs::FlightRecorder::instance().arm(cfg);
        std::raise(SIGABRT);
      },
      "flight recorder: dump written");

  const auto file = obs::read_stream_file(stream_path);
  ASSERT_GE(file.records.size(), 3u);  // meta, snap, final
  EXPECT_EQ(file.records[1].kind, "snap");
  EXPECT_DOUBLE_EQ(file.records[1].values.at("stage.step_s"), 0.25);
  EXPECT_EQ(file.records.back().kind, "final");
  EXPECT_NE(read_file(stream_path).find("SIGABRT"), std::string::npos);
}
