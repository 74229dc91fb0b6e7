// Hang/crash flight recorder (see DESIGN.md §4.8): per-rank heartbeats, a
// watchdog thread that detects stalled ranks, and SIGSEGV/SIGABRT handlers
// — so a hung or crashed 64-rank run explains itself from its dump files
// instead of requiring a debugger.
//
// Heartbeats are one relaxed atomic store of a steady-clock stamp into the
// calling thread's rank slot (the same 65-slot layout as the metrics
// registry): comm operations and ThreadPool chunks bump them via
// TESS_HEARTBEAT(), so a rank blocked in a dead recv or spinning in a
// runaway kernel stops beating while healthy ranks keep aging near zero.
// The watchdog compares ages against a stall threshold and, on the first
// violation, writes <prefix>.flight.txt (heartbeat ages, the last-N spans
// of every lane, the metrics snapshot) plus <prefix>.flight.summary.jsonl.
// The signal path writes the same .flight.txt best-effort under
// async-signal constraints (no allocation; the span registry lock is only
// try-acquired; metrics are omitted) and then re-raises the signal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace tess::obs {

/// Record forward progress of the calling thread's rank: one steady-clock
/// read and one relaxed store. Pool workers share their owning rank's slot
/// (they inherit its rank tag), so any of them beating counts as progress.
void heartbeat();

/// Mark the calling thread's rank as cleanly finished; its slot leaves the
/// watchdog's active set until the next heartbeat re-activates it.
void heartbeat_retire();

struct HeartbeatAge {
  int rank = -1;  ///< -1 = unranked threads' shared slot
  std::uint64_t age_ns = 0;
};

/// Ages of every active slot (beaten at least once and not retired),
/// ascending by rank. Unranked activity reports as rank -1.
[[nodiscard]] std::vector<HeartbeatAge> heartbeat_ages();

struct FlightConfig {
  std::string path_prefix = "tess";  ///< dump goes to <prefix>.flight.txt
  std::uint64_t stall_ms = 30000;    ///< heartbeat age that counts as a hang
  std::uint64_t poll_ms = 0;         ///< watchdog period; 0 = stall_ms/4
  int last_spans = 32;               ///< spans per lane in the dump
  bool watchdog = true;              ///< start the watchdog thread
  bool signals = true;               ///< install SIGSEGV/SIGABRT handlers
  /// After the stall dump, abort() so a deadlocked job fails fast instead
  /// of hanging until an external timeout kills it without artifacts.
  bool abort_on_stall = false;
};

class FlightRecorder {
 public:
  static FlightRecorder& instance();
  ~FlightRecorder();

  /// Install the configured handlers/watchdog. Re-arming replaces the
  /// previous configuration; heartbeat slots and the fired latch reset.
  void arm(FlightConfig config);
  /// Stop the watchdog and restore the previous signal dispositions.
  void disarm();
  [[nodiscard]] bool armed() const;

  /// True once a dump has been written (one per arm; later triggers no-op).
  [[nodiscard]] bool fired() const;
  /// Where the dump goes / went.
  [[nodiscard]] std::string dump_path() const;

  /// Run one watchdog check now (the watchdog's own body; also the test
  /// hook). Returns true when a stalled rank was found and the dump was
  /// written by this call. Only ranked slots (rank >= 0) can trigger.
  bool check_now();

  /// Unconditionally write the dump from a normal (non-signal) context.
  void dump(const std::string& reason);

  /// Arm from the environment: enabled when TESS_FLIGHT is set non-empty
  /// and not "0" (evaluated once at process start via a static initializer,
  /// so `TESS_FLIGHT=1 ctest ...` covers every test binary). The prefix is
  /// TESS_OBS_EXPORT, else `default_prefix`, else "tess-flight-<pid>";
  /// TESS_FLIGHT_STALL_MS overrides the threshold and TESS_FLIGHT_ABORT=1
  /// enables abort_on_stall. Returns whether it armed.
  static bool arm_from_env(const char* default_prefix = nullptr);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder();
  friend void flight_signal_handler(int);
  void crash_dump(int sig);
  void watchdog_loop();
  /// `reason` must not require allocation on the signal path — the dump
  /// file path is precomputed at arm() time for the same reason.
  void write_dump(const char* reason, bool signal_context);
};

#if TESS_OBS_ENABLED
#define TESS_HEARTBEAT() ::tess::obs::heartbeat()
#else
#define TESS_HEARTBEAT() static_cast<void>(0)
#endif

}  // namespace tess::obs
