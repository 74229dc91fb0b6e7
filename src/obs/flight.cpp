#include "obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/stream.hpp"

namespace tess::obs {

namespace {

// Heartbeat slots mirror the metrics layout: slot 0 = unranked threads,
// slot r+1 = rank r (ranks >= kMaxTrackedRanks share the last slot). The
// stored value is now_ns() + 1 so 0 can mean "inactive or retired".
std::array<std::atomic<std::uint64_t>, kRankSlots> g_beats{};

int slot_rank(std::size_t slot) { return static_cast<int>(slot) - 1; }

/// Buffered fd writer built on write(2) only — usable from a signal
/// handler (no allocation, no locks, no stdio).
class RawWriter {
 public:
  explicit RawWriter(int fd) : fd_(fd) {}
  ~RawWriter() { flush(); }
  void flush() {
    std::size_t off = 0;
    while (off < len_) {
      const ssize_t n = ::write(fd_, buf_ + off, len_ - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    len_ = 0;
  }
  void put(char c) {
    if (len_ == sizeof buf_) flush();
    buf_[len_++] = c;
  }
  void str(const char* s) {
    if (s == nullptr) return;
    while (*s != '\0') put(*s++);
  }
  void u64(std::uint64_t v) {
    char tmp[24];
    int i = 24;
    do {
      tmp[--i] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i < 24) put(tmp[i++]);
  }
  void i64(std::int64_t v) {
    if (v < 0) {
      put('-');
      u64(static_cast<std::uint64_t>(-v));
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }

 private:
  int fd_;
  char buf_[512];
  std::size_t len_ = 0;
};

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    default: return "signal";
  }
}

constexpr int kSignals[] = {SIGSEGV, SIGABRT};

struct State {
  std::mutex mutex;  // guards config + watchdog lifecycle (not the dump)
  FlightConfig config;
  // Precomputed at arm() time so the signal path never allocates.
  char txt_path[512] = {};
  bool armed = false;
  bool handlers_installed = false;
  std::atomic<bool> fired{false};
  std::atomic<std::uint64_t> armed_at_ns{0};

  std::thread watchdog;
  std::condition_variable watchdog_cv;
  bool watchdog_stop = false;

  struct sigaction previous[std::size(kSignals)] = {};
};

State& state() {
  static State s;
  return s;
}

}  // namespace

void heartbeat() {
  g_beats[detail::rank_slot()].store(now_ns() + 1,
                                     std::memory_order_relaxed);
}

void heartbeat_retire() {
  g_beats[detail::rank_slot()].store(0, std::memory_order_relaxed);
}

std::vector<HeartbeatAge> heartbeat_ages() {
  std::vector<HeartbeatAge> out;
  const std::uint64_t now = now_ns();
  for (std::size_t slot = 0; slot < g_beats.size(); ++slot) {
    const std::uint64_t v = g_beats[slot].load(std::memory_order_relaxed);
    if (v == 0) continue;
    const std::uint64_t beat = v - 1;
    out.push_back({slot_rank(slot), now > beat ? now - beat : 0});
  }
  return out;
}

void flight_signal_handler(int sig) {
  FlightRecorder::instance().crash_dump(sig);
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (and the core/ASan report still happens).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::FlightRecorder() {
  // Touch the singletons the dump path reads so they are constructed
  // before this object — and therefore destroyed after it — keeping the
  // watchdog's last check safe during static destruction.
  (void)Tracer::instance().capacity();
  (void)metrics().snapshot();
  (void)state();
}

FlightRecorder::~FlightRecorder() { disarm(); }

bool FlightRecorder::armed() const {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.armed;
}

bool FlightRecorder::fired() const {
  return state().fired.load(std::memory_order_acquire);
}

std::string FlightRecorder::dump_path() const {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.config.path_prefix + ".flight.txt";
}

void FlightRecorder::arm(FlightConfig config) {
  disarm();
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (config.poll_ms == 0)
    config.poll_ms = config.stall_ms / 4 > 10 ? config.stall_ms / 4 : 10;
  s.config = std::move(config);
  std::snprintf(s.txt_path, sizeof s.txt_path, "%s.flight.txt",
                s.config.path_prefix.c_str());
  s.fired.store(false, std::memory_order_release);
  s.armed_at_ns.store(now_ns(), std::memory_order_relaxed);
  for (auto& b : g_beats) b.store(0, std::memory_order_relaxed);

  if (s.config.signals) {
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = &flight_signal_handler;
    sigemptyset(&action.sa_mask);
    for (std::size_t i = 0; i < std::size(kSignals); ++i)
      ::sigaction(kSignals[i], &action, &s.previous[i]);
    s.handlers_installed = true;
  }
  s.armed = true;
  if (s.config.watchdog) {
    s.watchdog_stop = false;
    s.watchdog = std::thread([this] { watchdog_loop(); });
  }
}

void FlightRecorder::disarm() {
  auto& s = state();
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.armed) return;
    s.armed = false;
    s.watchdog_stop = true;
    joinable = std::move(s.watchdog);
    if (s.handlers_installed) {
      for (std::size_t i = 0; i < std::size(kSignals); ++i)
        ::sigaction(kSignals[i], &s.previous[i], nullptr);
      s.handlers_installed = false;
    }
  }
  s.watchdog_cv.notify_all();
  if (joinable.joinable()) joinable.join();
}

void FlightRecorder::watchdog_loop() {
  auto& s = state();
  std::unique_lock<std::mutex> lock(s.mutex);
  const auto poll = std::chrono::milliseconds(s.config.poll_ms);
  while (!s.watchdog_stop) {
    s.watchdog_cv.wait_for(lock, poll, [&] { return s.watchdog_stop; });
    if (s.watchdog_stop) return;
    const bool abort_after = s.config.abort_on_stall;
    lock.unlock();
    const bool fired_now = check_now();
    if (fired_now && abort_after) {
      RawWriter err(2);
      err.str("tess flight recorder: aborting after stall dump\n");
      err.flush();
      std::abort();  // runs our SIGABRT handler, which no-ops (fired latch)
    }
    lock.lock();
    if (fired_now) return;  // one dump per arm; nothing left to watch
  }
}

bool FlightRecorder::check_now() {
  auto& s = state();
  std::uint64_t stall_ns = 0;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    stall_ns = s.config.stall_ms * 1000000ull;
  }
  if (s.fired.load(std::memory_order_acquire)) return false;

  std::string stalled;
  for (const auto& hb : heartbeat_ages()) {
    if (hb.rank < 0) continue;  // unranked slot never triggers, only reports
    if (hb.age_ns <= stall_ns) continue;
    if (!stalled.empty()) stalled += ", ";
    stalled += std::to_string(hb.rank);
    stalled += " (" + std::to_string(hb.age_ns / 1000000ull) + " ms)";
  }
  if (stalled.empty()) return false;
  dump("watchdog: stalled rank(s) " + stalled + " exceeded " +
       std::to_string(stall_ns / 1000000ull) + " ms without a heartbeat");
  return true;
}

void FlightRecorder::dump(const std::string& reason) {
  write_dump(reason.c_str(), /*signal_context=*/false);
}

void FlightRecorder::crash_dump(int sig) {
  write_dump(signal_name(sig), /*signal_context=*/true);
}

namespace {

struct SpanDumpCtx {
  RawWriter* out;
  std::uint64_t now;
  int current_lane = -1;
};

void dump_span(void* ctx_ptr, int rank, int lane, const SpanRecord& rec) {
  auto* ctx = static_cast<SpanDumpCtx*>(ctx_ptr);
  RawWriter& out = *ctx->out;
  if (lane != ctx->current_lane) {
    ctx->current_lane = lane;
    out.str("  lane ");
    out.i64(lane);
    out.str(" rank ");
    out.i64(rank);
    out.str(":\n");
  }
  out.str("    ");
  out.str(rec.name);
  out.str(" depth=");
  out.u64(rec.depth);
  out.str(" dur_us=");
  out.u64((rec.t1_ns - rec.t0_ns) / 1000);
  out.str(" ended_ms_ago=");
  out.u64(ctx->now > rec.t1_ns ? (ctx->now - rec.t1_ns) / 1000000 : 0);
  out.put('\n');
}

}  // namespace

void FlightRecorder::write_dump(const char* reason, bool signal_context) {
  auto& s = state();
  // One dump per arm: the first trigger (watchdog, signal, or explicit
  // call) wins; an abort following a stall dump must not overwrite it.
  if (s.fired.exchange(true, std::memory_order_acq_rel)) return;

  // Flush a dying-gasp record onto the live telemetry stream (if armed) so
  // the timeseries ends with the crash/stall instead of just going silent.
  // emit_final is signal-safe (integers + sanitized reason, one write).
  if (auto* sw = stream()) sw->emit_final(reason);

  // The precomputed path and config are read without the lock: a signal
  // may arrive while the arming thread holds it. arm() publishes them
  // before installing handlers/watchdog, so the read is safe against
  // everything but a concurrent re-arm mid-crash — acceptable for a
  // diagnostics path.
  const std::uint64_t stall_ns = s.config.stall_ms * 1000000ull;
  const int fd = ::open(s.txt_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  {
    RawWriter out(fd);
    out.str("==== tess flight recorder dump ====\n");
    out.str("reason: ");
    out.str(reason);
    out.put('\n');
    out.str("uptime_ms: ");
    out.u64(now_ns() / 1000000);
    out.put('\n');
    out.str("armed_ms_ago: ");
    const std::uint64_t armed_at =
        s.armed_at_ns.load(std::memory_order_relaxed);
    out.u64((now_ns() - armed_at) / 1000000);
    out.put('\n');

    out.str("\nheartbeat ages (stall threshold ");
    out.u64(stall_ns / 1000000);
    out.str(" ms):\n");
    bool any = false;
    for (std::size_t slot = 0; slot < g_beats.size(); ++slot) {
      const std::uint64_t v = g_beats[slot].load(std::memory_order_relaxed);
      if (v == 0) continue;
      any = true;
      const std::uint64_t age = now_ns() - (v - 1);
      const int rank = slot_rank(slot);
      if (rank < 0) {
        out.str("  unranked: ");
      } else {
        out.str("  rank ");
        out.i64(rank);
        out.str(": ");
      }
      out.u64(age / 1000000);
      out.str(" ms");
      if (rank >= 0 && age > stall_ns) out.str("  <-- STALLED");
      out.put('\n');
    }
    if (!any) out.str("  (no active ranks)\n");

    out.str("\nlast spans per lane (oldest first, max ");
    out.i64(s.config.last_spans);
    out.str(" each):\n");
    SpanDumpCtx ctx{&out, now_ns(), -1};
    const bool complete = detail::peek_lanes(s.config.last_spans, &dump_span,
                                             &ctx, signal_context);
    if (!complete)
      out.str("  (span registry busy in signal context; lanes skipped)\n");

    if (signal_context) {
      out.str("\nmetrics: omitted (signal context)\n");
    } else {
      out.str("\nmetrics snapshot:\n");
      const auto snap = metrics().snapshot();
      for (const auto& sample : snap.samples) {
        out.str("  ");
        out.put(sample.kind);
        out.put(' ');
        out.str(sample.name.c_str());
        out.str(" = ");
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.9g", sample.value);
        out.str(buf);
        out.put('\n');
      }
    }
    out.flush();
  }
  ::close(fd);

  if (!signal_context) {
    // Full-fat companion: everything the exporters know, for tooling.
    try {
      const auto trace = Tracer::instance().drain(false);
      const auto snap = metrics().snapshot();
      write_summary(s.config.path_prefix + ".flight.summary.jsonl", trace,
                    snap);
    } catch (...) {
      // Diagnostics must never take the process down on their own.
    }
  }

  RawWriter err(2);
  err.str("tess flight recorder: dump written to ");
  err.str(s.txt_path);
  err.str(" (");
  err.str(reason);
  err.str(")\n");
  err.flush();
}

bool FlightRecorder::arm_from_env(const char* default_prefix) {
  const char* flight = std::getenv("TESS_FLIGHT");
  if (flight == nullptr || *flight == '\0' ||
      std::strcmp(flight, "0") == 0)
    return false;
  FlightConfig config;
  const char* prefix = std::getenv("TESS_OBS_EXPORT");
  if (prefix != nullptr && *prefix != '\0') {
    config.path_prefix = prefix;
  } else if (default_prefix != nullptr && *default_prefix != '\0') {
    config.path_prefix = default_prefix;
  } else {
    config.path_prefix =
        "tess-flight-" + std::to_string(static_cast<long>(::getpid()));
  }
  if (const char* stall = std::getenv("TESS_FLIGHT_STALL_MS"))
    if (const long v = std::atol(stall); v > 0)
      config.stall_ms = static_cast<std::uint64_t>(v);
  if (const char* abort_env = std::getenv("TESS_FLIGHT_ABORT"))
    config.abort_on_stall = *abort_env != '\0' && *abort_env != '0';
  instance().arm(std::move(config));
  return true;
}

namespace {
// `TESS_FLIGHT=1 ctest ...` arms every binary in the run without code
// changes: evaluated once before main().
const bool g_armed_from_env = FlightRecorder::arm_from_env();
}  // namespace

}  // namespace tess::obs
