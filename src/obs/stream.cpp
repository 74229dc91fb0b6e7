#include "obs/stream.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace tess::obs {

namespace {

/// Counters (nonzero only) and gauges of rank `rank`'s slice of `metrics`;
/// rank -1 takes the global totals.
void add_slice(SnapState& st, const MetricsSnapshot& metrics, int rank) {
  for (const auto& s : metrics.samples) {
    if (s.kind == 'h') continue;
    const double* v = rank < 0 ? &s.value : nullptr;
    for (const auto& [r, value] : s.per_rank)
      if (v == nullptr && r == rank) v = &value;
    if (v == nullptr) continue;
    if (s.kind == 'g')
      st.gauges[s.name] = *v;
    else if (*v != 0.0)
      st.counters[s.name] = *v;
  }
}

/// Every nonempty histogram of `metrics`, with its p50/p90/p99.
void add_hists(SnapState& st, const MetricsSnapshot& metrics) {
  for (const auto& s : metrics.samples) {
    if (s.kind != 'h' || s.value == 0.0) continue;
    StreamHist& h = st.hists[s.name];
    h.count = s.value;
    h.sum = s.sum;
    h.p50 = histogram_quantile(s.bins, 0.50);
    h.p90 = histogram_quantile(s.bins, 0.90);
    h.p99 = histogram_quantile(s.bins, 0.99);
    for (const auto& [floor_v, n] : s.bins)
      h.bins[floor_v] = static_cast<double>(n);
  }
}

void add_spans(SnapState& st, const TraceDump& dump) {
  for (const auto& a : aggregate_spans(dump))
    st.spans[a.name] = {static_cast<double>(a.count), a.total_s};
}

/// Append `,"key":{...}` with one entry per name of `cur` that `render`
/// writes, then fold `cur` into `prev`. `render(out, value, base)` gets the
/// reader's current entry as `base` (nullptr when it holds none) and
/// returns false when there is nothing to send.
template <class T, class Render>
void append_section(std::string& line, const char* key,
                    const std::map<std::string, T>& cur,
                    std::map<std::string, T>& prev, Render render) {
  std::string body;
  for (const auto& [name, v] : cur) {
    const auto it = prev.find(name);
    const std::size_t mark = body.size();
    if (!body.empty()) body += ',';
    json_string(body, name);
    body += ':';
    if (!render(body, v, it == prev.end() ? nullptr : &it->second))
      body.resize(mark);
  }
  if (!body.empty()) {
    line += ",\"";
    line += key;
    line += "\":{";
    line += body;
    line += '}';
  }
  for (const auto& [name, v] : cur) prev[name] = v;
}

/// The one "snap" encoder: renders `cur` for `sample`'s step, rank and
/// values as one newline-terminated record. A full record carries
/// absolutes; otherwise counters, histogram n/sum/bins and spans are
/// deltas against `prev` and unchanged entries are left out. Gauges and
/// histogram quantiles are always absolute, so a reader can gate on p99
/// from any single record. Leaves `prev` equal to what a reader holds
/// after decoding the record.
std::string encode_snap(const StreamSample& sample, std::uint64_t seq,
                        const SnapState& cur, SnapState& prev, bool full) {
  if (full) prev = SnapState{};
  std::string line = "{\"k\":\"snap\",\"v\":1,\"seq\":";
  json_number(line, static_cast<double>(seq));
  line += ",\"t_ms\":";
  json_number(line, StreamWriter::now_ms());
  if (sample.step >= 0) {
    line += ",\"step\":";
    json_number(line, sample.step);
  }
  line += ",\"rank\":";
  json_number(line, sample.rank);
  if (full) line += ",\"full\":1";
  std::map<std::string, double> unused;  // values carry no delta state
  append_section(line, "val", sample.values, unused,
                 [](std::string& out, double v, const double*) {
                   json_number(out, v);
                   return true;
                 });
  append_section(line, "ctr", cur.counters, prev.counters,
                 [](std::string& out, double v, const double* base) {
                   const double delta = v - (base != nullptr ? *base : 0.0);
                   if (base != nullptr && delta == 0.0) return false;
                   json_number(out, delta);
                   return true;
                 });
  append_section(line, "gauge", cur.gauges, prev.gauges,
                 [](std::string& out, double v, const double* base) {
                   if (base != nullptr && *base == v) return false;
                   json_number(out, v);
                   return true;
                 });
  append_section(
      line, "hist", cur.hists, prev.hists,
      [](std::string& out, const StreamHist& h, const StreamHist* base) {
        const double dcount = h.count - (base != nullptr ? base->count : 0.0);
        if (base != nullptr && dcount == 0.0) return false;
        out += "{\"n\":";
        json_number(out, dcount);
        out += ",\"sum\":";
        json_number(out, h.sum - (base != nullptr ? base->sum : 0.0));
        out += ",\"p50\":";
        json_number(out, h.p50);
        out += ",\"p90\":";
        json_number(out, h.p90);
        out += ",\"p99\":";
        json_number(out, h.p99);
        out += ",\"bins\":{";
        bool first = true;
        for (const auto& [floor_v, n] : h.bins) {
          double dn = n;
          if (base != nullptr) {
            if (const auto it = base->bins.find(floor_v);
                it != base->bins.end())
              dn -= it->second;
            if (dn == 0.0) continue;
          }
          if (!first) out += ',';
          first = false;
          out += '"';
          out += std::to_string(floor_v);
          out += "\":";
          json_number(out, dn);
        }
        out += "}}";
        return true;
      });
  append_section(
      line, "span", cur.spans, prev.spans,
      [](std::string& out, const std::pair<double, double>& cs,
         const std::pair<double, double>* base) {
        const double dn = cs.first - (base != nullptr ? base->first : 0.0);
        const double ds = cs.second - (base != nullptr ? base->second : 0.0);
        if (base != nullptr && dn == 0.0 && ds == 0.0) return false;
        out += "{\"n\":";
        json_number(out, dn);
        out += ",\"s\":";
        json_number(out, ds);
        out += '}';
        return true;
      });
  line += "}\n";
  return line;
}

}  // namespace

// Delta state: what the previous record for each rank already told the
// reader. Guarded by `mutex`, which also serializes record writes — the
// O_APPEND atomicity only has to protect against OTHER processes
// appending to the same file.
struct StreamWriter::Impl {
  std::mutex mutex;
  struct RankState {
    std::uint64_t emitted = 0;  ///< records so far (keyframe cadence)
    SnapState reader;           ///< what the reader holds for this rank
  };
  std::map<int, RankState> ranks;
};

double StreamWriter::now_ms() {
  return static_cast<double>(now_ns()) / 1e6;
}

StreamWriter::StreamWriter(StreamConfig config)
    : config_(std::move(config)), impl_(std::make_unique<Impl>()) {
  if (config_.path.empty()) return;
  if (config_.keyframe_every < 1) config_.keyframe_every = 1;
  fd_ = ::open(config_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return;
  std::string line = "{\"k\":\"meta\",\"v\":1,\"seq\":";
  json_number(line, static_cast<double>(seq_.fetch_add(1)));
  line += ",\"t_ms\":";
  json_number(line, now_ms());
  line += ",\"pid\":";
  json_number(line, static_cast<double>(::getpid()));
  line += ",\"interval_ms\":";
  json_number(line, static_cast<double>(config_.interval_ms));
  line += "}\n";
  append_record_line(line);
}

StreamWriter::~StreamWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void StreamWriter::append_record_line(const std::string& line) {
  // One write(2) per record: on a short write (not expected for regular
  // files at these sizes) the remainder still goes out, trading the
  // atomic-interleave guarantee for not losing the record.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

void StreamWriter::append_record(const std::string& json_object) {
  if (fd_ < 0) return;
  std::string line;
  line.reserve(json_object.size() + 1);
  line += json_object;
  line += '\n';
  std::lock_guard<std::mutex> lock(impl_->mutex);
  append_record_line(line);
}

bool StreamWriter::interval_elapsed() {
  if (fd_ < 0) return false;
  const std::uint64_t now = now_ns();
  std::uint64_t last = last_interval_ns_.load(std::memory_order_relaxed);
  const std::uint64_t gap = config_.interval_ms * 1000000ull;
  // last == 0 means "never": the first probe always passes, even when the
  // process is younger than one interval (now_ns is the trace epoch).
  while (last == 0 || now - last >= gap) {
    if (last_interval_ns_.compare_exchange_weak(last, now,
                                                std::memory_order_relaxed))
      return true;
  }
  return false;
}

void StreamWriter::emit(const StreamSample& sample) {
  if (fd_ < 0) return;
  MetricsSnapshot snap;
  if (sample.with_metrics || sample.with_hists) snap = metrics().snapshot();
  emit_impl(sample, snap, snap);
}

void StreamWriter::emit(const StreamSample& sample,
                        const MetricsSnapshot& metrics_snapshot) {
  if (fd_ < 0) return;
  MetricsSnapshot hist_snapshot;
  if (sample.with_hists) hist_snapshot = metrics().snapshot();
  emit_impl(sample, metrics_snapshot, hist_snapshot);
}

void StreamWriter::emit_impl(const StreamSample& sample,
                             const MetricsSnapshot& metric_src,
                             const MetricsSnapshot& hist_src) {
  // Gather the absolute view outside the lock (snapshot + span drain are
  // the expensive parts); only the encoding and the write are serialized.
  SnapState cur;
  if (sample.with_metrics) add_slice(cur, metric_src, sample.rank);
  if (sample.with_hists) add_hists(cur, hist_src);
  // Non-destructive drain so the exit-time trace/summary exporters and
  // the flight recorder still see every span. The ring can wrap between
  // emissions, so a delta may go negative; deltas are signed and the
  // reader just accumulates.
  if (sample.with_spans) add_spans(cur, Tracer::instance().drain(false));

  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& st = impl_->ranks[sample.rank];
  const bool full =
      st.emitted % static_cast<std::uint64_t>(config_.keyframe_every) == 0;
  ++st.emitted;
  append_record_line(encode_snap(sample, seq_.fetch_add(1), cur, st.reader,
                                 full));
}

void write_summary(const std::string& path, const TraceDump& dump,
                   const MetricsSnapshot& metrics) {
  StreamSample global;
  global.values = {
      {"trace.lanes", static_cast<double>(dump.lanes.size())},
      {"trace.dropped_spans", static_cast<double>(dump.total_dropped())}};
  SnapState st;
  add_slice(st, metrics, -1);
  add_hists(st, metrics);
  add_spans(st, dump);
  SnapState reader;  // full records carry no delta state over
  std::uint64_t seq = 0;
  std::string text = encode_snap(global, seq++, st, reader, true);

  std::set<int> ranks;
  for (const auto& s : metrics.samples)
    for (const auto& [rank, v] : s.per_rank)
      if (rank >= 0) ranks.insert(rank);
  for (const int rank : ranks) {
    StreamSample slice;
    slice.rank = rank;
    SnapState rs;
    add_slice(rs, metrics, rank);
    text += encode_snap(slice, seq++, rs, reader, true);
  }
  write_text_file(path, text);
}

void StreamWriter::emit_final(const char* reason) noexcept {
  if (fd_ < 0) return;
  // Signal-safe: stack buffer, integer formatting, one write(2). No lock —
  // a record this path interleaves with is still whole (the mutex only
  // orders writers; each record leaves in a single write).
  char buf[640];
  std::size_t len = 0;
  const auto put_str = [&](const char* s) {
    while (*s != '\0' && len < sizeof buf) buf[len++] = *s++;
  };
  const auto put_u64 = [&](std::uint64_t v) {
    char tmp[24];
    int i = 24;
    do {
      tmp[--i] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i < 24 && len < sizeof buf) buf[len++] = tmp[i++];
  };
  put_str("{\"k\":\"final\",\"v\":1,\"seq\":");
  put_u64(seq_.fetch_add(1));
  put_str(",\"t_ms\":");
  // Millisecond value with microsecond fraction, via integers only (the
  // snap records carry fractional ms; whole-ms truncation here would let
  // the final record appear to predate the record before it).
  const std::uint64_t us = now_ns() / 1000ull;
  put_u64(us / 1000ull);
  put_str(".");
  const std::uint64_t frac = us % 1000ull;
  if (frac < 100) put_str("0");
  if (frac < 10) put_str("0");
  put_u64(frac);
  put_str(",\"reason\":\"");
  if (reason != nullptr) {
    for (const char* p = reason; *p != '\0' && len + 3 < sizeof buf; ++p) {
      const char c = *p;
      buf[len++] = (c == '"' || c == '\\' ||
                    static_cast<unsigned char>(c) < 0x20)
                       ? ' '
                       : c;
    }
  }
  put_str("\"}\n");
  if (len > sizeof buf - 1) len = sizeof buf - 1;  // keep the trailing \n
  buf[len - 1] = '\n';
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd_, buf + off, len - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Global streamer.
// ---------------------------------------------------------------------------

namespace {
std::atomic<StreamWriter*> g_stream{nullptr};
}  // namespace

StreamWriter* stream() noexcept {
  return g_stream.load(std::memory_order_acquire);
}

void configure_stream(StreamConfig config) {
  StreamWriter* next = nullptr;
  if (!config.path.empty()) {
    next = new StreamWriter(std::move(config));
    if (!next->ok()) {
      delete next;
      next = nullptr;
    }
  }
  // Swapping while emitters run would race on the old writer; (re)configure
  // only happens at startup or between test phases, never mid-run.
  StreamWriter* prev = g_stream.exchange(next, std::memory_order_acq_rel);
  delete prev;
}

void shutdown_stream() { configure_stream(StreamConfig{}); }

bool configure_stream_from_env() {
  const char* path_env = std::getenv("TESS_OBS_STREAM");
  const char* ms_env = std::getenv("TESS_OBS_STREAM_MS");
  StreamConfig config;
  if (path_env != nullptr && *path_env != '\0' &&
      std::strcmp(path_env, "0") != 0)
    config.path = path_env;
  if (ms_env != nullptr)
    if (const long v = std::atol(ms_env); v > 0)
      config.interval_ms = static_cast<std::uint64_t>(v);
  if (config.path.empty()) {
    // TESS_OBS_STREAM_MS alone enables streaming next to the obs exports.
    if (ms_env == nullptr || *ms_env == '\0' || std::atol(ms_env) <= 0)
      return false;
    const char* prefix = std::getenv("TESS_OBS_EXPORT");
    config.path = (prefix != nullptr && *prefix != '\0' ? prefix : "tess");
    config.path += ".stream.jsonl";
  }
  configure_stream(std::move(config));
  return stream() != nullptr;
}

namespace {
// `TESS_OBS_STREAM=run.jsonl ctest ...` streams from every binary without
// code changes: evaluated once before main(), like the flight recorder.
const bool g_stream_from_env = configure_stream_from_env();
}  // namespace

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

namespace {

/// Consume the value at the reader's position, flattening nested numeric
/// fields into `out` with dotted names. Strings, booleans, nulls, and
/// arrays (the step record's "hist.counts") are skipped.
void flatten_value(detail::JsonReader& r, const std::string& prefix,
                   std::map<std::string, double>& out) {
  if (r.peek_object()) {
    r.object([&](const std::string& key) {
      flatten_value(r, prefix.empty() ? key : prefix + "." + key, out);
    });
  } else if (r.peek_number()) {
    out[prefix] = r.number();
  } else {
    r.skip_value();
  }
}

/// The next number as an integer in [lo, hi]; throws (the line is then
/// malformed) on NaN, infinities, fractions and out-of-range values, which
/// strtod accepts but an integer cast cannot take.
double integral(detail::JsonReader& r, double lo, double hi) {
  const double v = r.number();
  if (!(v >= lo && v <= hi) || v != std::floor(v))
    throw std::runtime_error("stream: field is not an integer in range");
  return v;
}

}  // namespace

bool parse_stream_record(const std::string& line, StreamRecord& out) {
  out = StreamRecord{};
  bool have_kind = false;
  try {
    detail::JsonReader r(line);
    r.object([&](const std::string& key) {
      // The writer puts "k" first, so the section dispatch below already
      // knows the record kind (a snap "hist" is a metric-histogram map; a
      // step "hist" is the StepStats volume histogram, flattened).
      if (key == "k") {
        out.kind = r.string();
        have_kind = true;
      } else if (key == "v") {
        (void)r.number();
      } else if (key == "seq") {
        // 0x1p64 - 2048 is the largest double below 2^64.
        out.seq = static_cast<std::uint64_t>(integral(r, 0.0, 0x1p64 - 2048));
      } else if (key == "t_ms") {
        out.t_ms = r.number();
      } else if (key == "step") {
        out.step = static_cast<int>(integral(r, INT_MIN, INT_MAX));
      } else if (key == "rank") {
        out.rank = static_cast<int>(integral(r, INT_MIN, INT_MAX));
      } else if (key == "full") {
        out.full = r.number() != 0.0;
      } else if (out.kind == "snap" && key == "val") {
        r.object([&](const std::string& name) {
          out.values[name] = r.number();
        });
      } else if (out.kind == "snap" && key == "ctr") {
        r.object([&](const std::string& name) {
          out.counters[name] = r.number();
        });
      } else if (out.kind == "snap" && key == "gauge") {
        r.object([&](const std::string& name) {
          out.gauges[name] = r.number();
        });
      } else if (out.kind == "snap" && key == "hist") {
        r.object([&](const std::string& name) {
          StreamHist h;
          r.object([&](const std::string& field) {
            if (field == "n") {
              h.count = r.number();
            } else if (field == "sum") {
              h.sum = r.number();
            } else if (field == "p50") {
              h.p50 = r.number();
            } else if (field == "p90") {
              h.p90 = r.number();
            } else if (field == "p99") {
              h.p99 = r.number();
            } else if (field == "bins") {
              r.object([&](const std::string& floor_key) {
                h.bins[std::strtoull(floor_key.c_str(), nullptr, 10)] =
                    r.number();
              });
            } else {
              r.skip_value();
            }
          });
          out.hists[name] = std::move(h);
        });
      } else if (out.kind == "snap" && key == "span") {
        r.object([&](const std::string& name) {
          double n = 0.0;
          double s = 0.0;
          r.object([&](const std::string& field) {
            if (field == "n") {
              n = r.number();
            } else if (field == "s") {
              s = r.number();
            } else {
              r.skip_value();
            }
          });
          out.spans[name] = {n, s};
        });
      } else {
        flatten_value(r, key, out.values);
      }
    });
    if (!r.at_end()) return false;
  } catch (const std::exception&) {
    return false;
  }
  return have_kind;
}

void StreamDecoder::accumulate(StreamRecord& rec) {
  if (rec.kind != "snap") return;
  auto& st = state_[rec.rank];
  if (rec.full) st = SnapState{};
  for (const auto& [name, v] : rec.counters) st.counters[name] += v;
  for (const auto& [name, v] : rec.gauges) st.gauges[name] = v;
  for (const auto& [name, cs] : rec.spans) {
    auto& e = st.spans[name];
    e.first += cs.first;
    e.second += cs.second;
  }
  for (const auto& [name, h] : rec.hists) {
    auto& e = st.hists[name];
    e.count += h.count;
    e.sum += h.sum;
    e.p50 = h.p50;
    e.p90 = h.p90;
    e.p99 = h.p99;
    for (const auto& [floor_v, n] : h.bins) e.bins[floor_v] += n;
  }
  // Hand back the full cumulative view — including keys this record
  // omitted as unchanged — so consumers never have to replay deltas.
  static_cast<SnapState&>(rec) = st;
}

std::vector<StreamRecord> StreamDecoder::feed(const std::string& bytes) {
  partial_ += bytes;
  std::vector<StreamRecord> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t nl = partial_.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string line = partial_.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    StreamRecord rec;
    if (!parse_stream_record(line, rec)) {
      ++dropped_;
      continue;
    }
    accumulate(rec);
    out.push_back(std::move(rec));
  }
  partial_.erase(0, pos);
  return out;
}

StreamFile read_stream_file(const std::string& path) {
  StreamFile out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::ostringstream buf;
  buf << in.rdbuf();
  StreamDecoder decoder;
  out.records = decoder.feed(buf.str());
  out.dropped = decoder.dropped() + (decoder.pending_bytes() > 0 ? 1 : 0);
  return out;
}

// ---------------------------------------------------------------------------
// Drift detection.
// ---------------------------------------------------------------------------

DriftResult detect_drift(const std::vector<double>& series,
                         const DriftOptions& options) {
  DriftResult result;
  double ewma = 0.0;
  int seeded = 0;
  int run = 0;
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double x = series[i];
    if (seeded < options.warmup) {
      ewma = seeded == 0 ? x : ewma + options.alpha * (x - ewma);
      ++seeded;
      continue;
    }
    const double baseline = std::max(ewma, options.min_value);
    if (x > baseline * options.threshold) {
      if (run == 0) run_start = i;
      ++run;
      if (run >= options.sustain) {
        result.drifted = true;
        result.first_index = run_start;
        result.value = x;
        result.baseline = baseline;
        return result;
      }
      // Drifting samples do NOT update the EWMA: absorbing them would
      // raise the baseline toward the regression and un-flag it.
    } else {
      run = 0;
      ewma += options.alpha * (x - ewma);
    }
  }
  result.baseline = std::max(ewma, options.min_value);
  return result;
}

StreamCheckReport check_stream(const StreamFile& file,
                               const StreamCheckOptions& options) {
  StreamCheckReport report;
  report.records = file.records.size();
  report.dropped = file.dropped;

  std::set<int> steps;
  // rank -> t_ms of its step-scoped records, in stream order.
  std::map<int, std::vector<double>> rank_step_times;
  // step -> rank -> per-step seconds, for the imbalance factor.
  std::map<int, std::map<int, double>> step_rank_seconds;
  // (t_ms, cumulative pipeline.stall.* seconds) from global span records.
  std::vector<std::pair<double, double>> stall_points;

  for (const auto& rec : file.records) {
    if (!rec.hists.empty()) report.quantiles_seen = true;
    if (rec.kind != "snap") continue;
    if (rec.rank >= 0) {
      ++report.rank_records[rec.rank];
      // Step-scoped records are the ones carrying a per-step wall time;
      // mid-step heartbeats (e.g. the tessellator's per-ghost-pass
      // records) also have a step tag but no stage breakdown, and must
      // not contaminate the step-cadence series.
      const auto it = rec.values.find("stage.step_s");
      if (rec.step >= 0 && it != rec.values.end()) {
        steps.insert(rec.step);
        rank_step_times[rec.rank].push_back(rec.t_ms);
        step_rank_seconds[rec.step][rec.rank] = it->second;
      }
    } else if (!rec.spans.empty()) {
      double stall_s = 0.0;
      for (const auto& [name, cs] : rec.spans)
        if (name.rfind("pipeline.stall.", 0) == 0) stall_s += cs.second;
      stall_points.emplace_back(rec.t_ms, stall_s);
    }
  }
  report.steps_seen = static_cast<int>(steps.size());

  const auto flag = [&](const DriftResult& d, const std::string& what,
                        const char* unit) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "drifted to %.4g %s (baseline %.4g, x%.2f) from sample %zu",
                  d.value, unit, d.baseline, d.ratio(), d.first_index);
    report.findings.push_back(what + " " + buf);
  };

  for (const auto& [rank, times] : rank_step_times) {
    std::vector<double> wall_ms;
    for (std::size_t i = 1; i < times.size(); ++i)
      wall_ms.push_back(times[i] - times[i - 1]);
    const auto d = detect_drift(wall_ms, options.drift);
    if (d.drifted)
      flag(d, "rank " + std::to_string(rank) + " step wall-time", "ms");
  }

  std::vector<double> imbalance;
  for (const auto& [step, by_rank] : step_rank_seconds) {
    if (by_rank.size() < 2) continue;
    double max_s = 0.0;
    double sum_s = 0.0;
    for (const auto& [rank, s] : by_rank) {
      max_s = std::max(max_s, s);
      sum_s += s;
    }
    const double mean_s = sum_s / static_cast<double>(by_rank.size());
    if (mean_s > 0.0) imbalance.push_back(max_s / mean_s);
  }
  if (const auto d = detect_drift(imbalance, options.drift); d.drifted)
    flag(d, "imbalance factor (max/mean stage.step_s)", "x");

  const double nranks =
      static_cast<double>(std::max<std::size_t>(1, report.rank_records.size()));
  std::vector<double> stall_fraction;
  for (std::size_t i = 1; i < stall_points.size(); ++i) {
    const double wall_s =
        (stall_points[i].first - stall_points[i - 1].first) / 1000.0;
    if (wall_s <= 0.0) continue;
    const double stall_s =
        std::max(0.0, stall_points[i].second - stall_points[i - 1].second);
    stall_fraction.push_back(stall_s / (wall_s * nranks));
  }
  if (const auto d = detect_drift(stall_fraction, options.drift); d.drifted)
    flag(d, "pipeline stall fraction", "");

  report.ok = report.findings.empty();
  return report;
}

}  // namespace tess::obs
