#include "obs/export.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace tess::obs {

namespace {

using detail::JsonReader;

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::vector<SpanAgg> aggregate_spans(const TraceDump& dump) {
  std::map<std::string_view, SpanAgg> by_name;
  for (const auto& lane : dump.lanes) {
    for (const auto& span : lane.spans) {
      const double dur =
          static_cast<double>(span.t1_ns - span.t0_ns) * 1e-9;
      auto [it, inserted] = by_name.try_emplace(span.name);
      SpanAgg& agg = it->second;
      if (inserted) agg.name = span.name;
      agg.count += 1;
      agg.total_s += dur;
    }
  }
  std::vector<SpanAgg> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) out.push_back(std::move(agg));
  return out;
}

std::string chrome_trace_json(const TraceDump& dump) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  // One chrome "process" per rank (pid = rank + 1; 0 holds unranked
  // threads) and one chrome "thread" per lane: a rank×thread grid.
  std::map<int, bool> pids;
  for (const auto& lane : dump.lanes) {
    const int pid = lane.rank + 1;
    if (!pids.contains(pid)) {
      pids[pid] = true;
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << pid
         << ",\"name\":\"process_name\",\"args\":{\"name\":\""
         << (lane.rank < 0 ? std::string("unranked")
                           : "rank " + std::to_string(lane.rank))
         << "\"}}";
    }
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << lane.lane
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"thread "
       << lane.lane << "\"}}";
    for (const auto& span : lane.spans) {
      sep();
      os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << lane.lane
         << ",\"name\":\"" << json_escape(span.name)
         << "\",\"ts\":" << fmt_double(static_cast<double>(span.t0_ns) * 1e-3)
         << ",\"dur\":"
         << fmt_double(static_cast<double>(span.t1_ns - span.t0_ns) * 1e-3)
         << ",\"args\":{\"depth\":" << span.depth;
      if (span.arg != kSpanNoArg) os << ",\"arg\":" << span.arg;
      os << "}}";
    }
  }
  os << "\n]}\n";
  return os.str();
}

std::vector<SummaryRow> parse_benchmark_json(const std::string& text,
                                             std::string* build_type) {
  std::vector<SummaryRow> rows;
  if (build_type != nullptr) build_type->clear();
  std::string context_build_type;  // library_build_type fallback
  JsonReader in(text);
  in.object([&](const std::string& section) {
    if (section == "context") {
      in.object([&](const std::string& key) {
        if (key == "tess_build_type") {
          if (build_type != nullptr) *build_type = in.string();
          else in.skip_value();
        } else if (key == "library_build_type") {
          context_build_type = in.string();
        } else {
          in.skip_value();
        }
      });
      return;
    }
    if (section != "benchmarks") {
      in.skip_value();
      return;
    }
    in.array([&] {
      SummaryRow row;
      row.kind = "bench";
      std::string run_type;
      double real_time = 0.0, cpu_time = 0.0, unit = 1e-9;  // default ns
      in.object([&](const std::string& field) {
        if (field == "name") row.name = in.string();
        else if (field == "run_type") run_type = in.string();
        else if (field == "iterations") row.count = in.number();
        else if (field == "real_time") real_time = in.number();
        else if (field == "cpu_time") cpu_time = in.number();
        else if (field == "time_unit") {
          const std::string u = in.string();
          unit = u == "s" ? 1.0 : u == "ms" ? 1e-3 : u == "us" ? 1e-6 : 1e-9;
        } else {
          in.skip_value();
        }
      });
      // Aggregate rows (mean/median/stddev of repetitions) would double
      // count against the per-iteration rows; keep iterations only.
      if (!run_type.empty() && run_type != "iteration") return;
      row.total = real_time * unit;  // per-iteration wall seconds
      row.min = cpu_time * unit;
      row.max = cpu_time * unit;
      rows.push_back(std::move(row));
    });
  });
  if (build_type != nullptr && build_type->empty())
    *build_type = context_build_type;
  return rows;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("obs: cannot open '" + path + "' for writing");
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  // fclose flushes the buffered tail; its failure truncates the file too.
  if (std::fclose(f) != 0 || n != text.size())
    throw std::runtime_error("obs: short write to '" + path + "'");
}

}  // namespace tess::obs
