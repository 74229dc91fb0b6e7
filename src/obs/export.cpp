#include "obs/export.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "obs/json.hpp"

namespace tess::obs {

using detail::JsonReader;

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
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
    out += '\n';
  };
  // One chrome "process" per rank (pid = rank + 1; 0 holds unranked
  // threads) and one chrome "thread" per lane: a rank×thread grid.
  std::map<int, bool> pids;
  for (const auto& lane : dump.lanes) {
    const int pid = lane.rank + 1;
    const std::string ids = "\"pid\":" + std::to_string(pid) +
                            ",\"tid\":" + std::to_string(lane.lane);
    if (!pids.contains(pid)) {
      pids[pid] = true;
      sep();
      out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
             ",\"name\":\"process_name\",\"args\":{\"name\":\"" +
             (lane.rank < 0 ? std::string("unranked")
                            : "rank " + std::to_string(lane.rank)) +
             "\"}}";
    }
    sep();
    out += "{\"ph\":\"M\"," + ids +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"thread " +
           std::to_string(lane.lane) + "\"}}";
    for (const auto& span : lane.spans) {
      sep();
      out += "{\"ph\":\"X\"," + ids + ",\"name\":";
      json_string(out, span.name);
      out += ",\"ts\":";
      json_number(out, static_cast<double>(span.t0_ns) * 1e-3);
      out += ",\"dur\":";
      json_number(out, static_cast<double>(span.t1_ns - span.t0_ns) * 1e-3);
      out += ",\"args\":{\"depth\":" + std::to_string(span.depth);
      if (span.arg != kSpanNoArg) out += ",\"arg\":" + std::to_string(span.arg);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::vector<SummaryRow> parse_benchmark_json(const std::string& text,
                                             std::string* build_type) {
  std::vector<SummaryRow> rows;
  std::map<std::string, std::size_t> row_of;  // name -> index in rows
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
      // Repetitions share a name: keep the fastest (the smallest
      // per-iteration real time), one row per benchmark.
      const auto [it, inserted] = row_of.emplace(row.name, rows.size());
      if (inserted)
        rows.push_back(std::move(row));
      else if (row.total < rows[it->second].total)
        rows[it->second] = std::move(row);
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
