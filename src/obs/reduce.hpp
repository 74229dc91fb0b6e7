// Rank-0 reduction of the observability layer at a barrier (header-only so
// tess_obs itself does not depend on tess_comm).
//
// Although the threaded comm runtime shares one process — every rank could
// read the whole registry directly — the reduction is written with genuine
// communication structure (each rank sends only its own slice) so it ports
// unchanged to a real distributed runtime and exercises the same message
// pattern the paper's MPI reductions would.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"

namespace tess::obs {

/// Merge every rank's metric slices to rank 0. Collective; ranks != 0
/// return an empty snapshot. Each rank serializes its own slices
/// ("kind\tname\tvalue" lines, values at the %.9g of obs::json_number)
/// and rank 0 combines them by name, counters by sum and gauges by max,
/// so the result equals Registry::snapshot() totals restricted to ranked
/// updates — plus rank 0's own unranked slice.
inline MetricsSnapshot reduce_metrics(comm::Comm& comm) {
  const MetricsSnapshot mine = metrics().snapshot();
  const int me = comm.rank();

  std::string slice;
  const auto add_slice = [&](const MetricSample& s, double v) {
    slice += s.kind;
    slice += '\t';
    slice += s.name;
    slice += '\t';
    json_number(slice, v);
    slice += '\n';
  };
  for (const auto& s : mine.samples) {
    for (const auto& [rank, value] : s.per_rank)
      if (rank == me || (me == 0 && rank == -1)) add_slice(s, value);
    // Histograms and per-tag counters carry no per-rank slices; rank 0
    // contributes the global value so they survive the reduction.
    if (s.per_rank.empty() && me == 0 && s.value != 0.0) add_slice(s, s.value);
  }

  std::vector<char> bytes(slice.begin(), slice.end());
  const auto gathered = comm.gatherv(bytes, 0);
  MetricsSnapshot out;
  if (me != 0) return out;

  const std::string text(gathered.begin(), gathered.end());
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    const std::size_t t1 = line.find('\t');
    const std::size_t t2 = line.find('\t', t1 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos) continue;
    const char kind = line[0];
    const std::string name = line.substr(t1 + 1, t2 - t1 - 1);
    const double v = std::stod(line.substr(t2 + 1));
    MetricSample* sample = nullptr;
    for (auto& s : out.samples)
      if (s.name == name) sample = &s;
    // A name starts from its first slice. Counters/histogram counts sum
    // across ranks; gauges reduce with max.
    if (sample == nullptr)
      out.samples.push_back({name, kind, v, 0.0, {}, {}});
    else if (kind == 'g')
      sample->value = std::max(sample->value, v);
    else
      sample->value += v;
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

/// Per-step global record for the live stream: reduce the metrics to rank
/// 0 and emit one rank=-1 "snap" record with the reduced counters/gauges
/// plus the process-global histograms and their p50/p90/p99. Span
/// aggregates ride along only when the streamer's interval elapsed (a full
/// tracer walk per step would not be "low-overhead"). Collective on
/// `comm`; a no-op on every rank when streaming is off — obs::stream() is
/// process-global, so the on/off verdict is consistent across ranks.
inline void stream_reduced_step(comm::Comm& comm, int step) {
  StreamWriter* writer = stream();
  if (writer == nullptr) return;
  const MetricsSnapshot reduced = reduce_metrics(comm);
  if (comm.rank() != 0) return;
  StreamSample sample;
  sample.step = step;
  sample.rank = -1;
  sample.with_hists = true;
  sample.with_spans = writer->interval_elapsed();
  writer->emit(sample, reduced);
}

}  // namespace tess::obs
