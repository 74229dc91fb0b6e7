// The two in-situ workloads (perfbench/README.md). An op drives one step
// through the public API on four thread-ranks, from barrier to barrier:
// tessellate_step, a barrier that measures the wait for the slowest rank,
// serialize and write_blocks (insitu_uniform also advances the simulation
// first). Outputs are checked after the closing barrier, outside the timed
// interval.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/blockio.hpp"
#include "hacc/simulation.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

bool uniform_op_ok(double kept, double volume_sum, double particles,
                   double box_volume) {
  return kept == particles &&
         std::abs(volume_sum - box_volume) <= 1e-9 * box_volume;
}

bool clustered_op_ok(double accounted, double particles) {
  return accounted == particles;
}

namespace {

using tess::comm::Comm;

constexpr int kRanks = 4;
constexpr int kSetups = 3;
/// At least this many timed ops, so op_tail_ms is p50 or higher.
constexpr int kMinOps = 20;
/// Work counts come from the first timed ops only, so the same seed gives
/// the same counts whatever the host speed.
constexpr int kCountOps = 6;

/// This rank's slice of the program's own work counters (obs::metrics()).
struct Counters {
  double fft = 0, messages = 0, cuts = 0, cand_seen = 0, cand_kept = 0,
         exact = 0, cells_built = 0;
};

Counters own_counters(int rank) {
  auto& m = tess::obs::metrics();
  static auto& fft = m.counter("hacc.fft_transforms");
  static auto& messages = m.counter("comm.messages");
  static auto& cuts = m.counter("geom.cuts");
  static auto& seen = m.counter("geom.backend.cand_seen");
  static auto& kept = m.counter("geom.backend.cand_kept");
  static auto& exact = m.counter("geom.exact_fallbacks");
  static auto& built = m.counter("tess.cells_built");
  const auto v = [rank](const tess::obs::Counter& c) {
    return static_cast<double>(c.value(rank));
  };
  return {v(fft), v(messages), v(cuts), v(seen), v(kept), v(exact), v(built)};
}

Counters operator-(const Counters& a, const Counters& b) {
  return {a.fft - b.fft,           a.messages - b.messages,
          a.cuts - b.cuts,         a.cand_seen - b.cand_seen,
          a.cand_kept - b.cand_kept, a.exact - b.exact,
          a.cells_built - b.cells_built};
}

/// What one rank reports about one op (gathered to rank 0).
struct RankRecord {
  double kept = 0, volume = 0, incomplete = 0, culled = 0;
  double local = 0, ghost_received = 0, rebuilt = 0;
  double compute_s = 0, exchange_s = 0, retry_compute_s = 0;
  double uncertified = 0, passes = 0;
  Counters work;
};

RankRecord record_of(const tess::core::BlockMesh& mesh,
                     const tess::core::TessStats& st) {
  RankRecord r;
  r.kept = static_cast<double>(mesh.cells.size());
  for (const auto& c : mesh.cells) r.volume += c.volume;
  r.incomplete = static_cast<double>(st.cells_incomplete);
  r.culled = static_cast<double>(st.cells_culled_early + st.cells_culled_volume);
  r.local = static_cast<double>(st.local_particles);
  r.ghost_received = static_cast<double>(st.ghost_received);
  for (std::size_t i = 0; i < st.iterations.size(); ++i) {
    r.rebuilt += static_cast<double>(st.iterations[i].cells_built);
    if (i > 0) r.retry_compute_s += st.iterations[i].compute_seconds;
  }
  r.compute_s = st.compute_seconds;
  r.exchange_s = st.exchange_seconds;
  r.uncertified = static_cast<double>(st.cells_uncertified);
  r.passes = st.auto_iterations;
  return r;
}

/// The tail both workloads share: wait for the slowest rank's
/// tessellation, then serialize this block and write the step file.
std::uint64_t finish_op(Comm& c, const tess::core::BlockMesh& mesh,
                        const std::string& path, std::int64_t id) {
  {
    TESS_SPAN_ARG("bench.comm.wait", id);
    c.barrier();
  }
  tess::diy::Buffer buf;
  {
    TESS_SPAN_ARG("bench.core.serialize", id);
    mesh.serialize(buf);
  }
  TESS_SPAN_ARG("bench.diy.write_blocks", id);
  return tess::diy::write_blocks(c, path, buf);
}

/// insitu_uniform on one rank: mini-HACC at 32^3, fixed ghost (the
/// TessOptions defaults), timing from step kUniformStartStep on.
class UniformRank {
 public:
  static constexpr int kWarmupOps = 1;
  static constexpr double kParticles = double{kUniformNp} * kUniformNp * kUniformNp;

  UniformRank(Comm& c, const Args& a)
      : c_(c), sim_(c, uniform_sim_config(a.seed)),
        path_(a.data_dir + "/insitu_uniform.bin") {
    sim_.run_until(kUniformStartStep);
    tess_ = std::make_unique<tess::core::Tessellator>(
        c, sim_.decomposition(), tess::core::TessOptions{});
  }

  [[nodiscard]] bool exhausted() const {
    return sim_.step_index() >= sim_.config().nsteps;
  }
  void prepare(std::int64_t) {}
  std::uint64_t op(std::int64_t id) {
    {
      TESS_SPAN_ARG("bench.hacc.step", id);
      sim_.step();
    }
    {
      TESS_SPAN_ARG("bench.core.tessellate_step", id);
      mesh_ = tess_->tessellate_step(sim_.step_index(),
                                     sim_.local_tess_particles());
    }
    return finish_op(c_, mesh_, path_, id);
  }
  [[nodiscard]] RankRecord record() const {
    return record_of(mesh_, tess_->stats());
  }
  static bool ok(const std::vector<RankRecord>& all) {
    double kept = 0, volume = 0;
    for (const auto& r : all) {
      kept += r.kept;
      volume += r.volume;
    }
    const double box = std::pow(static_cast<double>(kUniformNp), 3);
    return uniform_op_ok(kept, volume, kParticles, box);
  }
  bool final_check() { return true; }
  [[nodiscard]] int repartitions() const { return tess_->repartitions(); }

 private:
  Comm& c_;
  tess::hacc::Simulation sim_;
  std::string path_;
  std::unique_ptr<tess::core::Tessellator> tess_;
  tess::core::BlockMesh mesh_;
};

/// insitu_clustered on one rank: the clustered cloud handed over in a
/// uniform-grid layout to an auto-ghost, incremental, adaptive tessellator.
class ClusteredRank {
 public:
  static constexpr int kWarmupOps = 2;
  static constexpr double kParticles =
      double{kClusteredNp} * kClusteredNp * kClusteredNp;

  ClusteredRank(Comm& c, const Args& a)
      : c_(c), seed_(a.seed), path_(a.data_dir + "/insitu_clustered.bin"),
        cloud_(clustered_cloud(a.seed, static_cast<int>(kParticles),
                               kClusteredDomain)),
        grid_({0, 0, 0},
              {kClusteredDomain, kClusteredDomain, kClusteredDomain},
              tess::diy::Decomposition::factor(c.size()), false),
        tess_(c, grid_, options(true)) {}

  [[nodiscard]] bool exhausted() const { return false; }
  /// Input generation (untimed): every rank drifts the whole cloud with the
  /// same seeded steps and keeps the particles of its grid block.
  void prepare(std::int64_t id) {
    drift(cloud_, seed_, id, kDriftSigma, kClusteredDomain);
    mine_.clear();
    for (const auto& p : cloud_)
      if (grid_.block_of_point(p.pos) == c_.rank()) mine_.push_back(p);
  }
  std::uint64_t op(std::int64_t id) {
    {
      TESS_SPAN_ARG("bench.core.tessellate_step", id);
      mesh_ = tess_.tessellate_step(static_cast<int>(id), mine_);
    }
    return finish_op(c_, mesh_, path_, id);
  }
  [[nodiscard]] RankRecord record() const {
    return record_of(mesh_, tess_.stats());
  }
  static bool ok(const std::vector<RankRecord>& all) {
    double accounted = 0;
    for (const auto& r : all) accounted += r.kept + r.incomplete + r.culled;
    return clustered_op_ok(accounted, kParticles);
  }
  /// The last op's merged mesh must equal, byte for byte, that of a
  /// uniform-grid tessellation of the same particles (collective; the
  /// verdict is rank 0's).
  bool final_check() {
    const auto adaptive = tess::core::merged_mesh_bytes(c_, mesh_);
    tess::core::Tessellator reference(c_, grid_, options(false));
    const auto grid_mesh = reference.tessellate(mine_);
    const auto expected = tess::core::merged_mesh_bytes(c_, grid_mesh);
    return c_.rank() != 0 || (!adaptive.empty() && adaptive == expected);
  }
  [[nodiscard]] int repartitions() const { return tess_.repartitions(); }

 private:
  static tess::core::TessOptions options(bool adaptive) {
    tess::core::TessOptions o;
    o.ghost = 2.0 * kClusteredDomain / kClusteredNp;
    o.auto_ghost = true;
    o.incremental = true;
    o.adaptive = adaptive;
    return o;
  }

  Comm& c_;
  std::uint64_t seed_;
  std::string path_;
  std::vector<tess::diy::Particle> cloud_;
  std::vector<tess::diy::Particle> mine_;
  tess::diy::Decomposition grid_;
  tess::core::Tessellator tess_;
  tess::core::BlockMesh mesh_;
};

/// Rank 0's view of one finished op.
struct OpResult {
  double ms = 0;
  std::vector<RankRecord> ranks;
  double traffic = 0;     ///< Δ Comm::traffic_bytes()
  double file_bytes = 0;  ///< write_blocks' return
};

/// One op, collective. Rank 0 turns the tracer on for a traced op.
template <class W>
OpResult run_op(Comm& c, W& w, std::int64_t id, bool traced) {
  const bool root = c.rank() == 0;
  auto& tracer = tess::obs::Tracer::instance();
  w.prepare(id);
  if (root && traced) tracer.set_enabled(true);
  const Counters before = own_counters(c.rank());
  const auto traffic0 = c.traffic_bytes();
  c.barrier();
  const double t0 = now_s();
  std::uint64_t bytes = 0;
  {
    TESS_SPAN_ARG("bench.op", id);
    bytes = w.op(id);
    c.barrier();
  }
  const double t1 = now_s();
  const auto traffic1 = c.traffic_bytes();
  if (root) tracer.set_enabled(false);
  RankRecord mine = w.record();
  mine.work = own_counters(c.rank()) - before;
  // No rank sends its record before rank 0 has read the traffic counter.
  c.barrier();
  OpResult r;
  r.ranks = c.gather(mine, 0);
  r.ms = (t1 - t0) * 1e3;
  r.traffic = static_cast<double>(traffic1 - traffic0);
  r.file_bytes = static_cast<double>(bytes);
  return r;
}

/// Rank 0's per-layer samples for one timed op of a traced run.
void add_layer_samples(std::map<std::string, std::vector<double>>& layer,
                       const OpResult& r, int ordinal, double particles,
                       const std::map<std::string, double>* span_ms) {
  double local = 0, ghosts = 0, rebuilt = 0, compute = 0, retry = 0;
  double uncertified = 0, passes = 0, exchange_max = 0, compute_max = 0;
  Counters w;
  std::vector<double> compute_s;
  for (const auto& rr : r.ranks) {
    local += rr.local;
    ghosts += rr.ghost_received;
    rebuilt += rr.rebuilt;
    compute += rr.compute_s;
    retry += rr.retry_compute_s;
    uncertified += rr.uncertified;
    passes = std::max(passes, rr.passes);
    exchange_max = std::max(exchange_max, rr.exchange_s);
    compute_max = std::max(compute_max, rr.compute_s);
    compute_s.push_back(rr.compute_s);
    w.fft += rr.work.fft;
    w.messages += rr.work.messages;
    w.cuts += rr.work.cuts;
    w.cand_seen += rr.work.cand_seen;
    w.cand_kept += rr.work.cand_kept;
    w.exact += rr.work.exact;
    w.cells_built += rr.work.cells_built;
  }
  if (ordinal < kCountOps) {
    layer["hacc.fft_per_step"].push_back(w.fft);
    layer["comm.bytes_per_step"].push_back(r.traffic);
    layer["comm.messages_per_step"].push_back(w.messages);
    layer["diy.ghost_per_particle"].push_back(ratio(ghosts, local));
    layer["diy.file_bytes_per_particle"].push_back(r.file_bytes / particles);
    layer["geom.cuts_per_cell"].push_back(ratio(w.cuts, w.cells_built));
    layer["geom.candidates_per_cell"].push_back(
        ratio(w.cand_seen, w.cells_built));
    layer["geom.screen_keep_ratio"].push_back(ratio(w.cand_kept, w.cand_seen));
    layer["geom.exact_fallback_ratio"].push_back(ratio(w.exact, w.cuts));
    layer["core.passes_per_step"].push_back(passes);
    layer["core.rebuilds_per_cell"].push_back(ratio(rebuilt, local));
    layer["core.uncertified_cells"].push_back(uncertified);
  }
  if (span_ms == nullptr) return;
  layer["diy.exchange_ms"].push_back(exchange_max * 1e3);
  layer["geom.build_ms"].push_back(compute_max * 1e3);
  layer["core.build_imbalance"].push_back(imbalance(compute_s));
  layer["core.retry_build_share"].push_back(ratio(retry, compute));
  const std::pair<const char*, const char*> from_spans[] = {
      {"hacc.step_ms", "bench.hacc.step"},
      {"comm.wait_ms", "bench.comm.wait"},
      {"diy.write_ms", "bench.diy.write_blocks"},
      {"core.tessellate_ms", "bench.core.tessellate_step"},
      {"core.serialize_ms", "bench.core.serialize"},
  };
  for (const auto& [metric, span] : from_spans)
    if (const auto it = span_ms->find(span); it != span_ms->end())
      layer[metric].push_back(it->second);
}

template <class W>
Report run_insitu(const Args& a, double t_process, SpanLog& spans) {
  Report rep;
  std::vector<double> setups, op_ms, traced_ms, untraced_ms;
  std::map<std::string, std::vector<double>> layer;
  double peak_mb = 0;
  int repartitions = 0;
  try {
    for (int s = 0; s < kSetups; ++s) {
      const bool timed = s + 1 == kSetups;
      const double t_begin = s == 0 ? t_process : now_s();
      tess::comm::Runtime::run(kRanks, [&](Comm& c) {
        const bool root = c.rank() == 0;
        W w(c, a);
        std::int64_t id = 0;
        for (int i = 0; i < W::kWarmupOps; ++i) {
          if (root) rep.begin_op();
          const OpResult r = run_op(c, w, id++, false);
          if (root) rep.end_op(W::ok(r.ranks));
        }
        c.barrier();
        if (root) setups.push_back(now_s() - t_begin);
        if (!timed) return;
        if (root && !reset_peak_rss())
          rep.note("cannot reset the RSS high-water mark");
        c.barrier();
        const int repartitions0 = w.repartitions();
        const double t0 = now_s();
        for (int n = 0;; ++n) {
          std::vector<int> go{0};
          if (root)
            go[0] = !w.exhausted() &&
                    (n < kMinOps || now_s() - t0 < a.seconds);
          c.broadcast(go, 0);
          if (go[0] == 0) break;
          const bool traced = a.trace && n % 2 == 1;
          if (root) rep.begin_op();
          const OpResult r = run_op(c, w, id++, traced);
          if (!root) continue;
          rep.end_op(W::ok(r.ranks));
          op_ms.push_back(r.ms);
          if (!a.trace) continue;
          (traced ? traced_ms : untraced_ms).push_back(r.ms);
          if (traced) {
            const auto span_ms = spans.collect();
            add_layer_samples(layer, r, n, W::kParticles, &span_ms);
          } else {
            add_layer_samples(layer, r, n, W::kParticles, nullptr);
          }
        }
        if (root) {
          peak_mb = peak_rss_mb();
          repartitions = w.repartitions() - repartitions0;
        }
        const bool ok = w.final_check();
        if (root && !ok)
          rep.fail_run_check(
              "merged mesh differs from a uniform-grid tessellation of the "
              "same particles");
      });
    }
  } catch (const std::exception& e) {
    rep.fail_pending(e.what());
  }
  if (a.trace) {
    set_medians(rep, layer);
    rep.set("core.repartitions", repartitions);
    rep.set("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
  } else {
    set_op_metrics(rep, op_ms, W::kParticles);
    rep.set("setup_s", median(setups));
    rep.set("peak_rss_mb", peak_mb);
  }
  return rep;
}

}  // namespace

Report run_insitu_uniform(const Args& args, double t_process,
                          SpanLog& spans) {
  return run_insitu<UniformRank>(args, t_process, spans);
}

Report run_insitu_clustered(const Args& args, double t_process,
                            SpanLog& spans) {
  return run_insitu<ClusteredRank>(args, t_process, spans);
}

}  // namespace perfbench
