// Regression tests for the incremental auto-ghost loop: the serialized
// BlockMesh must be byte-identical between the incremental path (annulus
// deltas + certified-cell reuse) and the restart-from-scratch path, for any
// thread count, on periodic and open domains; and TessStats must stay
// truthful (cumulative counters + per-iteration breakdown).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/serialize.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::TessOptions;
using tess::core::TessStats;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

// Clustered distribution (two dense blobs + background): cell sizes vary
// wildly, so the initial ghost guess certifies most cells while the sparse
// regions force several doubling passes.
std::vector<Particle> clustered_particles(int n, double domain) {
  Rng rng(77);
  std::vector<Particle> ps;
  const Vec3 centers[2] = {{0.3 * domain, 0.3 * domain, 0.4 * domain},
                           {0.7 * domain, 0.6 * domain, 0.6 * domain}};
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 5 < 2) {  // 40% in cluster 0, 20% in cluster 1, 40% background
      const Vec3& c = centers[i % 5 == 0 ? 0 : 1];
      p = {c.x + rng.normal(0.0, 0.05 * domain),
           c.y + rng.normal(0.0, 0.05 * domain),
           c.z + rng.normal(0.0, 0.05 * domain)};
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

struct AutoRun {
  std::vector<std::vector<std::byte>> bytes;  // per rank
  std::vector<TessStats> stats;               // per rank
};

AutoRun run_auto(int nranks, int threads, int nparticles, bool periodic,
                 bool incremental, double initial_ghost) {
  const double domain = 8.0;
  AutoRun out;
  out.bytes.resize(nranks);
  out.stats.resize(nranks);
  Runtime::run(nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(nranks), periodic);
    TessOptions opt;
    opt.ghost = initial_ghost;
    opt.auto_ghost = true;
    opt.incremental = incremental;
    opt.threads = threads;
    TessStats stats;
    auto mesh = tess::core::standalone_tessellate(
        c, d,
        c.rank() == 0 ? clustered_particles(nparticles, domain)
                      : std::vector<Particle>{},
        opt, &stats);
    tess::diy::Buffer buf;
    mesh.serialize(buf);
    out.bytes[c.rank()] = buf.data();
    out.stats[c.rank()] = stats;
  });
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// The byte-identity anchor (acceptance criterion): incremental vs scratch,
// periodic and open, threads {1, 4}, >= 2k clustered particles.
// ---------------------------------------------------------------------------

class IncrementalByteIdentity
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(IncrementalByteIdentity, MatchesScratchAtFinalGhost) {
  const auto [periodic, threads] = GetParam();
  const int kParticles = 2000, kRanks = 2;
  const double kInitialGhost = 0.25;  // small on purpose: forces doublings

  const auto inc = run_auto(kRanks, threads, kParticles, periodic, true,
                            kInitialGhost);
  const auto scr = run_auto(kRanks, threads, kParticles, periodic, false,
                            kInitialGhost);

  for (int rank = 0; rank < kRanks; ++rank) {
    ASSERT_FALSE(inc.bytes[static_cast<std::size_t>(rank)].empty());
    EXPECT_EQ(inc.bytes[static_cast<std::size_t>(rank)],
              scr.bytes[static_cast<std::size_t>(rank)])
        << "periodic=" << periodic << " threads=" << threads
        << " rank=" << rank;
    // Same ghost trajectory: pass counts and final ghost must agree, or the
    // byte comparison above would be comparing different tessellations.
    const auto& si = inc.stats[static_cast<std::size_t>(rank)];
    const auto& ss = scr.stats[static_cast<std::size_t>(rank)];
    EXPECT_EQ(si.auto_iterations, ss.auto_iterations);
    EXPECT_EQ(si.ghost_used, ss.ghost_used);
    EXPECT_EQ(si.cells_kept, ss.cells_kept);
    EXPECT_EQ(si.cells_incomplete, ss.cells_incomplete);
    EXPECT_EQ(si.cells_uncertified, ss.cells_uncertified);
  }
  // The run must actually exercise the loop (multiple passes), otherwise
  // this test proves nothing about retention/annulus reuse.
  EXPECT_GE(inc.stats[0].auto_iterations, 3);
  // Pass 2 rebuilds fewer sites than pass 1 left incomplete or without a
  // security-radius certificate: the vertex-ball certificate retired some
  // of the latter, and the bytes above still match the scratch run.
  std::size_t rebuilt = 0, unresolved = 0;
  for (const auto& s : inc.stats) {
    ASSERT_GE(s.iterations.size(), 2u);
    rebuilt += s.iterations[1].cells_built;
    unresolved +=
        s.iterations[0].cells_incomplete + s.iterations[0].cells_uncertified;
  }
  EXPECT_LT(rebuilt, unresolved)
      << "periodic=" << periodic << " threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(
    DomainsAndThreads, IncrementalByteIdentity,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 4)));

TEST(IncrementalTess, ByteIdenticalAcrossThreadCounts) {
  // Thread-count determinism of the incremental path itself.
  const auto t1 = run_auto(2, 1, 1200, true, true, 0.25);
  const auto t4 = run_auto(2, 4, 1200, true, true, 0.25);
  for (int rank = 0; rank < 2; ++rank)
    EXPECT_EQ(t4.bytes[static_cast<std::size_t>(rank)],
              t1.bytes[static_cast<std::size_t>(rank)])
        << "rank " << rank;
}

// ---------------------------------------------------------------------------
// Stats truthfulness (satellite): cumulative counters + per-pass breakdown.
// ---------------------------------------------------------------------------

TEST(IncrementalTess, IterationStatsSumToCumulative) {
  for (const bool incremental : {true, false}) {
    const auto run = run_auto(2, 1, 1200, true, incremental, 0.25);
    for (const auto& s : run.stats) {
      ASSERT_EQ(s.iterations.size(),
                static_cast<std::size_t>(s.auto_iterations));
      std::size_t sent = 0, received = 0;
      double exchange = 0.0, compute = 0.0;
      for (const auto& it : s.iterations) {
        sent += it.ghost_sent;
        received += it.ghost_received;
        exchange += it.exchange_seconds;
        compute += it.compute_seconds;
      }
      EXPECT_EQ(s.ghost_sent, sent) << "incremental=" << incremental;
      EXPECT_EQ(s.ghost_received, received) << "incremental=" << incremental;
      EXPECT_DOUBLE_EQ(s.exchange_seconds, exchange);
      // Final mesh assembly is timed outside the per-pass entries.
      EXPECT_GE(s.compute_seconds, compute);
      // Ghost sizes double monotonically.
      for (std::size_t k = 1; k < s.iterations.size(); ++k)
        EXPECT_GT(s.iterations[k].ghost, s.iterations[k - 1].ghost);
      // Classification partition stays exact.
      EXPECT_EQ(s.local_particles, s.cells_kept + s.cells_incomplete +
                                       s.cells_culled_early +
                                       s.cells_culled_volume);
    }
  }
}

TEST(IncrementalTess, AnnulusDeltasShrinkTraffic) {
  // The whole point: the incremental run ships strictly less than the
  // restart-from-scratch run, whose later passes re-send everything.
  const auto inc = run_auto(2, 1, 1200, true, true, 0.25);
  const auto scr = run_auto(2, 1, 1200, true, false, 0.25);
  ASSERT_GE(inc.stats[0].auto_iterations, 2);
  std::size_t inc_sent = 0, scr_sent = 0;
  for (const auto& s : inc.stats) inc_sent += s.ghost_sent;
  for (const auto& s : scr.stats) scr_sent += s.ghost_sent;
  EXPECT_LT(inc_sent, scr_sent);
  // The incremental total equals the scratch run's final pass alone: the
  // annuli partition the final ghost ball.
  std::size_t scr_last = 0;
  for (const auto& s : scr.stats) scr_last += s.iterations.back().ghost_sent;
  EXPECT_EQ(inc_sent, scr_last);
  // Later incremental passes rebuild only the unresolved sites.
  for (const auto& s : inc.stats)
    for (std::size_t k = 1; k < s.iterations.size(); ++k)
      EXPECT_LE(s.iterations[k].cells_built, s.iterations[0].cells_built);
}

TEST(IncrementalTess, FixedModeRecordsOneIteration) {
  const double domain = 8.0;
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 2.0;
    TessStats stats;
    (void)tess::core::standalone_tessellate(
        c, d,
        c.rank() == 0 ? clustered_particles(600, domain)
                      : std::vector<Particle>{},
        opt, &stats);
    ASSERT_EQ(stats.iterations.size(), 1u);
    EXPECT_EQ(stats.iterations[0].ghost_sent, stats.ghost_sent);
    EXPECT_EQ(stats.iterations[0].ghost_received, stats.ghost_received);
    EXPECT_DOUBLE_EQ(stats.iterations[0].ghost, 2.0);
  });
}
