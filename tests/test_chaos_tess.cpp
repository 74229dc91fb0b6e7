// Seeded chaos sweep for the tessellation pipeline: the auto-ghost loop must
// produce byte-identical meshes under randomized drop/delay/duplicate plans
// (the resilience layer heals every injected fault), a forced exchange
// failure must degrade gracefully in both ghost modes — abandon the attempt
// collectively, resume receive-only, converge to the same bytes and pass
// counts — and kill-rank plans must fail fast with a clean error instead of
// hanging.
//
// The sweep seed comes from TESS_FAULT_SEED (see the CI chaos job), so a
// failing run is replayed locally with
//   TESS_FAULT_SEED=<seed> ./test_chaos_tess
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::CommError;
using tess::comm::FaultInjector;
using tess::comm::FaultPlan;
using tess::comm::faults;
using tess::comm::Runtime;
using tess::core::TessOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

/// Clustered distribution (dense blob + background): the auto-ghost loop
/// needs several doubling passes, so every pass kind (fresh exchange,
/// annulus delta, collective verdict) runs under fault injection.
std::vector<Particle> chaos_particles(int n, double domain) {
  Rng rng(4242);
  std::vector<Particle> ps;
  const Vec3 center{0.35 * domain, 0.45 * domain, 0.55 * domain};
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 3 == 0) {
      p = {center.x + rng.normal(0.0, 0.06 * domain),
           center.y + rng.normal(0.0, 0.06 * domain),
           center.z + rng.normal(0.0, 0.06 * domain)};
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

struct TessRun {
  std::vector<std::vector<std::byte>> bytes;  ///< serialized mesh per rank
  std::vector<tess::core::TessStats> stats;   ///< per rank
  std::uint64_t passes = 0;  ///< tess.passes counted by the run, all ranks
};

/// Run the full tessellation — incremental auto ghost from a small guess, or
/// one fixed-ghost pass — and return each rank's serialized mesh bytes (the
/// byte-identity currency: site order, welded vertex numbering) and stats.
TessRun run_tess(int nranks, bool periodic, int nparticles, bool auto_ghost) {
  const double domain = 6.0;
  TessRun run;
  run.bytes.resize(static_cast<std::size_t>(nranks));
  run.stats.resize(static_cast<std::size_t>(nranks));
  const auto& passes = tess::obs::metrics().counter("tess.passes");
  const std::uint64_t passes_before = passes.value();
  Runtime::run(nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(nranks), periodic);
    TessOptions opt;
    // Auto ghost starts small on purpose, forcing doubling passes.
    opt.ghost = auto_ghost ? 0.3 : 1.5;
    opt.auto_ghost = auto_ghost;
    opt.incremental = true;
    opt.threads = 1;
    const auto r = static_cast<std::size_t>(c.rank());
    auto mesh = tess::core::standalone_tessellate(
        c, d,
        c.rank() == 0 ? chaos_particles(nparticles, domain)
                      : std::vector<Particle>{},
        opt, &run.stats[r]);
    tess::diy::Buffer buf;
    mesh.serialize(buf);
    run.bytes[r] = buf.data();
  });
  run.passes = passes.value() - passes_before;
  return run;
}

std::vector<std::vector<std::byte>> run_auto(int nranks, bool periodic,
                                             int nparticles) {
  return run_tess(nranks, periodic, nparticles, true).bytes;
}

/// Adaptive two-step run: step 1 on the uniform grid always schedules a
/// repartition (trigger 0), step 2 rebuilds a k-d decomposition
/// collectively and migrates particles mid-run — so the repartition
/// collectives (sample gatherv, split broadcast) and the tag-103 particle
/// migration all execute under whatever fault plan is armed. Returns the
/// canonical merged mesh bytes (rank 0).
std::vector<std::byte> run_adaptive_midrun(int nranks, bool periodic,
                                           int nparticles) {
  const double domain = 6.0;
  std::vector<std::byte> merged;
  Runtime::run(nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(nranks), periodic);
    TessOptions opt;
    opt.ghost = 0.3;
    opt.auto_ghost = true;
    opt.incremental = true;
    opt.threads = 1;
    opt.adaptive = true;
    opt.repart_trigger = 0.0;
    opt.repart_cooldown = 1;
    tess::core::Tessellator t(c, d, opt);
    const auto mine = tess::diy::migrate_items(
        c, d,
        c.rank() == 0 ? chaos_particles(nparticles, domain)
                      : std::vector<Particle>{},
        [](Particle& p) -> Vec3& { return p.pos; });
    (void)t.tessellate_step(1, mine);
    const auto mesh = t.tessellate_step(2, mine);
    auto m = tess::core::merged_mesh_bytes(c, mesh);
    if (c.rank() == 0) merged = std::move(m);
  });
  return merged;
}

class ChaosFixture : public ::testing::Test {
 protected:
  void TearDown() override { faults().disarm(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// The sweep: random surviving-rank plans must be invisible in the output.
// ---------------------------------------------------------------------------

class ChaosSweep : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  void TearDown() override { faults().disarm(); }
};

TEST_P(ChaosSweep, RandomFaultPlansYieldByteIdenticalMeshes) {
  const auto [periodic, nranks] = GetParam();
  constexpr int kParticles = 700;
  constexpr int kSeeds = 5;
  // Base seed from the environment (CI matrix / replay); arbitrary default.
  const std::uint64_t base = FaultInjector::env_seed(12345);

  faults().disarm();
  const auto reference = run_auto(nranks, periodic, kParticles);

  std::uint64_t total_injected = 0;
  for (int k = 0; k < kSeeds; ++k) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(k);
    faults().arm(FaultPlan::random(seed));
    const auto chaotic = run_auto(nranks, periodic, kParticles);
    const auto counts = faults().counts();
    faults().disarm();
    total_injected += counts.dropped + counts.delayed + counts.duplicated;
    EXPECT_EQ(counts.recovered, counts.dropped)
        << "unrecovered drops, seed=" << seed;
    EXPECT_EQ(counts.lost, 0u) << "seed=" << seed;
    for (int r = 0; r < nranks; ++r) {
      ASSERT_FALSE(reference[static_cast<std::size_t>(r)].empty());
      EXPECT_EQ(chaotic[static_cast<std::size_t>(r)],
                reference[static_cast<std::size_t>(r)])
          << "mesh diverged under faults: seed=" << seed
          << " periodic=" << periodic << " nranks=" << nranks
          << " rank=" << r << " (replay: TESS_FAULT_SEED=" << base << ")";
    }
  }
  // The sweep must actually have exercised the injector.
  EXPECT_GT(total_injected, 0u);
}

// A mid-run repartition under the same random plans: FaultPlan::random
// rules match any tag, so the drop/delay/dup schedules also hit the
// repartition's sample gatherv, the split-tree broadcast, and the tag-103
// particle migration. The mesh must still equal the fault-free one.
TEST_P(ChaosSweep, MidRunRepartitionSurvivesFaults) {
  const auto [periodic, nranks] = GetParam();
  constexpr int kParticles = 500;
  constexpr int kSeeds = 2;  // smaller than the main sweep: 2 runs per seed
  const std::uint64_t base = FaultInjector::env_seed(12345);

  faults().disarm();
  const auto reference = run_adaptive_midrun(nranks, periodic, kParticles);
  ASSERT_FALSE(reference.empty());

  std::uint64_t total_injected = 0;
  for (int k = 0; k < kSeeds; ++k) {
    const std::uint64_t seed = base + 100 + static_cast<std::uint64_t>(k);
    faults().arm(FaultPlan::random(seed));
    const auto chaotic = run_adaptive_midrun(nranks, periodic, kParticles);
    const auto counts = faults().counts();
    faults().disarm();
    total_injected += counts.dropped + counts.delayed + counts.duplicated;
    EXPECT_EQ(counts.recovered, counts.dropped)
        << "unrecovered drops, seed=" << seed;
    EXPECT_EQ(counts.lost, 0u) << "seed=" << seed;
    EXPECT_EQ(chaotic, reference)
        << "repartitioned mesh diverged under faults: seed=" << seed
        << " periodic=" << periodic << " nranks=" << nranks
        << " (replay: TESS_FAULT_SEED=" << base << ")";
  }
  EXPECT_GT(total_injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Configs, ChaosSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(2, 4)));

// ---------------------------------------------------------------------------
// Deterministic degradation: a pass that cannot complete within one retry
// budget is abandoned by all ranks and resumed — same final bytes.
// ---------------------------------------------------------------------------

namespace {

/// Drop every ghost message (tag 100) with a recovery countdown of 12
/// ticks. One exchange attempt spends 8 ticks per neighbor (4 timed
/// receives x 2), so the first attempt of every exchange *must* fail and
/// is re-attempted receive-only; ticks 9-12 then release the message
/// mid-retry. Counted ticks, not wall-clock: this path is taken
/// deterministically on every pass. The degraded run must match the
/// fault-free one in bytes and in pass counts — abandoned attempts are not
/// passes.
void expect_forced_failure_degrades_gracefully(bool auto_ghost) {
  constexpr int kRanks = 2;
  constexpr int kParticles = 400;

  faults().disarm();
  const auto reference = run_tess(kRanks, true, kParticles, auto_ghost);

  faults().arm(FaultPlan::parse("drop:p=1,tag=100,recover=12"));
  const auto degraded = run_tess(kRanks, true, kParticles, auto_ghost);
  const auto counts = faults().counts();
  faults().disarm();

  EXPECT_GT(counts.dropped, 0u);
  EXPECT_EQ(counts.recovered, counts.dropped);
  EXPECT_EQ(counts.lost, 0u);
  EXPECT_EQ(degraded.passes, reference.passes);
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(degraded.bytes[i], reference.bytes[i]) << "rank " << r;
    const auto& got = degraded.stats[i];
    const auto& want = reference.stats[i];
    EXPECT_EQ(static_cast<std::size_t>(got.auto_iterations),
              got.iterations.size())
        << "rank " << r;
    EXPECT_EQ(got.auto_iterations, want.auto_iterations) << "rank " << r;
    EXPECT_EQ(got.iterations.size(), want.iterations.size()) << "rank " << r;
  }
  if (auto_ghost) {
    EXPECT_GT(reference.stats[0].auto_iterations, 1);
  } else {
    EXPECT_EQ(reference.stats[0].auto_iterations, 1);
    EXPECT_EQ(degraded.stats[0].iterations.size(), 1u);
  }
}

}  // namespace

TEST_F(ChaosFixture, ForcedExchangeFailureDegradesGracefully) {
  expect_forced_failure_degrades_gracefully(/*auto_ghost=*/true);
}

TEST_F(ChaosFixture, FixedGhostForcedExchangeFailureDegradesGracefully) {
  expect_forced_failure_degrades_gracefully(/*auto_ghost=*/false);
}

TEST_F(ChaosFixture, UnrecoverableExchangeFailsWithTimeoutNotHang) {
  // recover far beyond the total failed-attempt budget: tessellation must
  // give up with CommTimeoutError after kMaxFailedExchangePasses, never
  // wedge.
  faults().arm(FaultPlan::parse("drop:p=1,tag=100,recover=1000000"));
  EXPECT_THROW(run_auto(2, true, 200), tess::comm::CommTimeoutError);
}

TEST_F(ChaosFixture, FixedGhostUnrecoverableExchangeFailsWithTimeout) {
  faults().arm(FaultPlan::parse("drop:p=1,tag=100,recover=1000000"));
  EXPECT_THROW(run_tess(2, true, 200, /*auto_ghost=*/false),
               tess::comm::CommTimeoutError);
}

// ---------------------------------------------------------------------------
// Kill plans: fail fast with a clean error, bounded well under the ctest
// timeout.
// ---------------------------------------------------------------------------

TEST_F(ChaosFixture, KillRankFailsFastWithCleanError) {
  const auto start = std::chrono::steady_clock::now();
  faults().arm(FaultPlan::parse("kill:rank=1,at=40"));
  EXPECT_THROW(run_auto(2, true, 300), CommError);
  faults().disarm();
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 60) << "kill plan took too long to unwind";
}

TEST_F(ChaosFixture, KillEveryConfigurationStillFailsFast) {
  for (const int nranks : {2, 4}) {
    for (const bool periodic : {true, false}) {
      faults().arm(FaultPlan::parse("kill:rank=0,at=25"));
      EXPECT_THROW(run_auto(nranks, periodic, 200), CommError)
          << "nranks=" << nranks << " periodic=" << periodic;
      faults().disarm();
    }
  }
}
