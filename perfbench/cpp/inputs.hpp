// Seeded inputs of the benchmark workloads. Everything a run feeds the
// library is a pure function of --seed (plus an op or session index), so the
// same seed replays the same particles, drift and query schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "diy/decomposition.hpp"
#include "diy/particle.hpp"
#include "hacc/simulation.hpp"

namespace perfbench {

// insitu_uniform, and the files serve_mixed reads: the paper's own small
// configuration, 32^3 particles on a 32^3 PM mesh in a periodic box.
inline constexpr int kUniformNp = 32;
/// PM steps run before the first op (of the run's 100), so ops see a
/// clustered, mid-run particle distribution.
inline constexpr int kUniformStartStep = 30;
[[nodiscard]] tess::hacc::SimConfig uniform_sim_config(std::uint64_t seed);

// insitu_clustered: the bench_fig10_scaling --clustered cloud at 16^3.
inline constexpr int kClusteredNp = 16;
inline constexpr double kClusteredDomain = 6.0;
/// Per-op drift (standard deviation per axis), 1/60 of the mean spacing.
inline constexpr double kDriftSigma = 0.006;

/// Two Gaussian blobs (half and a quarter of the particles) plus a uniform
/// background, reflected into the open domain [0, domain)^3; ids are 0..n-1.
[[nodiscard]] std::vector<tess::diy::Particle> clustered_cloud(
    std::uint64_t seed, int n, double domain);
/// Moves every particle by a seeded Gaussian step (the input of op `op`),
/// reflecting at the domain walls.
void drift(std::vector<tess::diy::Particle>& particles, std::uint64_t seed,
           std::int64_t op, double sigma, double domain);

// serve_mixed
inline constexpr int kServeFiles = 8;
inline constexpr int kServeHotFiles = 3;
/// File index (0 = oldest step) session `session` queries. In every group of
/// four sessions the first three visit the three newest files in a seeded
/// order and the fourth visits the next of the older files in turn, so with
/// a four-snapshot LRU cache exactly the fourth session misses.
[[nodiscard]] int session_file(std::uint64_t seed, std::int64_t session);
/// `n` query points uniform in [lo, hi)^3.
[[nodiscard]] std::vector<tess::geom::Vec3> query_points(
    std::uint64_t seed, std::int64_t session, std::size_t n, double lo,
    double hi);
/// A cube of side `side` placed uniformly inside [0, box)^3.
[[nodiscard]] tess::diy::Bounds region_box(std::uint64_t seed,
                                           std::int64_t session, double box,
                                           double side);
/// `k` seeded indices into [0, n) for spot checks (empty when n == 0).
[[nodiscard]] std::vector<std::size_t> check_sample(std::uint64_t seed,
                                                    std::int64_t session,
                                                    std::size_t n,
                                                    std::size_t k);

}  // namespace perfbench
