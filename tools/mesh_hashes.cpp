// mesh_hashes: prints a 64-bit FNV-1a hash of every per-rank block and of
// the merged mesh for a fixed set of tessellation runs, one line per hash,
// and one line of the run's TessStats counts summed over ranks (ghost_used
// and auto_iterations: the largest):
//
//   <run> block<r> <hash>    serialized BlockMesh of rank r
//   <run> merged <hash>      merged_mesh_bytes() of the run (rank 0)
//   <run> stats <name>=<value> ...
//
// Two builds that print the same lines wrote the same mesh bytes on every
// run, through the same passes with the same ghost and cell counts, so
// diffing this tool's output between a change and its parent is the
// byte-identity check for refactors of the tessellation path. The runs
// cover both ghost modes and both auto-ghost flavours:
//
//   uniform_seed{1,2}    the 32^3 mini-HACC step 31 at default TessOptions
//                        (fixed ghost), as one insitu_uniform benchmark op
//   blobs_{fixed,auto,auto_scratch}
//                        a seeded two-blob open-domain cloud under a fixed
//                        ghost with min_volume culling, incremental auto
//                        ghost, and auto ghost with incremental = false
//   lattice_{exact,jitter,shifted}_{fixed,auto}
//                        periodic 12^3 lattices (exact, 1e-9 jitter,
//                        alternate rows shifted by half a spacing) with
//                        reversed ids, under a fixed and an auto ghost
//
// Every run uses 4 thread-ranks. The tool uses only the public API, so the
// same file also builds against an older checkout's src/: copy it into that
// checkout's tools/, append its two lines from tools/CMakeLists.txt to that
// checkout's, build both as Release and diff the outputs. Bytes compare
// only between builds with the same compiler flags.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/decomposition.hpp"
#include "diy/particle.hpp"
#include "diy/serialize.hpp"
#include "hacc/simulation.hpp"
#include "util/rng.hpp"

namespace {

using tess::comm::Comm;
using tess::core::BlockMesh;
using tess::core::TessOptions;
using tess::core::TessStats;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;

constexpr int kRanks = 4;

std::uint64_t fnv1a(const std::vector<std::byte>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Run `tessellate` ((Comm&, TessStats&) -> this rank's BlockMesh, filling
/// in the rank's stats) on kRanks thread-ranks and print the hash of every
/// block and of the merged mesh, then the stats line.
template <typename Tessellate>
void print_hashes(const std::string& run, Tessellate&& tessellate) {
  std::vector<std::vector<std::byte>> blocks(kRanks);
  std::vector<TessStats> stats(kRanks);
  std::vector<std::byte> merged;
  tess::comm::Runtime::run(kRanks, [&](Comm& c) {
    const BlockMesh mesh =
        tessellate(c, stats[static_cast<std::size_t>(c.rank())]);
    tess::diy::Buffer buf;
    mesh.serialize(buf);
    blocks[static_cast<std::size_t>(c.rank())] = buf.data();
    auto bytes = tess::core::merged_mesh_bytes(c, mesh);
    if (c.rank() == 0) merged = std::move(bytes);
  });
  for (int r = 0; r < kRanks; ++r)
    std::printf("%s block%d %016llx\n", run.c_str(), r,
                static_cast<unsigned long long>(
                    fnv1a(blocks[static_cast<std::size_t>(r)])));
  std::printf("%s merged %016llx\n", run.c_str(),
              static_cast<unsigned long long>(fnv1a(merged)));
  TessStats sum;
  sum.auto_iterations = 0;
  for (const TessStats& s : stats) {
    sum.auto_iterations = std::max(sum.auto_iterations, s.auto_iterations);
    sum.ghost_used = std::max(sum.ghost_used, s.ghost_used);
    sum.cells_kept += s.cells_kept;
    sum.cells_incomplete += s.cells_incomplete;
    sum.cells_culled_early += s.cells_culled_early;
    sum.cells_culled_volume += s.cells_culled_volume;
    sum.cells_uncertified += s.cells_uncertified;
    sum.ghost_sent += s.ghost_sent;
    sum.ghost_received += s.ghost_received;
  }
  std::printf(
      "%s stats auto_iterations=%d ghost_used=%.17g cells_kept=%zu "
      "cells_incomplete=%zu cells_culled_early=%zu cells_culled_volume=%zu "
      "cells_uncertified=%zu ghost_sent=%zu ghost_received=%zu\n",
      run.c_str(), sum.auto_iterations, sum.ghost_used, sum.cells_kept,
      sum.cells_incomplete, sum.cells_culled_early, sum.cells_culled_volume,
      sum.cells_uncertified, sum.ghost_sent, sum.ghost_received);
  std::fflush(stdout);
}

/// The insitu_uniform op's tessellation: 32^3 particles on a 32^3 PM mesh,
/// advanced to step 31, tessellated with the TessOptions defaults.
void uniform_step(std::uint64_t seed) {
  print_hashes("uniform_seed" + std::to_string(seed), [seed](Comm& c,
                                                            TessStats& st) {
    tess::hacc::SimConfig cfg;
    cfg.np = 32;
    cfg.ng = 32;
    cfg.seed = seed;
    tess::hacc::Simulation sim(c, cfg);
    sim.run_until(31);
    tess::core::Tessellator t(c, sim.decomposition(), TessOptions{});
    BlockMesh mesh =
        t.tessellate_step(sim.step_index(), sim.local_tess_particles());
    st = t.stats();
    return mesh;
  });
}

/// Scatter `particles` from rank 0 over a kRanks grid of the cube
/// [0, domain)^3 and tessellate.
void standalone(const std::string& run, const std::vector<Particle>& particles,
                double domain, bool periodic, const TessOptions& opt) {
  print_hashes(run, [&](Comm& c, TessStats& st) {
    const Decomposition d({0, 0, 0}, {domain, domain, domain},
                          Decomposition::factor(kRanks), periodic);
    return tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt, &st);
  });
}

/// Two Gaussian blobs (half and a quarter of the particles) plus a uniform
/// background, reflected into the open domain [0, domain)^3.
std::vector<Particle> two_blob_cloud(std::uint64_t seed, int n, double domain) {
  tess::util::Rng rng(seed);
  const Vec3 c1{0.30 * domain, 0.62 * domain, 0.40 * domain};
  const Vec3 c2{0.72 * domain, 0.22 * domain, 0.66 * domain};
  const auto reflect = [domain](double x) {
    if (x < 0.0) x = -x;
    if (x >= domain) x = 2.0 * domain - x;
    return std::fmin(std::fmax(x, 0.0), std::nextafter(domain, 0.0));
  };
  std::vector<Particle> ps;
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 2 == 0) {
      p = {rng.normal(c1.x, 0.05 * domain), rng.normal(c1.y, 0.05 * domain),
           rng.normal(c1.z, 0.05 * domain)};
    } else if (i % 4 == 1) {
      p = {rng.normal(c2.x, 0.08 * domain), rng.normal(c2.y, 0.08 * domain),
           rng.normal(c2.z, 0.08 * domain)};
    } else {
      p = {rng.uniform(0.0, domain), rng.uniform(0.0, domain),
           rng.uniform(0.0, domain)};
    }
    ps.push_back({{reflect(p.x), reflect(p.y), reflect(p.z)}, i});
  }
  return ps;
}

enum class Lattice { kExact, kJitter, kShiftedRows };

/// An m^3 lattice of unit spacing in [0, m)^3 with ids in reverse order of
/// generation.
std::vector<Particle> lattice(int m, Lattice kind) {
  tess::util::Rng rng(12);
  const std::int64_t total = static_cast<std::int64_t>(m) * m * m;
  std::vector<Particle> ps;
  for (int k = 0; k < m; ++k)
    for (int j = 0; j < m; ++j)
      for (int i = 0; i < m; ++i) {
        Vec3 p{i + 0.5, j + 0.5, k + 0.5};
        if (kind == Lattice::kJitter)
          p = p + Vec3{rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9),
                       rng.uniform(-1e-9, 1e-9)};
        if (kind == Lattice::kShiftedRows && j % 2 == 1)
          p.x = std::fmod(p.x + 0.5, static_cast<double>(m));
        ps.push_back({p, total - 1 - static_cast<std::int64_t>(ps.size())});
      }
  return ps;
}

}  // namespace

int main() {
  for (const std::uint64_t seed : {1, 2}) uniform_step(seed);

  const double blob_domain = 6.0;
  const auto blobs = two_blob_cloud(7, 3000, blob_domain);
  TessOptions fixed;
  fixed.ghost = 1.0;
  fixed.min_volume = 0.01;
  standalone("blobs_fixed", blobs, blob_domain, false, fixed);
  TessOptions autog;
  autog.ghost = 0.3;
  autog.auto_ghost = true;
  standalone("blobs_auto", blobs, blob_domain, false, autog);
  autog.incremental = false;
  standalone("blobs_auto_scratch", blobs, blob_domain, false, autog);

  constexpr int kSide = 12;
  const std::pair<const char*, Lattice> lattices[] = {
      {"exact", Lattice::kExact},
      {"jitter", Lattice::kJitter},
      {"shifted", Lattice::kShiftedRows}};
  for (const auto& [name, kind] : lattices) {
    const auto ps = lattice(kSide, kind);
    TessOptions opt;
    opt.ghost = 2.0;
    standalone(std::string("lattice_") + name + "_fixed", ps, kSide, true, opt);
    opt.ghost = 0.5;
    opt.auto_ghost = true;
    standalone(std::string("lattice_") + name + "_auto", ps, kSide, true, opt);
  }
  return 0;
}
