#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {

namespace {

using tess::geom::Vec3;

/// One Rng stream family per kind of input, indexed by op or session, so
/// no two inputs ever share a stream.
enum class Stream : std::uint64_t {
  kCloud = 1,
  kDrift,
  kSchedule,
  kPoints,
  kRegion,
  kSample
};

tess::util::Rng rng(std::uint64_t seed, Stream family, std::int64_t index) {
  return tess::util::Rng(seed, (static_cast<std::uint64_t>(family) << 40) +
                                   static_cast<std::uint64_t>(index));
}

/// Mirror a coordinate into [0, domain). Unlike a clamp, a reflection never
/// stacks two particles on the same wall point (duplicate sites are not a
/// valid tessellation input).
double reflect(double x, double domain) {
  if (x < 0.0) x = -x;
  if (x >= domain) x = 2.0 * domain - x;
  return std::clamp(x, 0.0, std::nextafter(domain, 0.0));
}

}  // namespace

tess::hacc::SimConfig uniform_sim_config(std::uint64_t seed) {
  tess::hacc::SimConfig cfg;
  cfg.np = kUniformNp;
  cfg.ng = kUniformNp;
  cfg.seed = seed;
  return cfg;
}

std::vector<tess::diy::Particle> clustered_cloud(std::uint64_t seed, int n,
                                                 double domain) {
  auto r = rng(seed, Stream::kCloud, 0);
  const Vec3 c1{0.30 * domain, 0.62 * domain, 0.40 * domain};
  const Vec3 c2{0.72 * domain, 0.22 * domain, 0.66 * domain};
  std::vector<tess::diy::Particle> ps;
  ps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 2 == 0) {
      p = {r.normal(c1.x, 0.05 * domain), r.normal(c1.y, 0.05 * domain),
           r.normal(c1.z, 0.05 * domain)};
    } else if (i % 4 == 1) {
      p = {r.normal(c2.x, 0.08 * domain), r.normal(c2.y, 0.08 * domain),
           r.normal(c2.z, 0.08 * domain)};
    } else {
      p = {r.uniform(0.0, domain), r.uniform(0.0, domain),
           r.uniform(0.0, domain)};
    }
    for (std::size_t a = 0; a < 3; ++a) p[a] = reflect(p[a], domain);
    ps.push_back({p, i});
  }
  return ps;
}

void drift(std::vector<tess::diy::Particle>& particles, std::uint64_t seed,
           std::int64_t op, double sigma, double domain) {
  auto r = rng(seed, Stream::kDrift, op);
  for (auto& p : particles)
    for (std::size_t a = 0; a < 3; ++a)
      p.pos[a] = reflect(p.pos[a] + r.normal(0.0, sigma), domain);
}

int session_file(std::uint64_t seed, std::int64_t session) {
  const std::int64_t group = session / 4;
  const int slot = static_cast<int>(session % 4);
  const int old_files = kServeFiles - kServeHotFiles;
  if (slot == kServeHotFiles) return static_cast<int>(group % old_files);
  // Seeded Fisher-Yates order of the newest files within this group.
  int order[kServeHotFiles];
  for (int i = 0; i < kServeHotFiles; ++i) order[i] = i;
  auto r = rng(seed, Stream::kSchedule, group);
  for (int i = kServeHotFiles - 1; i > 0; --i)
    std::swap(order[i],
              order[r.uniform_index(static_cast<std::uint64_t>(i) + 1)]);
  return old_files + order[slot];
}

std::vector<Vec3> query_points(std::uint64_t seed, std::int64_t session,
                               std::size_t n, double lo, double hi) {
  auto r = rng(seed, Stream::kPoints, session);
  std::vector<Vec3> pts(n);
  for (auto& p : pts)
    p = {r.uniform(lo, hi), r.uniform(lo, hi), r.uniform(lo, hi)};
  return pts;
}

tess::diy::Bounds region_box(std::uint64_t seed, std::int64_t session,
                             double box, double side) {
  auto r = rng(seed, Stream::kRegion, session);
  const Vec3 lo{r.uniform(0.0, box - side), r.uniform(0.0, box - side),
                r.uniform(0.0, box - side)};
  return {lo, lo + Vec3{side, side, side}};
}

std::vector<std::size_t> check_sample(std::uint64_t seed, std::int64_t session,
                                      std::size_t n, std::size_t k) {
  if (n == 0) return {};
  auto r = rng(seed, Stream::kSample, session);
  std::vector<std::size_t> idx(k);
  for (auto& i : idx) i = static_cast<std::size_t>(r.uniform_index(n));
  return idx;
}

}  // namespace perfbench
