// Tests of the benchmark's own logic: the tail rule, seed determinism of
// the inputs, failure accounting for a wrong answer, and the peak-RSS
// reset. Run with `python3 perfbench/run.py --selftest`; exits 1 on any
// failure.
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "diy/blockio.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (false)

using perfbench::Report;
using tess::geom::Vec3;

void tail_rule() {
  const struct {
    std::size_t n;
    int percentile;
  } cases[] = {{11, 9}, {20, 50}, {33, 69}, {100, 90}, {1000, 99}, {1001, 99}};
  for (const auto& c : cases) {
    std::vector<double> v;
    for (std::size_t i = c.n; i > 0; --i) v.push_back(static_cast<double>(i));
    const auto t = perfbench::tail_percentile(v);
    EXPECT(t.percentile == c.percentile);
    EXPECT(t.count == c.n);
  }
  // Every size: at least ten samples lie beyond the reported value, and the
  // next percentile up would leave fewer than ten.
  for (std::size_t n = 11; n <= 3000; ++n) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
      v.push_back(static_cast<double>((i * 7919) % n));  // a permutation
    const auto t = perfbench::tail_percentile(v);
    std::size_t above = 0;
    for (const double x : v) above += x > t.value ? 1 : 0;
    EXPECT(above == t.beyond && above >= 10);
    const std::size_t next_rank =
        (static_cast<std::size_t>(t.percentile + 1) * n + 99) / 100;
    EXPECT(t.percentile == 99 || n - next_rank < 10);
  }
}

void same_seed_same_inputs() {
  const double L = perfbench::kClusteredDomain;
  const auto a = perfbench::clustered_cloud(7, 4096, L);
  const auto b = perfbench::clustered_cloud(7, 4096, L);
  const auto other = perfbench::clustered_cloud(8, 4096, L);
  const auto same = [](const std::vector<tess::diy::Particle>& x,
                       const std::vector<tess::diy::Particle>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (!(x[i].pos == y[i].pos) || x[i].id != y[i].id) return false;
    return true;
  };
  EXPECT(same(a, b));
  EXPECT(!same(a, other));
  for (const auto& p : a)
    for (std::size_t k = 0; k < 3; ++k) EXPECT(p.pos[k] >= 0 && p.pos[k] < L);

  auto d1 = a, d2 = a, d3 = a;
  perfbench::drift(d1, 7, 3, perfbench::kDriftSigma, L);
  perfbench::drift(d2, 7, 3, perfbench::kDriftSigma, L);
  perfbench::drift(d3, 7, 4, perfbench::kDriftSigma, L);
  EXPECT(same(d1, d2));
  EXPECT(!same(d1, d3));
  EXPECT(!same(d1, a));

  const int old_files = perfbench::kServeFiles - perfbench::kServeHotFiles;
  bool differs = false;
  for (std::int64_t s = 0; s < 400; ++s) {
    const int f = perfbench::session_file(7, s);
    EXPECT(f == perfbench::session_file(7, s));
    differs = differs || f != perfbench::session_file(8, s);
    if (s % 4 == 3) {
      EXPECT(f == static_cast<int>((s / 4) % old_files));
    } else {
      EXPECT(f >= old_files && f < perfbench::kServeFiles);
    }
    if (s % 4 == 2) {  // the three hot sessions of a group visit all three
      const int sum = perfbench::session_file(7, s - 2) +
                      perfbench::session_file(7, s - 1) + f;
      EXPECT(sum == 3 * old_files + 3);
    }
  }
  EXPECT(differs);

  const auto q1 = perfbench::session_input(7, 12);
  const auto q2 = perfbench::session_input(7, 12);
  const auto q3 = perfbench::session_input(7, 13);
  EXPECT(q1.points.size() == q2.points.size());
  bool points_equal = q1.points.size() == q2.points.size();
  for (std::size_t i = 0; points_equal && i < q1.points.size(); ++i)
    points_equal = q1.points[i] == q2.points[i];
  EXPECT(points_equal);
  EXPECT(q1.region.min == q2.region.min && q1.region.max == q2.region.max);
  EXPECT(!(q1.points.front() == q3.points.front()));
}

void wrong_answer_fails_op() {
  // The in-situ checks.
  EXPECT(perfbench::uniform_op_ok(32768, 32768, 32768, 32768));
  EXPECT(!perfbench::uniform_op_ok(32767, 32768, 32768, 32768));
  EXPECT(!perfbench::uniform_op_ok(32768, 32768 * (1 + 1e-7), 32768, 32768));
  EXPECT(perfbench::clustered_op_ok(4096, 4096));
  EXPECT(!perfbench::clustered_op_ok(4095, 4096));

  // A real session against a small blocked file, then the same answers
  // with one thing wrong each time.
  const double box = 8.0;
  const std::string dir = "perfbench-selftest-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/mesh.bin";
  perfbench::FileSites sites;
  tess::comm::Runtime::run(2, [&](tess::comm::Comm& c) {
    std::vector<tess::diy::Particle> ps;
    if (c.rank() == 0) {
      tess::util::Rng rng(5);
      for (int i = 0; i < 512; ++i)
        ps.push_back({{rng.uniform(0, box), rng.uniform(0, box),
                       rng.uniform(0, box)},
                      i});
    }
    const tess::diy::Decomposition d({0, 0, 0}, {box, box, box},
                                     tess::diy::Decomposition::factor(2),
                                     true);
    tess::core::TessOptions opt;
    opt.ghost = 3.0;
    const auto mesh = tess::core::standalone_tessellate(c, d, ps, opt);
    tess::diy::Buffer buf;
    mesh.serialize(buf);
    tess::diy::write_blocks(c, path, buf);
    std::vector<Vec3> pos;
    std::vector<std::int64_t> ids;
    for (const auto& cell : mesh.cells) {
      pos.push_back(cell.site);
      ids.push_back(cell.site_id);
    }
    auto all_pos = c.gatherv(pos);
    auto all_ids = c.gatherv(ids);
    if (c.rank() == 0) sites = {std::move(all_pos), std::move(all_ids)};
  });

  perfbench::SessionInput in;
  tess::util::Rng rng(9);
  for (int i = 0; i < 200; ++i)
    in.points.push_back({rng.uniform(2, 6), rng.uniform(2, 6),
                         rng.uniform(2, 6)});
  in.region = {{1, 1, 1}, {4, 4, 4}};
  tess::serve::QueryService service;
  const auto out = perfbench::run_session(service, path, in, 0);
  EXPECT(out.cold);
  EXPECT(perfbench::session_ok(out, in, sites, 1, 0));

  auto wrong_site = out;
  for (auto& loc : wrong_site.locs) {
    loc.site_id = (loc.site_id + 1) % 512;
    loc.site_dist2 += 1.0;
  }
  auto wrong_region = out;
  ++wrong_region.region_cells;
  auto wrong_hist = out;
  --wrong_hist.hist_total;
  auto short_answer = out;
  short_answer.voids.pop_back();
  for (const auto* bad : {&wrong_site, &wrong_region, &wrong_hist,
                          &short_answer}) {
    Report r;
    r.begin_op();
    r.end_op(perfbench::session_ok(*bad, in, sites, 1, 0));
    EXPECT(r.attempted() == 1 && r.failed() == 1 && !r.correct());
  }
  Report good;
  good.begin_op();
  good.end_op(perfbench::session_ok(out, in, sites, 1, 0));
  EXPECT(good.failed() == 0 && good.correct());
  Report thrown;
  thrown.begin_op();
  thrown.fail_pending("boom");
  EXPECT(thrown.attempted() == 1 && thrown.failed() == 1);
  std::filesystem::remove_all(dir);
}

void peak_rss_reset() {
  const std::size_t bytes = std::size_t{192} << 20;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  EXPECT(p != MAP_FAILED);
  if (p == MAP_FAILED) return;
  const double before = perfbench::rss_mb();
  std::memset(p, 1, bytes);
  ::munmap(p, bytes);
  const double high = perfbench::peak_rss_mb();
  EXPECT(high >= before + 180);
  EXPECT(perfbench::reset_peak_rss());
  const double after = perfbench::peak_rss_mb();
  EXPECT(after < high - 150);
  EXPECT(after <= perfbench::rss_mb() + 1);
}

}  // namespace

int main() {
  peak_rss_reset();
  tail_rule();
  same_seed_same_inputs();
  wrong_answer_fails_op();
  if (g_failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
  }
  std::printf("perfbench selftest: %d check(s) failed\n", g_failures);
  return 1;
}
