// perfbench: runs one workload of the end-to-end benchmark and prints
// its metrics; the last line of stdout is the JSON result
// (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using Workload = perfbench::Report (*)(const perfbench::Args&, double,
                                       perfbench::SpanLog&);

Workload find_workload(const std::string& name) {
  if (name == "insitu_uniform") return perfbench::run_insitu_uniform;
  if (name == "insitu_clustered") return perfbench::run_insitu_clustered;
  if (name == "serve_mixed") return perfbench::run_serve_mixed;
  return nullptr;
}

bool parse(int argc, char** argv, perfbench::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      a.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && find_workload(a.workload) != nullptr &&
         a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_process = perfbench::now_s();
  perfbench::Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "insitu_uniform|insitu_clustered|serve_mixed --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  if (std::strcmp(tess::bench::build_type(), "release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to run a %s build (NDEBUG is not set): "
                 "its timings are not comparable. Configure perfbench/ with "
                 "-DCMAKE_BUILD_TYPE=Release.\n",
                 tess::bench::build_type());
    return 2;
  }

  a.data_dir = a.out_dir + "/data-" + std::to_string(::getpid());
  std::filesystem::create_directories(a.data_dir);
  // Room for a whole traced op per thread (a serving session records one
  // library span per located point) before it is drained.
  if (a.trace) tess::obs::Tracer::instance().set_capacity(1u << 16);

  perfbench::SpanLog spans;
  const perfbench::Report rep = find_workload(a.workload)(a, t_process, spans);
  std::filesystem::remove_all(a.data_dir);

  const auto& defs = a.trace ? perfbench::per_layer_metrics()
                             : perfbench::end_to_end_metrics();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d build=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, tess::bench::build_type());
  std::printf("  ops: %ld attempted, %ld failed\n", rep.attempted(),
              rep.failed());
  for (const auto& d : defs)
    std::printf("  %-30s %16.6f %s\n", d.name, rep.get(d.name), d.unit);
  for (const auto& line : rep.notes()) std::printf("  %s\n", line.c_str());
  if (a.trace) {
    const std::string path = a.out_dir + "/trace-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    spans.write_jsonl(path);
    std::printf("%s  spans: %s\n", spans.self_time_table().c_str(),
                path.c_str());
  }
  std::printf("%s\n", rep.json(defs).c_str());
  return 0;
}
