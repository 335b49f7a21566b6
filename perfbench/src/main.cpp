// perfbench: the repository's benchmark. One workload per run, inputs made
// from --seed, measured for --seconds; the last line of standard output is
// the result object. See perfbench/README.md.
//
//   perfbench --workload oltp_wire|analytic_wire|whatif_plan --seed N
//             --seconds S --trace 0|1 --dir SCRATCH_DIR

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char **argv) {
  perfbench::Options options;
  options.seconds = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char *value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      options.dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds < 1 || options.dir.empty()) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 --dir DIR\n");
    return 2;
  }

  perfbench::Report report;
  if (options.workload == "oltp_wire") {
    perfbench::RunOltpWire(options, &report);
  } else if (options.workload == "analytic_wire") {
    perfbench::RunAnalyticWire(options, &report);
  } else if (options.workload == "whatif_plan") {
    perfbench::RunWhatifPlan(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  std::fflush(stderr);
  std::printf("%s\n", report.Json().c_str());
  return report.correct ? 0 : 1;
}
