// kflush_perfbench: runs one perfbench workload and prints its metrics.
//
//   kflush_perfbench --workload ingest|query_replay|wire_durable
//                    --seed N --seconds S --trace 0|1
//                    [--scale F] [--workdir DIR]
//
// Prints one line per metric, then "PERFBENCH_RESULT <json>" as the last
// line. Exits 1 when an output check fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "kflush_perfbench: %s\nusage: kflush_perfbench --workload "
               "ingest|query_replay|wire_durable --seed N --seconds S "
               "--trace 0|1 [--scale F] [--workdir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kflush::perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      options.scale = std::atof(value);
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0 || options.scale <= 0) {
    Usage("--seconds and --scale must be positive");
  }

  Report report(options.workload);
  std::printf("[perfbench] workload=%s seed=%llu seconds=%g rounds=%d "
              "scale=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              kRounds, options.scale, options.trace ? 1 : 0);
  if (options.workload == "ingest") {
    RunIngest(options, &report);
  } else if (options.workload == "query_replay") {
    RunQueryReplay(options, &report);
  } else if (options.workload == "wire_durable") {
    RunWireDurable(options, &report);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  report.PrintResult();
  return report.correct() ? 0 : 1;
}
