// perfbench_runner: runs one benchmark workload and prints its metrics.
//
//   perfbench_runner --workload W --seed N --seconds S --trace 0|1
//                    --server PATH --out-dir DIR [--tiny] [--inject-fault]
//
// Workloads: static_social, static_road, ingest, serve (see the file of
// each). Every metric is printed as a "metric <name> <value> <unit>" line;
// the last line is "PERFBENCH_RESULT {json}" with all of them, from which
// perfbench/run.py selects the ones BENCHMARK.json names. Any correctness
// mismatch exits 1 without a result line.

#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload W --seed N --seconds S "
               "--trace 0|1 --server PATH --out-dir DIR [--tiny] "
               "[--inject-fault]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--server") {
      args.server_path = value();
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--inject-fault") {
      args.inject_fault = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.out_dir.empty()) Usage("--out-dir is required");

  // A fixed mmap threshold at the most glibc's adaptive one can reach, so
  // peak_rss_mb does not depend on the order in which worker threads
  // happened to free earlier blocks.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);

  perfbench::Report report;
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? " (tiny)" : "");
  int rc = 0;
  if (args.workload == "static_social" || args.workload == "static_road") {
    rc = perfbench::RunStatic(args, report);
  } else if (args.workload == "ingest") {
    rc = perfbench::RunIngest(args, report);
  } else if (args.workload == "serve") {
    if (args.server_path.empty()) Usage("serve needs --server");
    rc = perfbench::RunServe(args, report);
  } else {
    Usage(("unknown workload \"" + args.workload + "\"").c_str());
  }
  if (rc != 0) return rc;
  return report.Finish();
}
