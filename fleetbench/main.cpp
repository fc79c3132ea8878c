// fleetbench: read, put and repair on a durable 12-server loopback fleet.
//
//   fleetbench --workload <read_healthy|ingest_mixed|degraded_repair>
//              --seed <n> --seconds <s> --trace <0|1>
//              --work-dir <dir> --out-dir <dir>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// isolated per-layer calls plus the per-layer split of a traced run.  The
// last line of stdout is the JSON result; the exit code is non-zero when a
// correctness gate failed.  fleetbench/README.md describes the workloads
// and what each metric is expected to move.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fleetbench: %s\nusage: fleetbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --out-dir <dir>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fleetbench;
  RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0)
        usage("--seconds takes a number in (0, 600]");
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        usage("--trace takes 0 or 1");
      opt.trace = val[0] == '1';
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("arguments come in --key value pairs");
  if (!known_workload(opt.workload)) usage("unknown or missing --workload");
  if (!have_seed || opt.seconds <= 0.0 || opt.work_dir.empty() ||
      opt.out_dir.empty())
    usage("--seed, --seconds, --work-dir and --out-dir are required");

  Report report;
  RunOutcome outcome;
  try {
    outcome = run_workload(opt, report);
  } catch (const std::exception& e) {
    // Set-up or teardown failed: there is no result to report.
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : report.metrics())
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "fleetbench: metric %s is not finite\n",
                   m.name.c_str());
      outcome.correct = false;
    }
  report.print_table(stdout, opt.trace ? "per-layer metrics"
                                       : "end-to-end metrics");
  std::printf("%s\n", report
                          .result_json(outcome.correct, outcome.attempted,
                                       outcome.failed)
                          .c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
