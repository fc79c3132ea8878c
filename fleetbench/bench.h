// Shared pieces of the fleet benchmark: the fixed fleet shape, seeded input
// generation, sample statistics and the metric report.

#ifndef FLEETBENCH_BENCH_H
#define FLEETBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "codes/carousel.h"

namespace fleetbench {

// The program under test.
using namespace carousel;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline constexpr double kMiB = 1024.0 * 1024.0;

// Fleet shape, identical for every workload: (12,6,10,10) Carousel, one
// block per server, 64 KiB units (s = 5, so 320 KiB blocks and one-stripe
// files of k blocks = 1.875 MiB).
inline constexpr std::size_t kServers = 12;
inline constexpr std::size_t kUnitBytes = 64 << 10;
inline constexpr std::uint32_t kBaseFiles = 32;
inline codes::Carousel make_code() { return codes::Carousel(12, 6, 10, 10); }

/// splitmix64 finaliser over (a, b): decorrelates seed streams.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// `n` pseudo-random bytes fixed by `stream`.
std::vector<std::uint8_t> seeded_bytes(std::uint64_t stream, std::size_t n);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);

/// One reported number.  `note` is printed beside it in the human-readable
/// table (sample counts, ratio bases, which end-to-end metric it moves);
/// only name, value and unit go into the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = {});
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// One aligned line per metric.
  void print_table(std::FILE* out, const char* title) const;
  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  std::string result_json(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Isolated calls into each data-path layer, on the workloads' block and
/// stripe sizes, in an otherwise idle process.  `scratch` receives the
/// durable layers' files.  Returns false when a layer computed a wrong
/// result (the metrics are still added).
bool run_layer_suite(const std::filesystem::path& scratch, Report& out);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path work_dir;  // fleet data dirs (removed afterwards)
  std::filesystem::path out_dir;   // span dumps of traced runs
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs one workload and fills `out` with the end-to-end metrics (untraced)
/// or the traced per-layer metrics.
RunOutcome run_workload(const RunOptions& options, Report& out);

bool known_workload(const std::string& name);

}  // namespace fleetbench

#endif  // FLEETBENCH_BENCH_H
