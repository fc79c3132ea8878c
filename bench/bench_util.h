// Shared helpers for the figure-reproduction benchmarks.

#ifndef CAROUSEL_BENCH_BENCH_UTIL_H
#define CAROUSEL_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace carousel::bench {

inline std::vector<std::uint8_t> random_bytes(std::size_t n,
                                              std::uint32_t seed = 1) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

inline std::vector<std::span<std::uint8_t>> split_spans(
    std::vector<std::uint8_t>& buf, std::size_t count) {
  std::vector<std::span<std::uint8_t>> out;
  const std::size_t each = buf.size() / count;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(buf.data() + i * each, each);
  return out;
}

inline std::vector<std::span<const std::uint8_t>> split_const_spans(
    const std::vector<std::uint8_t>& buf, std::size_t count) {
  std::vector<std::span<const std::uint8_t>> out;
  const std::size_t each = buf.size() / count;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(buf.data() + i * each, each);
  return out;
}

/// Wall-clock seconds of fn(), best (minimum) of `reps` runs — minimum is
/// the standard noise filter for single-threaded kernels.
inline double time_best_s(const std::function<void()>& fn, int reps = 3) {
  double best = 1e99;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

inline constexpr double kMiB = 1024.0 * 1024.0;

/// The one writer of every bench JSON artifact: writes `json` to `name` in
/// the working directory, or to $CAROUSEL_BENCH_SNAPSHOT_DIR/<name> when
/// that is set, and reports the path on stdout.  Returns the path written;
/// empty (after a note on stderr) when the file cannot be written.
inline std::string write_json(const std::string& name,
                              const std::string& json) {
  std::string path = name;
  if (const char* dir = std::getenv("CAROUSEL_BENCH_SNAPSHOT_DIR"))
    path = std::string(dir) + "/" + path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return {};
  }
  std::printf("\nwrote %s\n", path.c_str());
  return path;
}

/// Writes a machine-readable JSON snapshot of the global metrics registry
/// (codec timings/bytes, GF kernel dispatch counts, thread-pool stats, ...)
/// to BENCH_<name>.json via write_json().  Call at the end of a benchmark's
/// main(); tooling diffs these files across runs.  Returns the path
/// written, empty on I/O failure.
inline std::string write_metrics_snapshot(const std::string& name) {
  return write_json("BENCH_" + name + ".json",
                    obs::MetricsRegistry::global().render_json());
}

}  // namespace carousel::bench

#endif  // CAROUSEL_BENCH_BENCH_UTIL_H
