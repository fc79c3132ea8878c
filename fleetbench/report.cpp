#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"

namespace fleetbench {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::uint8_t> seeded_bytes(std::uint64_t stream, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t state = stream;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = mix(state, i);
    for (std::size_t b = 0; b < 8 && i + b < n; ++b)
      out[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Report::add(std::string name, double value, std::string unit,
                 std::string note) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void Report::print_table(std::FILE* out, const char* title) const {
  std::fprintf(out, "-- %s\n", title);
  for (const Metric& m : metrics_)
    std::fprintf(out, "  %-44s %14.6g %-7s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());
}

std::string Report::result_json(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    // JSON has no NaN or infinity; main() marks a run with a non-finite
    // metric incorrect, and the value is written as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace fleetbench
