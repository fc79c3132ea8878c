// Paper Fig. 7: network traffic to reconstruct one block, for k in
// {2,4,6,8,10} with n = 2k and 512 MB blocks.  RS downloads k whole blocks;
// MSR and both Carousel variants download d/(d-k+1) block sizes — the MSR
// optimum.  Traffic is *measured* from the repair paths operating on real
// bytes (scaled blocks), then reported at the paper's 512 MB block size;
// byte counts scale exactly linearly with block size.

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "codes/carousel.h"
#include "codes/msr.h"
#include "codes/rs.h"

using namespace carousel::codes;

namespace {

constexpr double kPaperBlockMB = 512.0;

// Measured repair traffic in units of one block size.
double rs_traffic_blocks(const ReedSolomon& rs) {
  const std::size_t block = 64;
  auto data = carousel::bench::random_bytes(rs.k() * block);
  std::vector<std::uint8_t> blob(rs.n() * block);
  rs.encode(data, carousel::bench::split_spans(blob, rs.n()));
  auto views = carousel::bench::split_const_spans(blob, rs.n());
  std::vector<std::size_t> ids(rs.k());
  std::iota(ids.begin(), ids.end(), 1);
  std::vector<std::span<const std::uint8_t>> chosen;
  for (std::size_t id : ids) chosen.push_back(views[id]);
  std::vector<std::uint8_t> out(block);
  auto stats = rs.reconstruct(0, ids, chosen, out);
  return double(stats.bytes_read) / double(block);
}

template <typename Code>
double regen_traffic_blocks(const Code& code) {
  const std::size_t ub = 16;
  const std::size_t block = code.s() * ub;
  auto data = carousel::bench::random_bytes(code.k() * block);
  std::vector<std::uint8_t> blob(code.n() * block);
  code.encode(data, carousel::bench::split_spans(blob, code.n()));
  auto views = carousel::bench::split_const_spans(blob, code.n());
  std::vector<std::size_t> helpers(code.d());
  std::iota(helpers.begin(), helpers.end(), 1);
  std::vector<std::vector<std::uint8_t>> store;
  std::vector<std::span<const std::uint8_t>> chunks;
  for (std::size_t h : helpers) {
    store.emplace_back(code.helper_chunk_units() * ub);
    code.helper_compute(h, 0, views[h], store.back());
  }
  for (auto& c : store) chunks.emplace_back(c);
  std::vector<std::uint8_t> rebuilt(block);
  auto stats = code.newcomer_compute(0, helpers, chunks, rebuilt);
  if (!std::equal(rebuilt.begin(), rebuilt.end(), views[0].begin()))
    std::abort();
  return double(stats.bytes_read) / double(block);
}

}  // namespace

int main() {
  std::printf("=== Fig. 7 — reconstruction traffic (MB at 512 MB blocks), "
              "n = 2k, p = n ===\n\n");
  std::printf("%4s | %10s %16s %14s %20s | %s\n", "k", "RS", "Carousel(d=k)",
              "MSR(d=2k-1)", "Carousel(d=2k-1)", "optimal d/(d-k+1)");
  bool all_optimal = true;
  for (int k : {2, 4, 6, 8, 10}) {
    const std::size_t n = 2 * k, d = 2 * k - 1;
    double rs = rs_traffic_blocks(ReedSolomon(n, k)) * kPaperBlockMB;
    double ck = regen_traffic_blocks(Carousel(n, k, k, n)) * kPaperBlockMB;
    double ms =
        regen_traffic_blocks(ProductMatrixMSR(n, k, d)) * kPaperBlockMB;
    double cd = regen_traffic_blocks(Carousel(n, k, d, n)) * kPaperBlockMB;
    double opt = double(d) / double(d - k + 1) * kPaperBlockMB;
    std::printf("%4d | %10.0f %16.0f %14.1f %20.1f | %10.1f\n", k, rs, ck, ms,
                cd, opt);
    all_optimal = all_optimal && std::abs(ms - opt) < 1e-6 &&
                  std::abs(cd - opt) < 1e-6 &&
                  std::abs(rs - k * kPaperBlockMB) < 1e-6 &&
                  std::abs(ck - k * kPaperBlockMB) < 1e-6;
  }
  std::printf("\nshape checks:\n");
  std::printf("  RS/Carousel(d=k) traffic = k blocks, MSR/Carousel(d=2k-1) "
              "= optimal d/(d-k+1) < 2 blocks: %s\n",
              all_optimal ? "yes" : "NO");
  std::printf("  Carousel repair traffic identical to its base code at "
              "every k (paper: curves coincide).\n");
  carousel::bench::write_metrics_snapshot("fig7");
  return 0;
}
