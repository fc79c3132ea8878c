// Paper Fig. 6: encoding and decoding throughput for k in {2,4,6,8,10} with
// n = 2k, comparing RS, Carousel (d = k), MSR (d = 2k-1) and Carousel
// (d = 2k-1); p = n for both Carousel variants, exactly the paper's setup.
//
// Decoding follows the paper's protocol: the original data is recovered from
// blocks 2..k+1 (block 1 lost) — k-1 data blocks plus one parity block for
// the systematic codes, and k blocks for Carousel even though it could read
// from p (fair-comparison note in §VIII-B).
//
// Expected shape (paper):
//   encode: RS flat and fastest; MSR falls off with k (alpha = k segments
//           multiply the per-byte cost); each Carousel tracks its base code
//           thanks to generator sparsity.
//   decode: systematic codes only recompute the lost block (1/k of the
//           data); Carousel must compute ~half the data from k blocks and
//           lands below its base code.

#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "codes/carousel.h"
#include "codes/msr.h"
#include "codes/rs.h"

using namespace carousel::codes;
using carousel::bench::kMiB;

namespace {

// Per-block payload.  The paper uses 512 MB blocks on 16 cores; we scale to
// one core, rounding each code's block down to a multiple of its
// subpacketization.
constexpr std::size_t kBlockBytes = 1 << 20;

struct Row {
  double encode_mbs = 0;
  double decode_mbs = 0;
};

Row measure(const LinearCode& code) {
  const std::size_t n = code.n(), k = code.k(), s = code.s();
  const std::size_t block = kBlockBytes / s * s;  // multiple of s
  auto data = carousel::bench::random_bytes(k * block, 3);
  std::vector<std::uint8_t> blob(n * block);
  auto blocks = carousel::bench::split_spans(blob, n);

  Row row;
  double enc_s = carousel::bench::time_best_s([&] { code.encode(data, blocks); });
  row.encode_mbs = double(data.size()) / kMiB / enc_s;

  // Decode from blocks 1..k (0-indexed): block 0 unavailable.
  auto views = carousel::bench::split_const_spans(blob, n);
  std::vector<std::size_t> ids(k);
  std::iota(ids.begin(), ids.end(), 1);
  std::vector<std::span<const std::uint8_t>> chosen;
  for (std::size_t id : ids) chosen.push_back(views[id]);
  std::vector<std::uint8_t> out(k * block);
  double dec_s =
      carousel::bench::time_best_s([&] { code.decode(ids, chosen, out); });
  if (!std::equal(out.begin(), out.end(), data.begin())) std::abort();
  row.decode_mbs = double(data.size()) / kMiB / dec_s;
  return row;
}

}  // namespace

int main() {
  std::printf("=== Fig. 6 — encode/decode throughput (MB/s of original "
              "data), n = 2k, p = n ===\n");
  std::printf("block=%zu KiB per code (paper: 512 MB on c4.4xlarge; shapes, "
              "not absolutes, are comparable)\n\n",
              kBlockBytes / 1024);
  std::printf("%4s | %12s %18s %14s %20s\n", "k", "RS", "Carousel(d=k)",
              "MSR(d=2k-1)", "Carousel(d=2k-1)");

  struct Meas {
    int k;
    Row rs, car_k, msr, car_d;
  };
  std::vector<Meas> rows;
  for (int k : {2, 4, 6, 8, 10}) {
    Meas m{k, {}, {}, {}, {}};
    const std::size_t n = 2 * k;
    m.rs = measure(ReedSolomon(n, k));
    m.car_k = measure(Carousel(n, k, k, n));
    m.msr = measure(ProductMatrixMSR(n, k, 2 * k - 1));
    m.car_d = measure(Carousel(n, k, 2 * k - 1, n));
    rows.push_back(m);
  }

  std::printf("--- (a) encoding throughput ---\n");
  for (const auto& m : rows)
    std::printf("%4d | %12.1f %18.1f %14.1f %20.1f\n", m.k, m.rs.encode_mbs,
                m.car_k.encode_mbs, m.msr.encode_mbs, m.car_d.encode_mbs);
  std::printf("--- (b) decoding throughput (block 1 lost, decode from k "
              "blocks) ---\n");
  for (const auto& m : rows)
    std::printf("%4d | %12.1f %18.1f %14.1f %20.1f\n", m.k, m.rs.decode_mbs,
                m.car_k.decode_mbs, m.msr.decode_mbs, m.car_d.decode_mbs);

  // Shape assertions the paper reports.
  const auto& first = rows.front();
  const auto& last = rows.back();
  std::printf("\nshape checks:\n");
  std::printf("  MSR encode falls off with k (paper: gap grows):        "
              "%s (%.0f -> %.0f MB/s)\n",
              last.msr.encode_mbs < first.msr.encode_mbs ? "yes" : "NO",
              first.msr.encode_mbs, last.msr.encode_mbs);
  double worst_ratio = 1e9;
  for (const auto& m : rows)
    worst_ratio = std::min(worst_ratio, m.car_k.encode_mbs / m.rs.encode_mbs);
  std::printf("  Carousel(d=k) encode tracks RS (sparsity pays off):    "
              "min ratio %.2f\n", worst_ratio);
  worst_ratio = 1e9;
  for (const auto& m : rows)
    worst_ratio = std::min(worst_ratio, m.car_d.encode_mbs / m.msr.encode_mbs);
  std::printf("  Carousel(d=2k-1) encode tracks MSR:                    "
              "min ratio %.2f\n", worst_ratio);
  int below = 0;
  for (const auto& m : rows) below += m.car_k.decode_mbs < m.rs.decode_mbs;
  std::printf("  Carousel decode below systematic decode (paper Fig.6b):"
              " %d/%zu points\n", below, rows.size());
  carousel::bench::write_metrics_snapshot("fig6");
  return 0;
}
