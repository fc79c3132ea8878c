// Networked-prototype throughput on loopback: end-to-end numbers for the
// four data paths the paper's Hadoop prototype exercises — upload (encode +
// PUT), parallel read, §VII degraded read, and MSR repair — with real
// sockets, real kernels and real coding.  Loopback bandwidth differs from a
// datacenter network, but the RELATIVE costs (how much slower a degraded
// read is, how little repair moves) carry over.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "net/block_server.h"
#include "net/store.h"

using namespace carousel;
using carousel::bench::kMiB;

int main() {
  std::vector<std::unique_ptr<net::BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 12; ++i) {
    servers.push_back(std::make_unique<net::BlockServer>());
    ports.push_back(servers.back()->port());
  }

  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * (1 << 20);  // 5 MiB blocks
  net::CarouselStore store(code, ports, block);
  auto file = bench::random_bytes(2 * code.k() * block, 3);  // 2 stripes
  const double mb = double(file.size()) / kMiB;

  std::printf("=== Networked prototype throughput (12 servers on loopback, "
              "%.0f MiB file, (12,6,10,10) Carousel) ===\n\n", mb);

  // File ids are write-once, so each upload repetition takes a fresh one;
  // everything after reads the last file written.
  std::uint32_t id = 0;
  double t = bench::time_best_s([&] { store.put_file(++id, file); }, 2);
  std::printf("%-34s %8.1f MB/s\n", "upload (encode + 24 PUTs)", mb / t);

  t = bench::time_best_s([&] {
    if (store.read_file(id, file.size()) != file) std::abort();
  }, 2);
  std::printf("%-34s %8.1f MB/s\n", "parallel read (10 extents)", mb / t);

  store.drop_block(id, 0, 3);
  store.drop_block(id, 1, 7);
  t = bench::time_best_s([&] {
    if (store.read_file(id, file.size()) != file) std::abort();
  }, 2);
  std::printf("%-34s %8.1f MB/s  (one stand-in per stripe, decode on the "
              "client)\n", "degraded read (section VII)", mb / t);

  double repair_mb = 2.0 * block / kMiB;  // optimal traffic per repair
  t = bench::time_best_s([&] {
    store.drop_block(id, 0, 3);
    store.repair_block(id, 0, 3);
  }, 2);
  std::printf("%-34s %8.1f MB/s of repaired data (moves only %.0f MiB per "
              "%.0f MiB block)\n", "repair (server-side projections)",
              double(block) / kMiB / t, repair_mb, double(block) / kMiB);
  return 0;
}
