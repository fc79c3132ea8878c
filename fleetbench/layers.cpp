// The isolated-call suite: one public call per data-path layer, timed in an
// otherwise idle process on the workloads' block (320 KiB) and stripe
// (1.875 MiB) sizes.  Each metric is the median over repeated calls, so a
// later change to one layer can quote its own delta.  Every layer's output
// is checked once against an independent result.

#include <functional>

#include "bench.h"
#include "gf/vect.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/meta_log.h"
#include "net/persistence.h"
#include "storage/erasure_file.h"
#include "util/crc32.h"

namespace fleetbench {
namespace {

namespace fs = std::filesystem;

// Per metric: stop after this long or this many calls, whichever is first.
constexpr double kBudgetS = 0.3;
constexpr int kMaxCalls = 400;

// Median wall seconds of one call to fn (after one untimed warm-up call).
double median_call_s(const std::function<void(int)>& fn) {
  fn(-1);
  std::vector<double> samples;
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(kBudgetS));
  for (int i = 0; i < kMaxCalls && (i < 5 || Clock::now() < stop); ++i) {
    const auto t0 = Clock::now();
    fn(i);
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return quantile(samples, 0.5);
}

double mib_per_s(std::size_t bytes, double s) {
  return static_cast<double>(bytes) / kMiB / s;
}

}  // namespace

bool run_layer_suite(const fs::path& scratch, Report& out) {
  bool ok = true;
  auto check = [&ok](bool good, const char* what) {
    if (!good) {
      std::fprintf(stderr, "fleetbench: layer check failed: %s\n", what);
      ok = false;
    }
  };
  const codes::Carousel code = make_code();
  const std::size_t block = code.s() * kUnitBytes;
  const std::size_t stripe = code.k() * block;
  const std::size_t n = code.n();
  const std::vector<std::uint8_t> data = seeded_bytes(0x5eed, stripe);

  // util: the CRC every PUT, GET_RANGE, PROJECT and VERIFY runs over a block.
  {
    std::uint32_t crc = 0;
    const double s = median_call_s(
        [&](int) { crc = util::crc32({data.data(), block}); });
    const std::uint8_t vector[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    check(util::crc32(vector) == 0xCBF43926u &&
              crc == util::crc32({data.data() + block / 2, block / 2},
                                 util::crc32({data.data(), block / 2})),
          "crc32 check value and chaining");
    out.add("util.crc32_MBps", mib_per_s(block, s), "MiB/s",
            "320 KiB block -> read_cpu_ms@read_healthy, put_cpu_ms, "
            "repair_cpu_ms");
  }

  // gf: the region kernels behind PROJECT, decode and newcomer repair.
  {
    std::vector<std::uint8_t> dst(block, 0);
    const double s = median_call_s([&](int) {
      gf::mul_add_region(0x53, data.data(), dst.data(), block);
    });
    out.add("gf.mul_add_region_MBps", mib_per_s(block, s), "MiB/s",
            "320 KiB -> read_cpu_ms, repair_cpu_ms@degraded_repair");
    std::vector<const std::uint8_t*> srcs;
    std::vector<std::uint8_t> coeffs;
    const std::vector<std::uint8_t> many = seeded_bytes(0xd07, 10 * block);
    for (std::size_t i = 0; i < 10; ++i) {
      srcs.push_back(many.data() + i * block);
      coeffs.push_back(static_cast<std::uint8_t>(3 + 7 * i));
    }
    const double s10 = median_call_s([&](int) {
      gf::dot_prod_region(coeffs, srcs, dst.data(), block);
    });
    std::vector<std::uint8_t> ref(block, 0);
    for (std::size_t i = 0; i < 10; ++i)
      gf::mul_add_region(coeffs[i], srcs[i], ref.data(), block);
    check(ref == dst, "dot_prod_region equals summed mul_add_region");
    out.add("gf.dot_prod_region_MBps", mib_per_s(10 * block, s10), "MiB/s",
            "10 x 320 KiB sources -> read_cpu_ms, repair_cpu_ms@"
            "degraded_repair");
  }

  // codes: encode, the §VII degraded decode and the MSR newcomer.
  std::vector<std::uint8_t> blocks(n * block);
  std::vector<std::span<std::uint8_t>> views;
  std::vector<std::span<const std::uint8_t>> cviews;
  for (std::size_t i = 0; i < n; ++i) {
    views.emplace_back(blocks.data() + i * block, block);
    cviews.emplace_back(blocks.data() + i * block, block);
  }
  {
    const double s = median_call_s([&](int) { code.encode(data, views); });
    out.add("codes.encode_MBps", mib_per_s(stripe, s), "MiB/s",
            "1.875 MiB stripe -> put_cpu_ms");
    const double se = median_call_s([&](int) {
      storage::ErasureFile ef(code, data, block);
      check(ef.stripes() == 1, "ErasureFile stripe count");
    });
    storage::ErasureFile ef(code, data, block);
    for (std::size_t i = 0; i < n; ++i) {
      auto b = ef.block(0, i);
      check(std::equal(b.begin(), b.end(), cviews[i].begin()),
            "ErasureFile blocks equal LinearCode::encode");
    }
    out.add("storage.erasure_file_MBps", mib_per_s(stripe, se), "MiB/s",
            "encode + per-block CRC -> put_cpu_ms");
  }
  {
    // Block 3 lost; parity block 10 stands in for its slot.
    std::vector<std::size_t> ids;
    std::vector<std::span<const std::uint8_t>> have;
    for (std::size_t i = 0; i <= code.p(); ++i)
      if (i != 3) {
        ids.push_back(i);
        have.push_back(cviews[i]);
      }
    std::vector<std::uint8_t> got(stripe);
    const double s = median_call_s(
        [&](int) { code.decode_parallel(ids, have, got); });
    check(got == data, "decode_parallel returns the stripe");
    out.add("codes.decode_parallel_MBps", mib_per_s(stripe, s), "MiB/s",
            "1 stand-in -> read_cpu_ms@degraded_repair");
  }
  {
    // Block 10 lost, helpers 0..9: what repair_block's MSR path computes.
    const std::size_t failed = 10;
    const std::size_t chunk = block / code.alpha();
    std::vector<std::size_t> helpers;
    std::vector<std::uint8_t> chunk_buf(code.d() * chunk);
    std::vector<std::span<const std::uint8_t>> chunks;
    for (std::size_t h = 0; h < code.d(); ++h) {
      helpers.push_back(h);
      std::span<std::uint8_t> c(chunk_buf.data() + h * chunk, chunk);
      code.helper_compute(h, failed, cviews[h], c);
      chunks.emplace_back(c.data(), c.size());
    }
    std::vector<std::uint8_t> rebuilt(block);
    const double s = median_call_s(
        [&](int) { code.newcomer_compute(failed, helpers, chunks, rebuilt); });
    check(std::equal(rebuilt.begin(), rebuilt.end(), cviews[failed].begin()),
          "newcomer_compute rebuilds the block");
    out.add("codes.newcomer_compute_MBps", mib_per_s(block, s), "MiB/s",
            "d=10 chunks -> repair_cpu_ms@degraded_repair");
  }

  // net.client against one idle RAM server: the wire ops the store issues.
  {
    obs::MetricsRegistry reg;
    net::BlockServer server;
    net::Client client(server.port(), {}, &reg);
    const net::BlockKey key{1, 0, 0};
    const std::span<const std::uint8_t> b0 = cviews[0];
    auto ms = [](double s) { return 1e3 * s; };
    out.add("net.client.ping_ms", ms(median_call_s([&](int) {
              client.ping();
            })),
            "ms", "-> every store op");
    out.add("net.client.put_ms", ms(median_call_s([&](int) {
              client.put(key, b0);
            })),
            "ms", "320 KiB -> put_cpu_ms, repair_cpu_ms");
    const auto extent = static_cast<std::uint32_t>(
        code.data_extent_bytes(0, block));
    std::optional<std::vector<std::uint8_t>> got;
    out.add("net.client.get_range_ms", ms(median_call_s([&](int) {
              got = client.get_range(key, 0, extent);
            })),
            "ms", "192 KiB extent -> read_cpu_ms@read_healthy");
    check(got && std::equal(got->begin(), got->end(), b0.begin()),
          "get_range returns the extent");
    net::Client::Projection proj;
    for (const auto& terms : code.repair_projection(0, 10)) {
      proj.emplace_back();
      for (const auto& [pos, coeff] : terms)
        proj.back().emplace_back(static_cast<std::uint32_t>(pos), coeff);
    }
    std::vector<std::uint8_t> chunk(block / code.alpha());
    code.helper_compute(0, 10, b0, chunk);
    out.add("net.client.project_ms", ms(median_call_s([&](int) {
              got = client.project(key, kUnitBytes, proj);
            })),
            "ms", "MSR helper chunk -> repair_cpu_ms@degraded_repair");
    check(got && *got == chunk, "PROJECT equals helper_compute");
    net::BlockHealth health = net::BlockHealth::kMissing;
    out.add("net.client.verify_ms", ms(median_call_s([&](int) {
              health = client.verify(key);
            })),
            "ms", "-> repair_cpu_ms@degraded_repair");
    check(health == net::BlockHealth::kOk, "VERIFY of a stored block");
  }

  // The durable layers, fsync on as in the fleet.
  fs::remove_all(scratch);
  {
    obs::MetricsRegistry reg;
    net::PersistentBlockStore::Options po;
    po.fsync = true;
    po.registry = &reg;
    net::PersistentBlockStore store(scratch / "persist", po);
    const std::uint32_t crc = util::crc32(cviews[0]);
    const double s = median_call_s([&](int i) {
      check(store.put(net::BlockKey{2, 0, static_cast<std::uint32_t>(i + 1)},
                      cviews[0], crc),
            "PersistentBlockStore::put commits");
    });
    out.add("net.persistence.put_ms", 1e3 * s, "ms",
            "320 KiB fsynced -> put_cpu_ms");
  }
  {
    obs::MetricsRegistry reg;
    net::MetaLog::Options mo;
    mo.fsync = true;
    mo.registry = &reg;
    net::MetaLog log(scratch / "meta", 0xfee1u, mo);
    std::vector<std::vector<std::uint32_t>> placement(1);
    for (std::uint32_t i = 0; i < n; ++i) placement[0].push_back(i);
    const double s = median_call_s([&](int i) {
      const auto file = static_cast<std::uint32_t>(i + 2);
      log.put_intent(file, stripe, 1, placement);
      log.put_commit(file);
    });
    check(log.state().manifest.size() > 5, "MetaLog commits the puts");
    out.add("net.meta_log.put_txn_ms", 1e3 * s, "ms",
            "put_intent + put_commit -> put_cpu_ms");
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return ok;
}

}  // namespace fleetbench
