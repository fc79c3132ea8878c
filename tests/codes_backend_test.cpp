// Every fused region combination in src/codes against the scalar backend.
//
// Each operation runs under gf::Backend::kScalar (the reference) and then
// under every other backend this CPU supports; the bytes must match, and
// must also be right (a rebuilt block equals the lost one, a decode equals
// the data).  Unit sizes sweep 1..300 bytes (every SIMD tail length) plus
// one 64 KiB run; helper and source sets are shuffled, neither the first d
// nor ascending.  Every block, chunk and output is its own allocation that
// ends where its bytes end, so a kernel reading or writing past a region
// shows under AddressSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>

#include "codes/carousel.h"
#include "codes/mbr.h"
#include "codes/msr.h"
#include "codes/rs.h"
#include "gf/backend.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::random_bytes;
using Buffers = std::vector<std::vector<Byte>>;

constexpr std::size_t kLargeUnit = 64 << 10;

// Runs `op` under the scalar reference, then under every other supported
// backend, expecting the same buffers; returns the reference's.
Buffers same_on_every_backend(const std::function<Buffers()>& op,
                              const std::string& what) {
  Buffers want;
  {
    gf::ScopedBackend pin(gf::Backend::kScalar);
    want = op();
  }
  for (gf::Backend b : {gf::Backend::kAvx2, gf::Backend::kGfni}) {
    gf::ScopedBackend pin(b);
    if (!pin.ok()) continue;
    EXPECT_TRUE(op() == want) << what << " differs on " << gf::backend_name(b);
  }
  return want;
}

std::vector<std::span<const Byte>> views(const Buffers& bufs) {
  return {bufs.begin(), bufs.end()};
}

// The survivors of `failed` in a seeded shuffled order.
std::vector<std::size_t> shuffled_survivors(std::size_t n, std::size_t failed,
                                            std::mt19937& rng) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i)
    if (i != failed) out.push_back(i);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

Buffers encode(const LinearCode& code, std::span<const Byte> data,
               std::size_t ub) {
  Buffers blocks(code.n(), std::vector<Byte>(code.s() * ub));
  std::vector<std::span<Byte>> outs(blocks.begin(), blocks.end());
  code.encode(data, outs);
  return blocks;
}

// project_units and decode_from_available on any linear code, plus the
// helper/newcomer pair when the code has one (MSR and Carousel).
template <class Code>
void check_linear_code(const Code& code, std::size_t ub, std::uint32_t seed) {
  const std::string tag = code.params().to_string() + " ub=" +
                          std::to_string(ub) + " seed=" + std::to_string(seed);
  std::mt19937 rng(seed);
  const auto data = random_bytes(code.message_units() * ub, seed);
  const Buffers blocks = encode(code, data, ub);
  const std::size_t failed = rng() % code.n();
  const auto survivors = shuffled_survivors(code.n(), failed, rng);

  // Whole-block repair: the lost block straight from k blocks' units.
  std::vector<UnitRef> sources;
  for (std::size_t j = 0; j < code.k(); ++j)
    for (std::size_t t = 0; t < code.s(); ++t)
      sources.push_back(
          {survivors[j], t, blocks[survivors[j]].data() + t * ub});
  auto got = same_on_every_backend(
      [&] {
        Buffers out{std::vector<Byte>(code.s() * ub)};
        code.project_units(sources, ub, failed, out[0]);
        return out;
      },
      "project_units " + tag);
  EXPECT_TRUE(got[0] == blocks[failed]) << "project_units " << tag;

  // Decode from q in [k, n-1] shuffled blocks.
  const std::size_t q = code.k() + rng() % (code.n() - code.k());
  const std::vector<std::size_t> ids(survivors.begin(), survivors.begin() + q);
  Buffers chosen;
  for (std::size_t id : ids) chosen.push_back(blocks[id]);
  got = same_on_every_backend(
      [&] {
        Buffers out{std::vector<Byte>(data.size())};
        code.decode_from_available(ids, views(chosen), out[0]);
        return out;
      },
      "decode_from_available " + tag);
  EXPECT_TRUE(got[0] == data) << "decode_from_available " << tag;

  if constexpr (requires { code.helper_chunk_units(); }) {
    const std::vector<std::size_t> helpers(survivors.begin(),
                                           survivors.begin() + code.d());
    const Buffers chunks = same_on_every_backend(
        [&] {
          Buffers out;
          for (std::size_t h : helpers) {
            out.emplace_back(code.helper_chunk_units() * ub);
            code.helper_compute(h, failed, blocks[h], out.back());
          }
          return out;
        },
        "helper_compute " + tag);
    got = same_on_every_backend(
        [&] {
          Buffers out{std::vector<Byte>(code.s() * ub)};
          code.newcomer_compute(failed, helpers, views(chunks), out[0]);
          return out;
        },
        "newcomer_compute " + tag);
    EXPECT_TRUE(got[0] == blocks[failed]) << "newcomer_compute " << tag;
  }
}

template <class Code>
void sweep_linear_code(const Code& code) {
  for (std::size_t ub = 1; ub <= 300; ++ub)
    check_linear_code(code, ub, static_cast<std::uint32_t>(ub));
  check_linear_code(code, kLargeUnit, 7);
}

TEST(FusedCombinations, ReedSolomon) { sweep_linear_code(ReedSolomon(9, 6)); }

TEST(FusedCombinations, ProductMatrixMsr) {
  sweep_linear_code(ProductMatrixMSR(12, 6, 10));
}

TEST(FusedCombinations, ShortenedMsr) {
  sweep_linear_code(ProductMatrixMSR(8, 3, 6));
}

TEST(FusedCombinations, CarouselRsBaseOneUnitPerSegment) {
  Carousel code(12, 6, 6, 6);  // d == k, P == 1
  ASSERT_EQ(code.expansion(), 1u);
  sweep_linear_code(code);
}

TEST(FusedCombinations, CarouselRsBaseExpanded) {
  Carousel code(12, 6, 6, 10);  // d == k, P > 1
  ASSERT_GT(code.expansion(), 1u);
  sweep_linear_code(code);
}

TEST(FusedCombinations, CarouselMsrBaseOneUnitPerSegment) {
  Carousel code(12, 6, 10, 10);  // d > k, P == 1: the store's code
  ASSERT_EQ(code.expansion(), 1u);
  sweep_linear_code(code);
}

TEST(FusedCombinations, CarouselMsrBaseExpanded) {
  Carousel code(12, 6, 10, 12);  // d > k, P > 1
  ASSERT_GT(code.expansion(), 1u);
  sweep_linear_code(code);
}

void check_mbr(const ProductMatrixMBR& mbr, std::size_t ub,
               std::uint32_t seed) {
  const std::string tag = "ub=" + std::to_string(ub);
  std::mt19937 rng(seed);
  const auto data = random_bytes(mbr.message_units() * ub, seed);
  const Buffers blocks = same_on_every_backend(
      [&] {
        Buffers out(mbr.n(), std::vector<Byte>(mbr.alpha() * ub));
        std::vector<std::span<Byte>> spans(out.begin(), out.end());
        mbr.encode(data, spans);
        return out;
      },
      "MBR encode " + tag);
  const std::size_t failed = rng() % mbr.n();
  const auto survivors = shuffled_survivors(mbr.n(), failed, rng);

  const std::vector<std::size_t> ids(survivors.begin(),
                                     survivors.begin() + mbr.k());
  Buffers chosen;
  for (std::size_t id : ids) chosen.push_back(blocks[id]);
  auto got = same_on_every_backend(
      [&] {
        Buffers out{std::vector<Byte>(data.size())};
        mbr.decode(ids, views(chosen), out[0]);
        return out;
      },
      "MBR decode " + tag);
  EXPECT_TRUE(got[0] == data) << "MBR decode " << tag;

  const std::vector<std::size_t> helpers(survivors.begin(),
                                         survivors.begin() + mbr.d());
  const Buffers chunks = same_on_every_backend(
      [&] {
        Buffers out;
        for (std::size_t h : helpers) {
          out.emplace_back(ub);
          mbr.helper_compute(h, failed, blocks[h], out.back());
        }
        return out;
      },
      "MBR helper_compute " + tag);
  got = same_on_every_backend(
      [&] {
        Buffers out{std::vector<Byte>(mbr.alpha() * ub)};
        mbr.newcomer_compute(failed, helpers, views(chunks), out[0]);
        return out;
      },
      "MBR newcomer_compute " + tag);
  EXPECT_TRUE(got[0] == blocks[failed]) << "MBR newcomer_compute " << tag;
}

TEST(FusedCombinations, ProductMatrixMbr) {
  ProductMatrixMBR mbr(12, 6, 10);
  for (std::size_t ub = 1; ub <= 300; ++ub)
    check_mbr(mbr, ub, static_cast<std::uint32_t>(ub));
  check_mbr(mbr, kLargeUnit, 7);
}

}  // namespace
}  // namespace carousel::codes
