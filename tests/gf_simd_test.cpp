// Cross-backend equivalence tests for the GF(2^8) region kernels: the AVX2
// shuffle and GFNI affine kernels, single-source and fused dot product
// alike, must agree with the scalar full-table backend bit-for-bit on every
// coefficient, size and alignment.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>

#include "gf/backend.h"
#include "gf/vect.h"
#include "test_util.h"

namespace carousel::gf {
namespace {

TEST(Backend, BestIsSupportedAndSettable) {
  Backend best = best_backend();
  EXPECT_TRUE(set_backend(best));
  EXPECT_EQ(active_backend(), best);
  EXPECT_TRUE(set_backend(Backend::kScalar));
  EXPECT_EQ(active_backend(), Backend::kScalar);
  set_backend(best);
}

TEST(Backend, NamesAreStable) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kGfni), "gfni");
}

TEST(Backend, ScopedBackendRestores) {
  Backend before = active_backend();
  {
    ScopedBackend guard(Backend::kScalar);
    EXPECT_TRUE(guard.ok());
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
  EXPECT_EQ(active_backend(), before);
}

class BackendEquivalence : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (!set_backend(GetParam()))
      GTEST_SKIP() << "backend " << backend_name(GetParam())
                   << " not supported on this CPU";
  }
  void TearDown() override { set_backend(best_backend()); }
};

TEST_P(BackendEquivalence, MulRegionAllCoefficients) {
  auto src = test::random_bytes(1 << 12);
  std::vector<Byte> dst(src.size());
  for (unsigned c = 0; c < 256; ++c) {
    mul_region(static_cast<Byte>(c), src.data(), dst.data(), src.size());
    for (std::size_t i = 0; i < src.size(); i += 97)
      ASSERT_EQ(dst[i], mul(static_cast<Byte>(c), src[i]))
          << "c=" << c << " i=" << i;
  }
}

TEST_P(BackendEquivalence, MulAddRegionAllCoefficients) {
  auto src = test::random_bytes(2048, 1);
  for (unsigned c = 0; c < 256; c += 3) {
    auto dst = test::random_bytes(2048, 2);
    auto expect = dst;
    for (std::size_t i = 0; i < src.size(); ++i)
      expect[i] ^= mul(static_cast<Byte>(c), src[i]);
    mul_add_region(static_cast<Byte>(c), src.data(), dst.data(), src.size());
    ASSERT_EQ(dst, expect) << "c=" << c;
  }
}

TEST_P(BackendEquivalence, TailSizesAroundVectorWidth) {
  // Exercise every remainder around the 32-byte vector width.
  for (std::size_t n = 0; n <= 100; ++n) {
    auto src = test::random_bytes(n, static_cast<std::uint32_t>(n) + 1);
    std::vector<Byte> dst(n, 0);
    mul_region(0xA7, src.data(), dst.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(dst[i], mul(0xA7, src[i])) << "n=" << n << " i=" << i;
  }
}

TEST_P(BackendEquivalence, UnalignedPointers) {
  // Every src offset mod the 32-byte vector width (dst offset de-correlated
  // via *7 mod 32), so each possible vmovdqu misalignment is hit — the SIMD
  // kernels promise memcpy-clean unaligned access for arbitrary Byte*
  // regions, and UBSan's alignment check rides on this test.
  auto buf = test::random_bytes(4096 + 64, 7);
  for (std::size_t off = 0; off < 32; ++off) {
    std::vector<Byte> dst(4096 + 64, 0);
    mul_region(0x53, buf.data() + off, dst.data() + ((off * 7) % 32), 4000);
    for (std::size_t i = 0; i < 4000; i += 131)
      ASSERT_EQ(dst[(off * 7) % 32 + i], mul(0x53, buf[off + i]))
          << "off=" << off;
  }
}

TEST_P(BackendEquivalence, XorRegion) {
  for (std::size_t n : {31u, 32u, 33u, 1000u}) {
    auto src = test::random_bytes(n, 5);
    auto dst = test::random_bytes(n, 6);
    auto expect = dst;
    for (std::size_t i = 0; i < n; ++i) expect[i] ^= src[i];
    xor_region(src.data(), dst.data(), n);
    ASSERT_EQ(dst, expect) << "n=" << n;
  }
}

TEST_P(BackendEquivalence, DotProdMatchesScalarBackend) {
  const std::size_t n = 777;
  std::vector<std::vector<Byte>> bufs;
  std::vector<const Byte*> ptrs;
  std::vector<Byte> coeffs;
  for (std::size_t i = 0; i < 6; ++i) {
    bufs.push_back(test::random_bytes(n, static_cast<std::uint32_t>(i) + 10));
    ptrs.push_back(bufs.back().data());
    coeffs.push_back(static_cast<Byte>(41 * i + 1));
  }
  std::vector<Byte> got(n);
  dot_prod_region(coeffs, ptrs, got.data(), n);
  std::vector<Byte> want(n);
  {
    ScopedBackend scalar(Backend::kScalar);
    dot_prod_region(coeffs, ptrs, want.data(), n);
  }
  EXPECT_EQ(got, want);
}

// One fused dot-product case: `rows` outputs over `nsrc` sources of n bytes.
// Every source and output sits at its own unaligned offset and ends exactly
// at the end of its allocation, so a kernel that reads or writes one byte
// past a region trips ASan.  Coefficients include zeros and ones.  The
// reference is the scalar backend's summed mul_add_region passes.
void check_dot_prods(std::size_t n, std::size_t nsrc, std::size_t rows,
                     std::uint32_t seed) {
  std::vector<std::vector<Byte>> src_bufs;
  std::vector<const Byte*> srcs;
  for (std::size_t s = 0; s < nsrc; ++s) {
    const std::size_t off = (7 * s + n) % 32;
    src_bufs.push_back(test::random_bytes(off + n, seed + 1 + s));
    srcs.push_back(src_bufs.back().data() + off);
  }
  std::vector<Byte> coeffs = test::random_bytes(rows * nsrc, seed);
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    if (j % 5 == 0) coeffs[j] = 0;
    if (j % 5 == 1) coeffs[j] = 1;
  }
  constexpr Byte kSentinel = 0xE7;
  std::vector<std::vector<Byte>> dst_bufs;
  std::vector<Byte*> dsts;
  std::vector<std::size_t> offs;
  for (std::size_t r = 0; r < rows; ++r) {
    offs.push_back((5 * r + 3 * n + 1) % 32);
    dst_bufs.emplace_back(offs.back() + n, kSentinel);
    dsts.push_back(dst_bufs.back().data() + offs.back());
  }
  dot_prod_regions(coeffs, srcs, dsts, n);

  std::vector<Byte> single(n, kSentinel);
  dot_prod_region(std::span(coeffs).first(nsrc), srcs, single.data(), n);

  ScopedBackend scalar(Backend::kScalar);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Byte> want(n, 0);
    for (std::size_t s = 0; s < nsrc; ++s)
      mul_add_region(coeffs[r * nsrc + s], srcs[s], want.data(), n);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), dsts[r]))
        << "n=" << n << " sources=" << nsrc << " outputs=" << rows
        << " row=" << r;
    for (std::size_t i = 0; i < offs[r]; ++i)
      ASSERT_EQ(dst_bufs[r][i], kSentinel) << "write before output " << r;
    if (r == 0) {
      ASSERT_EQ(single, want) << "dot_prod_region n=" << n
                              << " sources=" << nsrc;
    }
  }
}

TEST_P(BackendEquivalence, FusedDotProdsEqualSummedMulAdd) {
  // Every length around the 32- and 64-byte vector steps, each with a
  // different source and output count.
  for (std::size_t n = 0; n <= 300; ++n)
    check_dot_prods(n, 1 + (n * 7) % 32, 1 + n % 4,
                    static_cast<std::uint32_t>(n));
  for (std::size_t nsrc = 1; nsrc <= 32; ++nsrc)
    for (std::size_t rows = 1; rows <= 4; ++rows)
      check_dot_prods(97, nsrc, rows,
                      static_cast<std::uint32_t>(nsrc * 4 + rows));
}

TEST_P(BackendEquivalence, FusedDotProdsOnEncodeSizedRegions) {
  // 64 KiB units, the size a 320 KiB block of the (12,6,10,10) code splits
  // into, with up to nine outputs: more than two batches of
  // kMaxDotProdRows, the last one short.
  for (std::size_t rows : {1u, 4u, 9u})
    for (std::size_t nsrc : {1u, 6u, 30u})
      check_dot_prods(64 << 10, nsrc, rows,
                      static_cast<std::uint32_t>(rows * 100 + nsrc));
  // A length that leaves a scalar tail after the 64-byte steps.
  check_dot_prods((64 << 10) + 37, 5, 6, 77);
}

TEST(DotProd, RejectsCoefficientCountMismatch) {
  std::vector<Byte> a(64), b(64), out(64);
  std::vector<const Byte*> srcs = {a.data(), b.data()};
  std::vector<Byte*> dsts = {out.data()};
  std::vector<Byte> coeffs = {1, 2, 3};
  EXPECT_THROW(dot_prod_regions(coeffs, srcs, dsts, 64),
               std::invalid_argument);
  EXPECT_THROW(dot_prod_region(coeffs, srcs, out.data(), 64),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendEquivalence,
                         ::testing::Values(Backend::kScalar, Backend::kAvx2,
                                           Backend::kGfni),
                         [](const auto& info) {
                           return backend_name(info.param);
                         });

// Exhaustive 256x256 product check on whatever backend is fastest — pins the
// GFNI affine-matrix packing (and the shuffle tables) to the field tables.
TEST(BackendExhaustive, FullMultiplicationTableOnBestBackend) {
  set_backend(best_backend());
  std::vector<Byte> src(256);
  for (unsigned i = 0; i < 256; ++i) src[i] = static_cast<Byte>(i);
  std::vector<Byte> dst(256);
  for (unsigned c = 0; c < 256; ++c) {
    mul_region(static_cast<Byte>(c), src.data(), dst.data(), 256);
    for (unsigned b = 0; b < 256; ++b)
      ASSERT_EQ(dst[b], mul(static_cast<Byte>(c), static_cast<Byte>(b)))
          << "c=" << c << " b=" << b;
  }
}

}  // namespace
}  // namespace carousel::gf
