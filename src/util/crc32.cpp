#include "util/crc32.h"

#include <array>
#include <cstring>

#include "util/crc32_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace carousel::util {

namespace internal {

namespace {

const std::array<std::uint32_t, 256>& table() {
  static const auto t = [] {
    std::array<std::uint32_t, 256> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0u);
      out[i] = c;
    }
    return out;
  }();
  return t;
}

// Advances the raw (inverted) CRC register `c` over n bytes.
std::uint32_t table_update(std::uint32_t c, const std::uint8_t* p,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    c = table()[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c;
}

}  // namespace

std::uint32_t crc32_table(const std::uint8_t* p, std::size_t n,
                          std::uint32_t seed) {
  return ~table_update(~seed, p, n);
}

#if defined(__x86_64__)

namespace {

// Folding constants: the bit-reflected x^n mod P, shifted left one bit,
// for P = 0x104C11DB7, as at the end of the Gopal et al. paper.  Carrying a
// 128-bit remainder forward by D bits multiplies its two 64-bit halves by
// x^(D+32) and x^(D-32) mod P; each pair below is {D+32, D-32}.
// Fold by 2048 bits: four zmm accumulators of 256 bytes.
constexpr std::int64_t kX2080 = 0x011542778a, kX2016 = 0x01322d1430;
// Fold by 512 bits: four xmm lanes, or one zmm, of 64 bytes.
constexpr std::int64_t kX544 = 0x0154442bd4, kX480 = 0x01c6e41596;
// Fold by 128 bits; kX96 also takes 128 bits to 64.
constexpr std::int64_t kX160 = 0x01751997d0, kX96 = 0x00ccaa009e;
// 64 bits to 32.
constexpr std::int64_t kX64 = 0x0163cd6124;
// Barrett reduction: x^64 div P, and P, reflected.
constexpr std::int64_t kMu = 0x01f7011641, kPoly = 0x01db710641;

// memcpy-based unaligned loads, as in gf/vect_simd.cpp: callers' buffers
// carry no alignment contract.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i
load128(const std::uint8_t* p) {
  __m128i v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Carries the 128-bit remainder `x` forward by the distance whose pair of
// constants `k` holds, and adds the 16 bytes found there.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i fold(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// The end every folding kernel shares: carries the remainder `x` over the
// n bytes left at p (a multiple of 16), then reduces it to the 32-bit raw
// CRC register.  Inlined, so the vpclmul kernel runs it VEX-encoded instead
// of switching to legacy SSE with dirty upper zmm state.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline std::uint32_t
finish(__m128i x, const std::uint8_t* p, std::size_t n) {
  const __m128i k3k4 = _mm_set_epi64x(kX96, kX160);
  const __m128i k5 = _mm_set_epi64x(0, kX64);
  const __m128i poly = _mm_set_epi64x(kMu, kPoly);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  for (; n >= 16; p += 16, n -= 16) x = fold(x, k3k4, load128(p));

  // 128 -> 64 bits, then 64 -> 32 via k5.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  __m128i hi = _mm_srli_si128(x, 4);
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00),
                    hi);

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

// Raw CRC register `c` advanced over n bytes, n >= 64 and a multiple of 16:
// four 128-bit lanes, 64 bytes per iteration.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_blocks(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kX480, kX544);
  const __m128i k3k4 = _mm_set_epi64x(kX96, kX160);

  // The register enters the first lane.
  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load128(p));
    x2 = fold(x2, k1k2, load128(p + 16));
    x3 = fold(x3, k1k2, load128(p + 32));
    x4 = fold(x4, k1k2, load128(p + 48));
  }

  // Collapse the lanes, 16 bytes apart, into one.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  return finish(x1, p, n);
}

#define CRC_VPCLMUL_TARGET "pclmul,sse4.1,avx512f,avx512vl,vpclmulqdq"

__attribute__((target(CRC_VPCLMUL_TARGET), always_inline)) inline __m512i
load512(const std::uint8_t* p) {
  __m512i v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// fold() on four 128-bit lanes at once; 0x96 is a three-way XOR.
__attribute__((target(CRC_VPCLMUL_TARGET), always_inline)) inline __m512i
fold512(__m512i x, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next,
                                   0x96);
}

// 128-bit lane I of x.  The zero-masked form, because GCC 12 warns about
// the unmasked one's undefined pass-through operand.
template <int I>
__attribute__((target(CRC_VPCLMUL_TARGET), always_inline)) inline __m128i
lane(__m512i x) {
  return _mm512_maskz_extracti32x4_epi32(0xF, x, I);
}

// Raw CRC register `c` advanced over n bytes, n >= 256 and a multiple of 16:
// four zmm accumulators of four 128-bit lanes each, 256 bytes per
// iteration.
__attribute__((target(CRC_VPCLMUL_TARGET))) std::uint32_t fold_blocks_512(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const __m512i k2048 = _mm512_set4_epi64(kX2016, kX2080, kX2016, kX2080);
  const __m512i k512 = _mm512_set4_epi64(kX480, kX544, kX480, kX544);
  const __m128i k3k4 = _mm_set_epi64x(kX96, kX160);

  // The register enters the first lane of the first accumulator.
  __m512i x0 = _mm512_xor_si512(
      load512(p), _mm512_zextsi128_si512(
                      _mm_cvtsi32_si128(static_cast<int>(c))));
  __m512i x1 = load512(p + 64);
  __m512i x2 = load512(p + 128);
  __m512i x3 = load512(p + 192);
  p += 256;
  n -= 256;
  for (; n >= 256; p += 256, n -= 256) {
    x0 = fold512(x0, k2048, load512(p));
    x1 = fold512(x1, k2048, load512(p + 64));
    x2 = fold512(x2, k2048, load512(p + 128));
    x3 = fold512(x3, k2048, load512(p + 192));
  }

  // Collapse the accumulators, 64 bytes apart, into the last one, and fold
  // any whole 64-byte blocks left into it.
  x1 = fold512(x0, k512, x1);
  x2 = fold512(x1, k512, x2);
  x3 = fold512(x2, k512, x3);
  for (; n >= 64; p += 64, n -= 64) x3 = fold512(x3, k512, load512(p));

  // Collapse its four lanes, 16 bytes apart, into one.
  __m128i x = lane<0>(x3);
  x = fold(x, k3k4, lane<1>(x3));
  x = fold(x, k3k4, lane<2>(x3));
  x = fold(x, k3k4, lane<3>(x3));
  return finish(x, p, n);
}

#undef CRC_VPCLMUL_TARGET

using FoldFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                 std::size_t);

// `fold` over the longest 16-byte multiple, the table loop over the rest.
std::uint32_t fold_then_table(FoldFn fold, const std::uint8_t* p,
                              std::size_t n, std::uint32_t seed) {
  const std::size_t bulk = n & ~std::size_t{15};
  return ~table_update(fold(~seed, p, bulk), p + bulk, n - bulk);
}

}  // namespace

std::uint32_t crc32_pclmul(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed) {
  if (n < 64) return crc32_table(p, n, seed);
  return fold_then_table(fold_blocks, p, n, seed);
}

std::uint32_t crc32_vpclmul(const std::uint8_t* p, std::size_t n,
                            std::uint32_t seed) {
  if (n < 256) return crc32_pclmul(p, n, seed);
  return fold_then_table(fold_blocks_512, p, n, seed);
}

bool cpu_has_pclmul() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

// libgcc sets the AVX-512 features only when the OS saves ZMM state.
bool cpu_has_vpclmul() {
  return cpu_has_pclmul() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("vpclmulqdq");
}

#else  // non-x86: the table loop is the only kernel.

std::uint32_t crc32_pclmul(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed) {
  return crc32_table(p, n, seed);
}
std::uint32_t crc32_vpclmul(const std::uint8_t* p, std::size_t n,
                            std::uint32_t seed) {
  return crc32_table(p, n, seed);
}
bool cpu_has_pclmul() { return false; }
bool cpu_has_vpclmul() { return false; }

#endif

Crc32Kernel crc32_kernel() {
  static const Crc32Kernel kernel = cpu_has_vpclmul() ? crc32_vpclmul
                                    : cpu_has_pclmul() ? crc32_pclmul
                                                       : crc32_table;
  return kernel;
}

}  // namespace internal

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return internal::crc32_kernel()(data.data(), data.size(), seed);
}

namespace {

// GF(2) polynomial product a*b mod P in the reflected representation
// (bit 31 is x^0), as in zlib's multmodp.
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m; m >>= 1) {
    if (a & m) p ^= b;
    b = (b & 1) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return p;
}

// x2n[k] = x^(2^k) mod P.  x^(2^32) = x mod P, so the powers repeat with
// period 32.
const std::array<std::uint32_t, 32>& x2n_table() {
  static const auto t = [] {
    std::array<std::uint32_t, 32> out{};
    std::uint32_t p = 1u << 30;  // x^1
    for (auto& e : out) {
      e = p;
      p = multmodp(p, p);
    }
    return out;
  }();
  return t;
}

}  // namespace

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::size_t len2) {
  // crc1 shifted past len2 zero bytes is crc1 * x^(8*len2) mod P.
  std::uint32_t xn = 1u << 31;  // x^0
  for (std::size_t k = 3; len2; len2 >>= 1, ++k)
    if (len2 & 1) xn = multmodp(x2n_table()[k & 31], xn);
  return multmodp(xn, crc1) ^ crc2;
}

}  // namespace carousel::util
