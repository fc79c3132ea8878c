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

// memcpy-based unaligned load, as in gf/vect_simd.cpp: callers' buffers
// carry no alignment contract.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i
load128(const std::uint8_t* p) {
  __m128i v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Carries the 128-bit remainder `x` forward by the distance whose pair of
// reflected x^n mod P constants `k` holds, and adds the 16 bytes found
// there.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i fold(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Raw CRC register `c` advanced over n bytes, n >= 64 and a multiple of 16.
// Constants are the bit-reflected ones from the end of the Gopal et al.
// paper for P = 0x104C11DB7.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_blocks(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // 512
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // 128
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // mu, P'
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four independent lanes cover 64 bytes; the register enters the first.
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

  // Collapse the lanes into one, then fold the remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load128(p));

  // 128 -> 64 bits, then 64 -> 32 via k5.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  __m128i hi = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00), hi);

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

}  // namespace

std::uint32_t crc32_pclmul(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed) {
  std::uint32_t c = ~seed;
  if (n >= 64) {
    std::size_t bulk = n & ~std::size_t{15};
    c = fold_blocks(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
  return ~table_update(c, p, n);
}

bool cpu_has_pclmul() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#else  // non-x86: the table loop is the only kernel.

std::uint32_t crc32_pclmul(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed) {
  return crc32_table(p, n, seed);
}
bool cpu_has_pclmul() { return false; }

#endif

}  // namespace internal

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const bool pclmul = internal::cpu_has_pclmul();
  return pclmul ? internal::crc32_pclmul(data.data(), data.size(), seed)
                : internal::crc32_table(data.data(), data.size(), seed);
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
