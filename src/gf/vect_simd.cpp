// SIMD region kernels: AVX2 nibble-shuffle and GFNI affine variants.
//
// Compiled with per-function target attributes so the binary stays runnable
// on machines without these ISAs (dispatch happens in vect.cpp; these
// functions are only called after a cpuid check).

#include "gf/vect_simd_internal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "gf/gf256.h"
#include "gf/vect.h"

namespace carousel::gf::internal {

#if defined(__x86_64__) || defined(__i386__)

namespace {

// memcpy-based vector access: the strict-aliasing- and alignment-clean form
// of an unaligned load/store (gcc and clang fold each call to one vmovdqu at
// -O2).  The kernels below take Byte* regions with no alignment contract, so
// every access goes through these instead of dereferencing a cast pointer.
__attribute__((target("avx2"), always_inline)) inline __m256i loadu256(
    const Byte* p) {
  __m256i v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

__attribute__((target("avx2"), always_inline)) inline void storeu256(
    Byte* p, __m256i v) {
  std::memcpy(p, &v, sizeof v);
}

__attribute__((target("avx2"), always_inline)) inline __m128i load128(
    const Byte* p) {
  __m128i v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Nibble product tables for PSHUFB: lo[i] = c*i, hi[i] = c*(i<<4).
struct NibbleTables {
  alignas(16) Byte lo[16];
  alignas(16) Byte hi[16];
};

// 8x8 GF(2) bit matrix of "multiply by c" for GF2P8AFFINEQB with the field
// polynomial 0x11D: qword byte (7-r) holds output-bit row r, whose bit j is
// bit r of c * x^j.  (Packing verified exhaustively in gf_simd_test.)
std::uint64_t affine_matrix(Byte c) {
  std::uint64_t m = 0;
  for (int r = 0; r < 8; ++r) {
    Byte row = 0;
    for (int j = 0; j < 8; ++j)
      if (mul(c, static_cast<Byte>(1u << j)) & (1u << r))
        row |= static_cast<Byte>(1u << j);
    m |= static_cast<std::uint64_t>(row) << (8 * (7 - r));
  }
  return m;
}

// Both per-coefficient forms for all 256 coefficients, built once (10 KiB),
// so a kernel call looks its coefficients up instead of deriving them.
struct CoeffTables {
  NibbleTables nibbles[256];
  std::uint64_t affine[256];

  CoeffTables() {
    for (unsigned c = 0; c < 256; ++c) {
      const Byte* row = mul_row(static_cast<Byte>(c));
      for (int i = 0; i < 16; ++i) {
        nibbles[c].lo[i] = row[i];
        nibbles[c].hi[i] = row[i << 4];
      }
      affine[c] = affine_matrix(static_cast<Byte>(c));
    }
  }
};

const CoeffTables& coeff_tables() {
  static const CoeffTables tables;
  return tables;
}

// Scalar finish of a dot product over the bytes [begin, end) that the
// vector loop left over.
void dot_prod_tail(const Byte* coeffs, std::size_t rows,
                   const Byte* const* srcs, std::size_t nsrc,
                   Byte* const* dsts, std::size_t begin, std::size_t end) {
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t i = begin; i < end; ++i) {
      Byte acc = 0;
      for (std::size_t s = 0; s < nsrc; ++s)
        acc ^= mul_row(coeffs[r * nsrc + s])[srcs[s][i]];
      dsts[r][i] = acc;
    }
}

// acc0 ^= c * x0, acc1 ^= c * x1 for two 32-byte vectors, given c's nibble
// tables and the inputs split into low (l) and high (h) nibbles.
__attribute__((target("avx2"), always_inline)) inline void nibble_step(
    __m256i& acc0, __m256i& acc1, const NibbleTables& t, __m256i x0l,
    __m256i x0h, __m256i x1l, __m256i x1h) {
  const __m256i lo = _mm256_broadcastsi128_si256(load128(t.lo));
  const __m256i hi = _mm256_broadcastsi128_si256(load128(t.hi));
  acc0 = _mm256_xor_si256(
      acc0, _mm256_xor_si256(_mm256_shuffle_epi8(lo, x0l),
                             _mm256_shuffle_epi8(hi, x0h)));
  acc1 = _mm256_xor_si256(
      acc1, _mm256_xor_si256(_mm256_shuffle_epi8(lo, x1l),
                             _mm256_shuffle_epi8(hi, x1h)));
}

// acc0 ^= c * x0, acc1 ^= c * x1, given c's affine matrix.
__attribute__((target("gfni,avx2"), always_inline)) inline void affine_step(
    __m256i& acc0, __m256i& acc1, std::uint64_t matrix, __m256i x0,
    __m256i x1) {
  const __m256i a = _mm256_set1_epi64x(static_cast<long long>(matrix));
  acc0 = _mm256_xor_si256(acc0, _mm256_gf2p8affine_epi64_epi8(x0, a, 0));
  acc1 = _mm256_xor_si256(acc1, _mm256_gf2p8affine_epi64_epi8(x1, a, 0));
}

// The fused kernels, over the first `end` bytes, a multiple of 64: per chunk,
// every source is loaded once and multiplied into two register accumulators
// per output, and each output is stored once, instead of one
// read-modify-write pass over the output per source.  The outputs are a
// parameter pack (Rs = 0..R-1), so the per-output steps unroll at compile
// time and the accumulators stay in registers.  `prep` holds each
// coefficient's precomputed form, row-major like the coefficients.
template <std::size_t... Rs>
__attribute__((target("avx2"))) void dot_prod_avx2_rows(
    std::index_sequence<Rs...>, const NibbleTables* prep,
    const Byte* const* srcs, std::size_t nsrc, Byte* const* dsts,
    std::size_t end) {
  const __m256i mask = _mm256_set1_epi8(0x0F);
  for (std::size_t i = 0; i < end; i += 64) {
    __m256i acc0[] = {(static_cast<void>(Rs), _mm256_setzero_si256())...};
    __m256i acc1[] = {(static_cast<void>(Rs), _mm256_setzero_si256())...};
    for (std::size_t s = 0; s < nsrc; ++s) {
      const __m256i x0 = loadu256(srcs[s] + i);
      const __m256i x1 = loadu256(srcs[s] + i + 32);
      const __m256i x0l = _mm256_and_si256(x0, mask);
      const __m256i x0h = _mm256_and_si256(_mm256_srli_epi64(x0, 4), mask);
      const __m256i x1l = _mm256_and_si256(x1, mask);
      const __m256i x1h = _mm256_and_si256(_mm256_srli_epi64(x1, 4), mask);
      (nibble_step(acc0[Rs], acc1[Rs], prep[Rs * nsrc + s], x0l, x0h, x1l,
                   x1h),
       ...);
    }
    (storeu256(dsts[Rs] + i, acc0[Rs]), ...);
    (storeu256(dsts[Rs] + i + 32, acc1[Rs]), ...);
  }
}

template <std::size_t... Rs>
__attribute__((target("gfni,avx2"))) void dot_prod_gfni_rows(
    std::index_sequence<Rs...>, const std::uint64_t* prep,
    const Byte* const* srcs, std::size_t nsrc, Byte* const* dsts,
    std::size_t end) {
  for (std::size_t i = 0; i < end; i += 64) {
    __m256i acc0[] = {(static_cast<void>(Rs), _mm256_setzero_si256())...};
    __m256i acc1[] = {(static_cast<void>(Rs), _mm256_setzero_si256())...};
    for (std::size_t s = 0; s < nsrc; ++s) {
      const __m256i x0 = loadu256(srcs[s] + i);
      const __m256i x1 = loadu256(srcs[s] + i + 32);
      (affine_step(acc0[Rs], acc1[Rs], prep[Rs * nsrc + s], x0, x1), ...);
    }
    (storeu256(dsts[Rs] + i, acc0[Rs]), ...);
    (storeu256(dsts[Rs] + i + 32, acc1[Rs]), ...);
  }
}

// Drives one backend's row kernel over a whole dot product: the outputs in
// groups of up to kMaxDotProdRows, each group one pass over the sources.
template <typename Prep, typename RowKernel>
void dot_prod_driver(const Prep* prep, const Byte* coeffs, std::size_t rows,
                     const Byte* const* srcs, std::size_t nsrc,
                     Byte* const* dsts, std::size_t n, RowKernel kernel) {
  const std::size_t vec_end = n / 64 * 64;
  for (std::size_t r = 0; r < rows; r += kMaxDotProdRows) {
    const std::size_t group = std::min(kMaxDotProdRows, rows - r);
    const auto run = [&](auto outputs) {
      kernel(outputs, prep + r * nsrc, srcs, nsrc, dsts + r, vec_end);
    };
    switch (group) {
      case 1: run(std::make_index_sequence<1>()); break;
      case 2: run(std::make_index_sequence<2>()); break;
      case 3: run(std::make_index_sequence<3>()); break;
      default: run(std::make_index_sequence<4>()); break;
    }
    dot_prod_tail(coeffs + r * nsrc, group, srcs, nsrc, dsts + r, vec_end, n);
  }
}

}  // namespace

__attribute__((target("avx2")))
void mul_region_avx2(Byte c, const Byte* src, Byte* dst, std::size_t n,
                     bool accumulate) {
  const NibbleTables& t = coeff_tables().nibbles[c];
  const __m256i lo = _mm256_broadcastsi128_si256(load128(t.lo));
  const __m256i hi = _mm256_broadcastsi128_si256(load128(t.hi));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i x = loadu256(src + i);
    __m256i lo_prod = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask));
    __m256i hi_prod = _mm256_shuffle_epi8(
        hi, _mm256_and_si256(_mm256_srli_epi64(x, 4), mask));
    __m256i prod = _mm256_xor_si256(lo_prod, hi_prod);
    if (accumulate) prod = _mm256_xor_si256(prod, loadu256(dst + i));
    storeu256(dst + i, prod);
  }
  const Byte* row = mul_row(c);
  for (; i < n; ++i)
    dst[i] = static_cast<Byte>(row[src[i]] ^ (accumulate ? dst[i] : 0));
}

__attribute__((target("gfni,avx2")))
void mul_region_gfni(Byte c, const Byte* src, Byte* dst, std::size_t n,
                     bool accumulate) {
  const __m256i a = _mm256_set1_epi64x(
      static_cast<long long>(coeff_tables().affine[c]));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i prod = _mm256_gf2p8affine_epi64_epi8(loadu256(src + i), a, 0);
    if (accumulate) prod = _mm256_xor_si256(prod, loadu256(dst + i));
    storeu256(dst + i, prod);
  }
  const Byte* row = mul_row(c);
  for (; i < n; ++i)
    dst[i] = static_cast<Byte>(row[src[i]] ^ (accumulate ? dst[i] : 0));
}

void dot_prod_avx2(const Byte* coeffs, std::size_t rows,
                   const Byte* const* srcs, std::size_t nsrc,
                   Byte* const* dsts, std::size_t n) {
  std::vector<NibbleTables> prep(rows * nsrc);
  for (std::size_t j = 0; j < prep.size(); ++j)
    prep[j] = coeff_tables().nibbles[coeffs[j]];
  dot_prod_driver(prep.data(), coeffs, rows, srcs, nsrc, dsts, n,
                  [](auto... args) { dot_prod_avx2_rows(args...); });
}

void dot_prod_gfni(const Byte* coeffs, std::size_t rows,
                   const Byte* const* srcs, std::size_t nsrc,
                   Byte* const* dsts, std::size_t n) {
  std::vector<std::uint64_t> prep(rows * nsrc);
  for (std::size_t j = 0; j < prep.size(); ++j)
    prep[j] = coeff_tables().affine[coeffs[j]];
  dot_prod_driver(prep.data(), coeffs, rows, srcs, nsrc, dsts, n,
                  [](auto... args) { dot_prod_gfni_rows(args...); });
}

__attribute__((target("avx2")))
void xor_region_avx2(const Byte* src, Byte* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    storeu256(dst + i, _mm256_xor_si256(loadu256(src + i), loadu256(dst + i)));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }
bool cpu_has_gfni() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("gfni");
}

#else  // non-x86: the scalar backend is the only one.

void mul_region_avx2(Byte, const Byte*, Byte*, std::size_t, bool) {}
void mul_region_gfni(Byte, const Byte*, Byte*, std::size_t, bool) {}
void dot_prod_avx2(const Byte*, std::size_t, const Byte* const*, std::size_t,
                   Byte* const*, std::size_t) {}
void dot_prod_gfni(const Byte*, std::size_t, const Byte* const*, std::size_t,
                   Byte* const*, std::size_t) {}
void xor_region_avx2(const Byte* src, Byte* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}
bool cpu_has_avx2() { return false; }
bool cpu_has_gfni() { return false; }

#endif

}  // namespace carousel::gf::internal
