// Internal interface between the dispatching kernels (vect.cpp) and the
// ISA-specific implementations (vect_simd.cpp).  Not part of the public API.

#ifndef CAROUSEL_GF_VECT_SIMD_INTERNAL_H
#define CAROUSEL_GF_VECT_SIMD_INTERNAL_H

#include <cstddef>

#include "gf/gf256.h"

namespace carousel::gf::internal {

/// dst = c*src (accumulate=false) or dst ^= c*src (accumulate=true).
/// Preconditions handled by the dispatcher: c not in {0, 1}, n > 0.
void mul_region_avx2(Byte c, const Byte* src, Byte* dst, std::size_t n,
                     bool accumulate);
void mul_region_gfni(Byte c, const Byte* src, Byte* dst, std::size_t n,
                     bool accumulate);
void xor_region_avx2(const Byte* src, Byte* dst, std::size_t n);

/// dsts[r] = sum_s coeffs[r*nsrc + s] * srcs[s] over n bytes, r < rows.
/// Preconditions handled by the dispatcher: rows, nsrc and n nonzero; no
/// destination overlaps a source or another destination.
void dot_prod_avx2(const Byte* coeffs, std::size_t rows,
                   const Byte* const* srcs, std::size_t nsrc,
                   Byte* const* dsts, std::size_t n);
void dot_prod_gfni(const Byte* coeffs, std::size_t rows,
                   const Byte* const* srcs, std::size_t nsrc,
                   Byte* const* dsts, std::size_t n);

bool cpu_has_avx2();
bool cpu_has_gfni();

}  // namespace carousel::gf::internal

#endif  // CAROUSEL_GF_VECT_SIMD_INTERNAL_H
