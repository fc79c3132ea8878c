// Bulk GF(2^8) region kernels — the hot loops behind every encode, decode
// and repair operation in this repository.
//
// Like ISA-L's gf_vect_* family, these operate on large byte regions with a
// single field coefficient, or one coefficient per (output, source) pair for
// the dot-product forms.  Three backends sit behind every call (gf/backend.h):
// a scalar full-table lookup (the reference the tests compare against), AVX2
// nibble shuffles and GFNI affine transforms, 32 bytes per instruction.
//
// The dot products are fused, as in ISA-L's gf_vect_dot_prod and
// gf_Nvect_dot_prod: every source chunk is loaded once, multiplied into
// register accumulators for up to kMaxDotProdRows outputs, and each output
// is stored once.  That is what an encode pays per parity unit; a loop of
// mul_add_region passes would re-read and re-write the output per source.

#ifndef CAROUSEL_GF_VECT_H
#define CAROUSEL_GF_VECT_H

#include <cstddef>
#include <span>

#include "gf/gf256.h"

namespace carousel::gf {

/// Row of the full multiplication table for a fixed coefficient c:
/// row[b] == mul(c, b) for every byte b.
const Byte* mul_row(Byte c);

/// dst = c * src, elementwise over n bytes.  Regions must not overlap unless
/// dst == src.
void mul_region(Byte c, const Byte* src, Byte* dst, std::size_t n);

/// dst ^= c * src (multiply-accumulate), elementwise over n bytes.
/// Regions must not overlap.
void mul_add_region(Byte c, const Byte* src, Byte* dst, std::size_t n);

/// dst ^= src, elementwise over n bytes (the coefficient-1 fast path).
void xor_region(const Byte* src, Byte* dst, std::size_t n);

/// Zero-fill helper kept next to the kernels for symmetry.
void zero_region(Byte* dst, std::size_t n);

/// Outputs one dot_prod_regions kernel call computes per load of a source
/// chunk; longer output lists are processed in groups of this size.
inline constexpr std::size_t kMaxDotProdRows = 4;

/// dst = sum_i coeffs[i] * srcs[i] over n bytes — the gf_vect_dot_prod
/// analogue.  coeffs.size() must equal srcs.size() (std::invalid_argument
/// otherwise).  Every coefficient costs one multiply, zero included: a
/// caller that wants to skip zeros passes only the nonzero support.  dst
/// must not overlap a source.
void dot_prod_region(std::span<const Byte> coeffs,
                     std::span<const Byte* const> srcs, Byte* dst,
                     std::size_t n);

/// dsts[r] = sum_i coeffs[r * srcs.size() + i] * srcs[i] over n bytes for
/// every output r — the gf_Nvect_dot_prod analogue.  coeffs is row-major,
/// dsts.size() x srcs.size() (std::invalid_argument otherwise).  No
/// destination may overlap a source or another destination.
void dot_prod_regions(std::span<const Byte> coeffs,
                      std::span<const Byte* const> srcs,
                      std::span<Byte* const> dsts, std::size_t n);

}  // namespace carousel::gf

#endif  // CAROUSEL_GF_VECT_H
