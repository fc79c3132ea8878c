// Systematic (n, k, d) minimum-storage regenerating codes via the
// product-matrix construction of Rashmi, Shah and Kumar (IEEE-IT 2011),
// reference [19] of the paper — the same construction the paper's prototype
// uses (§VIII-A, footnote 2).
//
// Construction summary (d = 2k-2 base case):
//   alpha = d - k + 1 = k - 1 segments per block;
//   message matrix M = [S1; S2] with S1, S2 symmetric alpha x alpha;
//   node i holds psi_i^T M, where psi_i = [phi_i, lambda_i * phi_i] is a
//   Vandermonde row [1, x_i, ..., x_i^{2*alpha-1}], lambda_i = x_i^alpha.
// The x_i are chosen greedily so the lambda_i stay pairwise distinct (the
// unit group of GF(256) has order 255, so alpha-th powers can collide).
//
// d > 2k-2 is obtained by shortening: build an (n+i, k+i, d+i) base code
// with i = d - 2k + 2, pin the data of systematic nodes k..k+i-1 to zero and
// drop those nodes.  The dropped nodes store identically zero, so they serve
// as free virtual helpers/decoders, preserving the MDS property and the
// optimal repair traffic d/(d-k+1) block sizes from d real helpers.
//
// Repair protocol (paper §IV, Fig. 8's "helpers" and "newcomer"):
//   helper j sends one segment: mu_j = (its alpha segments) . phi_f;
//   the newcomer solves Psi_rep [S1 phi_f; S2 phi_f] = mu and re-assembles
//   content_f[a] = (S1 phi_f)[a] + lambda_f (S2 phi_f)[a] -- both stages
//   linear in mu, so each rebuilt segment is one dot product of the chunks.

#ifndef CAROUSEL_CODES_MSR_H
#define CAROUSEL_CODES_MSR_H

#include <vector>

#include "codes/linear_code.h"

namespace carousel::codes {

class ProductMatrixMSR : public LinearCode {
 public:
  /// Requires d >= max(k+1, 2k-2) (see CodeParams::validate) and k >= 2.
  ProductMatrixMSR(std::size_t n, std::size_t k, std::size_t d);

  const char* kind() const override { return "msr"; }

  std::size_t alpha() const { return params().alpha(); }
  std::size_t d() const { return params().d; }

  /// Bytes each helper ships per block byte-width w: w / alpha.
  /// (One segment out of its alpha.)
  std::size_t helper_chunk_units() const { return 1; }

  /// Helper-side repair computation: project this helper's block onto
  /// phi_failed.  block is s()=alpha units; chunk_out is one unit.
  void helper_compute(std::size_t helper, std::size_t failed,
                      std::span<const Byte> block,
                      std::span<Byte> chunk_out) const;

  /// Newcomer-side repair: combine d helper chunks (parallel arrays) into the
  /// failed block.  Chunks are one unit each; out is a full block.
  IoStats newcomer_compute(std::size_t failed,
                           std::span<const std::size_t> helpers,
                           std::span<const std::span<const Byte>> chunks,
                           std::span<Byte> out) const;

  /// phi row (alpha coefficients) of a node, exposed for Carousel's expanded
  /// repair vectors (paper §VI-A).
  std::span<const Byte> phi(std::size_t node) const;
  Byte lambda(std::size_t node) const;

  /// Inverse of the repair system for (failed, helpers): a 2*alpha x d matrix
  /// W with [S1 phi_f; S2 phi_f] = W * chunks (virtual zero helpers from
  /// shortening already folded in).  Exposed for Carousel.
  Matrix repair_combiner(std::size_t failed,
                         std::span<const std::size_t> helpers) const;

  /// The newcomer's two stages folded into one alpha x d matrix: row a is
  /// W_a + lambda_f * W_{alpha+a} (W = repair_combiner), so unit a of the
  /// failed block is one dot product of the d chunks.  Exposed for Carousel.
  Matrix newcomer_combiner(std::size_t failed,
                           std::span<const std::size_t> helpers) const;

 private:
  // Base (unshortened) code geometry.
  std::size_t shortened_ = 0;                 // i = d - 2k + 2
  std::size_t base_n_ = 0;                    // n + i
  std::vector<Byte> xs_;                      // evaluation points, base_n_
  Matrix psi_;                                // base_n_ x 2*alpha
  std::vector<Byte> lambda_;                  // base_n_

  std::size_t base_index(std::size_t node) const {
    return node < params().k ? node : node + shortened_;
  }

  struct Construction;  // helper used by the constructor
  explicit ProductMatrixMSR(Construction c);
};

}  // namespace carousel::codes

#endif  // CAROUSEL_CODES_MSR_H
