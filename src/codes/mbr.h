// Product-matrix minimum-bandwidth regenerating (MBR) codes — the other
// extreme point of the storage/repair-bandwidth trade-off from Rashmi, Shah
// and Kumar's construction (the paper's reference [19]; see paper §IV for
// the trade-off the MSR point of which Carousel builds on).
//
// An (n, k, d) MBR code stores alpha = d units per block for a message of
// B = k*d - k(k-1)/2 units, i.e. MORE than the MDS minimum per block, but
// repairs a lost block by moving exactly ONE block size (each of d helpers
// ships a single unit).  Construction:
//     M = [ S  T ; T^t 0 ]  (d x d, symmetric),
// S symmetric k x k and T k x (d-k) carrying the message; node i stores
// psi_i^T M with psi_i a Vandermonde row.  Any k blocks decode; repair
// solves Psi_rep (M psi_f) = chunks and uses M's symmetry.
//
// This class is intentionally NOT a LinearCode: MBR codes are not MDS-shaped
// (message != k * alpha units), so it carries its own encode/decode/repair.
// bench_msr_vs_mbr places it on the trade-off curve next to RS and MSR.

#ifndef CAROUSEL_CODES_MBR_H
#define CAROUSEL_CODES_MBR_H

#include <span>

#include "codes/linear_code.h"  // Byte, IoStats
#include "matrix/matrix.h"

namespace carousel::codes {

class ProductMatrixMBR {
 public:
  /// Requires 2 <= k <= d < n <= 128.
  ProductMatrixMBR(std::size_t n, std::size_t k, std::size_t d);

  std::size_t n() const { return n_; }
  std::size_t k() const { return k_; }
  std::size_t d() const { return d_; }
  /// Units per block.
  std::size_t alpha() const { return d_; }
  /// Message units per stripe: B = k*d - k(k-1)/2.
  std::size_t message_units() const { return b_; }
  /// Per-block storage overhead relative to the MDS minimum (B/k units):
  /// alpha / (B/k) > 1.
  double storage_expansion() const {
    return double(alpha()) * double(k_) / double(b_);
  }
  /// Repair traffic in block sizes: exactly 1 (the MBR bound).
  double repair_traffic_blocks() const { return 1.0; }

  /// Encodes B message units (unit size inferred) into n blocks of
  /// alpha units each.
  void encode(std::span<const Byte> data,
              std::span<const std::span<Byte>> blocks) const;

  /// Decodes the message from any k complete blocks.
  IoStats decode(std::span<const std::size_t> ids,
                 std::span<const std::span<const Byte>> blocks,
                 std::span<Byte> data_out) const;

  /// Helper-side repair: one unit, the projection of the helper's block
  /// onto psi_failed.
  void helper_compute(std::size_t helper, std::size_t failed,
                      std::span<const Byte> block,
                      std::span<Byte> chunk_out) const;

  /// Newcomer-side repair from exactly d helper chunks.
  IoStats newcomer_compute(std::size_t failed,
                           std::span<const std::size_t> helpers,
                           std::span<const std::span<const Byte>> chunks,
                           std::span<Byte> out) const;

 private:
  std::size_t n_, k_, d_, b_;
  matrix::Matrix psi_;   // n x d Vandermonde
  matrix::Matrix gen_;   // (n*alpha) x B generator over message units
};

}  // namespace carousel::codes

#endif  // CAROUSEL_CODES_MBR_H
