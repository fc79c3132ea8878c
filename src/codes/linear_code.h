// Generator-matrix codec engine.
//
// Every code in this repository — Reed-Solomon, product-matrix MSR and
// Carousel — is a linear code over GF(2^8) described by a generator matrix G
// of size (n*s) x (k*s), where s is the number of symbols ("units") per
// block.  A block of w bytes is s units of w/s bytes each; unit t of block i
// is the byte-wise evaluation of row i*s + t of G against the k*s message
// units.  The paper's prototype works the same way ("all operations ... are
// performed by vector/matrix multiplications on a finite field of size 2^8",
// §VIII-A), including the sparsity-aware encode that skips zero coefficients.

#ifndef CAROUSEL_CODES_LINEAR_CODE_H
#define CAROUSEL_CODES_LINEAR_CODE_H

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

#include "codes/params.h"
#include "gf/gf256.h"
#include "matrix/matrix.h"

namespace carousel::obs {
class Counter;
class Histogram;
}  // namespace carousel::obs

namespace carousel::codes {

using gf::Byte;
using matrix::Matrix;

/// A reference to one stored unit: position `pos` (in [0, s)) of block
/// `block` (in [0, n)), together with the bytes of that unit.
struct UnitRef {
  std::size_t block = 0;
  std::size_t pos = 0;
  const Byte* bytes = nullptr;
};

/// dsts[r] = sum_i coeffs[r * srcs.size() + i] * srcs[i] over n bytes for
/// every output r (coeffs row-major, as in gf::dot_prod_regions), skipping
/// zero coefficients: the rows are grouped by nonzero support and each group
/// is one fused gf::dot_prod_regions call over that support.  A row with no
/// nonzero coefficient zero-fills its output.  No destination may overlap a
/// source or another destination.  Every region combination in src/codes
/// goes through here or through gf::dot_prod_regions directly.
void combine_regions(std::span<const Byte> coeffs,
                     std::span<const Byte* const> srcs,
                     std::span<Byte* const> dsts, std::size_t n);

/// Byte-accounting result of a decode or reconstruction, used by the traffic
/// benchmarks (paper Fig. 7).
struct IoStats {
  std::size_t bytes_read = 0;   ///< bytes fetched from surviving blocks
  std::size_t sources = 0;      ///< blocks contacted
};

class LinearCode {
 public:
  /// Takes ownership of the generator; generator must be (n*s) x (k*s).
  LinearCode(CodeParams params, std::size_t s, Matrix generator);
  virtual ~LinearCode() = default;

  /// Short code-family tag, used as the `code` label on codec metrics
  /// ("rs", "msr", "lrc", "carousel").
  virtual const char* kind() const { return "linear"; }

  const CodeParams& params() const { return params_; }
  std::size_t n() const { return params_.n; }
  std::size_t k() const { return params_.k; }
  /// Units per block (subpacketization).
  std::size_t s() const { return s_; }
  /// Message units per stripe (= k * s).
  std::size_t message_units() const { return params_.k * s_; }

  const Matrix& generator() const { return g_; }

  /// Smallest block size (bytes) this code can operate on; block sizes must
  /// be multiples of it (one byte per unit).
  std::size_t min_block_bytes() const { return s_; }

  /// Encodes a stripe: data holds k*s units back to back (k blocks' worth of
  /// original bytes); each of the n output spans receives one block of
  /// data.size()/k bytes.  Zero coefficients are skipped and identity rows
  /// become copies, so systematic/sparse generators encode at base-code cost;
  /// the other rows run through gf::dot_prod_regions, grouped by support.
  void encode(std::span<const Byte> data,
              std::span<const std::span<Byte>> blocks) const;

  /// Encodes only block `id` (used by reconstruction and by targeted tests).
  void encode_block(std::size_t id, std::span<const Byte> data,
                    std::span<Byte> out) const;

  /// Ablation reference: encodes block `id` walking every generator entry,
  /// including zeros — what encoding would cost WITHOUT the sparsity
  /// optimisation of paper §VIII-A.  Identical output to encode_block; used
  /// by bench_ablation_sparsity, never by production paths.
  void encode_block_dense(std::size_t id, std::span<const Byte> data,
                          std::span<Byte> out) const;

  /// Decodes the original stripe from any k complete blocks.
  /// ids/blocks are parallel arrays of exactly k distinct block ids.
  /// Throws std::invalid_argument on shape errors; std::runtime_error if the
  /// submatrix is singular (never happens for an MDS code with distinct ids).
  IoStats decode(std::span<const std::size_t> ids,
                 std::span<const std::span<const Byte>> blocks,
                 std::span<Byte> data_out) const;

  /// General unit-level decode: given exactly k*s stored units (any mix of
  /// blocks/positions whose generator rows are jointly nonsingular), recovers
  /// the full message.  This is the engine behind Carousel's
  /// read-from-any-p-blocks path (paper §VII).  Verbatim units are copied;
  /// the others are solved through fused dot products (gf::dot_prod_regions,
  /// up to kMaxDotProdRows outputs per call).  Units may point into
  /// data_out: a verbatim unit already at its own output position is not
  /// copied, which makes an in-place decode over gathered extents legal —
  /// as long as no unit aliases a position that must be solved.
  IoStats decode_units(std::span<const UnitRef> units, std::size_t unit_bytes,
                       std::span<Byte> data_out) const;

  /// Best-effort decode from ANY set of at least k distinct blocks (may be
  /// more than k): every verbatim message unit among them is copied, and the
  /// fewest parity units that complete the rank are solved for the rest.
  /// With q > k blocks this computes strictly less than the any-k decode —
  /// the "visit more than k blocks" extension the paper leaves as future
  /// work (§VIII-B).  Throws std::runtime_error if the blocks cannot decode.
  IoStats decode_from_available(std::span<const std::size_t> ids,
                                std::span<const std::span<const Byte>> blocks,
                                std::span<Byte> data_out) const;

  /// Rebuilds every unit of block `target` directly from exactly k*s source
  /// units, without materialising the message: the combination matrix is
  /// G_target * inv(G_sources), which inherits the generator's sparsity.
  /// This is the paper's §V.C repair rule ("the j-th unit ... can be
  /// reconstructed from k of any j'-th units"), at half the region work of
  /// decode-then-re-encode.
  IoStats project_units(std::span<const UnitRef> sources,
                        std::size_t unit_bytes, std::size_t target,
                        std::span<Byte> out) const;

  /// One stored unit affected by a message-unit update, with the generator
  /// coefficient linking them: when message unit m changes by delta, stored
  /// unit (block, pos) changes by coeff * delta.
  struct UnitDependency {
    std::size_t block = 0;
    std::size_t pos = 0;
    Byte coeff = 0;
  };

  /// All stored units whose value depends on message unit m (including its
  /// own systematic unit, coeff 1).  Thanks to generator sparsity this is at
  /// most 1 + (n-k)*alpha-ish entries, which is what makes in-place partial
  /// writes cheap (see storage::ErasureFile::write).
  std::vector<UnitDependency> dependents_of(std::size_t message_unit) const;

  /// True if stored unit (block, pos) is a verbatim message unit; if so,
  /// *message_unit gets its message index.
  bool unit_is_systematic(std::size_t block, std::size_t pos,
                          std::size_t* message_unit = nullptr) const;

  /// Per-row generator density statistics (for the Fig. 5 bench).
  std::size_t generator_nonzeros() const { return g_.nonzeros(); }

 protected:
  /// Row of the generator for unit pos of block id.
  std::span<const Byte> unit_row(std::size_t id, std::size_t pos) const {
    return g_.row(id * s_ + pos);
  }

  /// Global-registry instruments labeled {code=kind()}.  Resolved lazily on
  /// first use — kind() is virtual, so this cannot run in the constructor.
  struct Instruments {
    obs::Histogram* encode_seconds = nullptr;
    obs::Histogram* decode_seconds = nullptr;
    obs::Histogram* repair_seconds = nullptr;
    obs::Counter* encode_bytes = nullptr;
    obs::Counter* decode_bytes_read = nullptr;
    obs::Counter* repair_bytes_read = nullptr;
  };
  const Instruments& instruments() const;

 private:
  CodeParams params_;
  std::size_t s_;
  Matrix g_;
  // Sparse form: per generator row, the nonzero column list; rows that are
  // unit vectors additionally noted for the copy fast path.
  std::vector<std::vector<std::size_t>> support_;
  std::vector<std::ptrdiff_t> identity_col_;  // -1 when not a unit row
  // The non-unit rows grouped by identical support, for encode(): a group's
  // rows go through one multi-output dot product, so each source unit is
  // loaded once per kMaxDotProdRows outputs, and rows with different
  // supports (different Carousel expansion coordinates) never share a call.
  struct RowGroup {
    std::vector<std::size_t> support;  // message-unit columns
    std::vector<std::size_t> rows;     // generator rows
    std::vector<Byte> coeffs;  // rows.size() x support.size(), row-major
  };
  std::vector<RowGroup> groups_;
  mutable std::once_flag instruments_once_;
  mutable Instruments instruments_;
};

}  // namespace carousel::codes

#endif  // CAROUSEL_CODES_LINEAR_CODE_H
