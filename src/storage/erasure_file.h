// File-level encoding on top of Carousel codes: the paper's "tool that
// converts the original data into blocks encoded with Carousel codes" plus
// the FileInputFormat analogue that "knows the boundary between the original
// data and parity data in each block" (§VIII-A).
//
// A file is split into stripes of k * block_bytes original bytes (the last
// stripe zero-padded), each stripe encoded into n blocks.  Because
// Carousel(n, k, k, k) is exactly the systematic RS code, this one type
// covers both the paper's RS baseline and every Carousel configuration.

#ifndef CAROUSEL_STORAGE_ERASURE_FILE_H
#define CAROUSEL_STORAGE_ERASURE_FILE_H

#include <optional>
#include <vector>

#include "codes/carousel.h"

namespace carousel::storage {

using codes::Byte;
using codes::Carousel;
using codes::IoStats;

/// A contiguous range of original-file bytes held verbatim inside a block —
/// what a data-local map task reads.
struct DataExtent {
  std::size_t file_offset = 0;
  std::size_t length = 0;
};

class ErasureFile {
 public:
  /// Encodes `file` with `code` into ceil(size / (k*block_bytes)) stripes of
  /// n blocks each.  block_bytes must be a positive multiple of code.s().
  /// The code must outlive this object.
  ErasureFile(const Carousel& code, std::span<const Byte> file,
              std::size_t block_bytes);

  const Carousel& code() const { return *code_; }
  std::size_t file_bytes() const { return file_bytes_; }
  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t stripes() const { return stripes_; }
  /// Total stored bytes across all stripes and blocks (storage overhead).
  std::size_t stored_bytes() const { return store_.size(); }

  std::span<const Byte> block(std::size_t stripe, std::size_t index) const;

  /// Marks a block unavailable / available again (failure injection).
  void set_block_available(std::size_t stripe, std::size_t index, bool ok);
  bool block_available(std::size_t stripe, std::size_t index) const;
  /// Fails block `index` of every stripe (a node loss in the paper's
  /// one-block-per-server placement).
  void fail_block_index(std::size_t index);

  /// Original-data extent of a block (empty when the block is pure parity).
  DataExtent data_extent(std::size_t stripe, std::size_t index) const;

  /// Reads the whole file back, choosing per stripe the cheapest available
  /// path: gather from the first p blocks, decode_parallel with parity
  /// stand-ins, or the any-k MDS decode.  Throws std::runtime_error when a
  /// stripe has fewer than k available blocks.
  std::vector<Byte> read_all(IoStats* stats = nullptr) const;

  /// In-place partial overwrite of the file: updates the affected data
  /// units and, via the generator coefficients, every dependent parity unit
  /// (delta encoding — no re-encode of the stripe).  The byte range must lie
  /// within the file, and every block of the affected stripes must be
  /// available (updating around failures would leave silent staleness).
  /// Returns the number of stored units touched.
  std::size_t write(std::size_t offset, std::span<const Byte> bytes);

  /// Rebuilds an unavailable block of one stripe from d helpers (or k when
  /// d == k), restoring its availability.  Returns the repair traffic.
  IoStats repair_block(std::size_t stripe, std::size_t index);

  /// Verifies every available block against a fresh encode (integrity
  /// check used by tests and the failure-injection example).
  bool verify() const;

  /// Result of a scrub pass.
  struct ScrubReport {
    std::size_t blocks_checked = 0;
    std::size_t corrupt_found = 0;
    std::size_t repaired = 0;
  };

  /// Background-scrubber pass: recomputes every available block's CRC-32
  /// against the checksum recorded at encode/repair/write time.  Blocks that
  /// fail are marked unavailable (a corrupt block is worse than a missing
  /// one) and, when `repair` is set, rebuilt from the survivors — silent
  /// bit-rot turns back into clean redundancy.
  ScrubReport scrub(bool repair = true);

 private:
  std::span<Byte> block_mut(std::size_t stripe, std::size_t index);
  IoStats read_stripe(std::size_t s, std::span<Byte> dst) const;
  std::size_t slot(std::size_t stripe, std::size_t index) const {
    return stripe * code_->n() + index;
  }

  const Carousel* code_;
  std::size_t file_bytes_ = 0;
  std::size_t block_bytes_ = 0;
  std::size_t stripes_ = 0;
  void record_checksum(std::size_t stripe, std::size_t index);

  std::vector<Byte> store_;        // stripes * n * block_bytes
  std::vector<bool> available_;    // per block
  std::vector<std::uint32_t> checksum_;  // per block, CRC-32
  std::vector<Byte> padded_file_;  // original data, zero-padded per stripe
};

}  // namespace carousel::storage

#endif  // CAROUSEL_STORAGE_ERASURE_FILE_H
