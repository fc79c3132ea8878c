#include "codes/mbr.h"

#include <cassert>
#include <stdexcept>

#include "matrix/echelon.h"

namespace carousel::codes {

namespace {

// Packed index of symmetric S entry (i, j), i <= j < k.
std::size_t s_index(std::size_t i, std::size_t j, std::size_t k) {
  assert(i <= j && j < k);
  return i * k - i * (i - 1) / 2 + (j - i);
}

}  // namespace

ProductMatrixMBR::ProductMatrixMBR(std::size_t n, std::size_t k,
                                   std::size_t d)
    : n_(n), k_(k), d_(d), b_(k * d - k * (k - 1) / 2) {
  if (k < 2 || k > d || d >= n || n > 128)
    throw std::invalid_argument("MBR needs 2 <= k <= d < n <= 128");
  std::vector<Byte> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<Byte>(i + 1);
  psi_ = matrix::vandermonde(xs, d);

  // Message-variable column of M[r][c] (SIZE_MAX for the zero quadrant).
  const std::size_t s_vars = k * (k + 1) / 2;
  auto var_of = [&](std::size_t r, std::size_t c) -> std::size_t {
    if (r < k && c < k) return s_index(std::min(r, c), std::max(r, c), k);
    if (r < k && c >= k) return s_vars + r * (d - k) + (c - k);
    if (r >= k && c < k) return s_vars + c * (d - k) + (r - k);
    return static_cast<std::size_t>(-1);
  };

  gen_ = matrix::Matrix(n * d, b_);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t a = 0; a < d; ++a)
      for (std::size_t r = 0; r < d; ++r) {
        std::size_t v = var_of(r, a);
        if (v == static_cast<std::size_t>(-1)) continue;
        gen_.at(i * d + a, v) ^= psi_.at(i, r);
      }
}

void ProductMatrixMBR::encode(std::span<const Byte> data,
                              std::span<const std::span<Byte>> blocks) const {
  if (data.size() % b_ != 0)
    throw std::invalid_argument("data size must be a multiple of B units");
  if (blocks.size() != n_) throw std::invalid_argument("need n output blocks");
  const std::size_t ub = data.size() / b_;
  std::vector<const Byte*> srcs;
  for (std::size_t c = 0; c < b_; ++c) srcs.push_back(data.data() + c * ub);
  std::vector<Byte*> dsts;
  for (auto block : blocks) {
    if (block.size() != alpha() * ub)
      throw std::invalid_argument("block buffer has wrong size");
    for (std::size_t a = 0; a < alpha(); ++a)
      dsts.push_back(block.data() + a * ub);
  }
  // Every stored unit is one generator row applied to the message units;
  // rows of one support share a fused pass.
  combine_regions(gen_.data(), srcs, dsts, ub);
}

IoStats ProductMatrixMBR::decode(std::span<const std::size_t> ids,
                                 std::span<const std::span<const Byte>> blocks,
                                 std::span<Byte> data_out) const {
  if (ids.size() != k_ || blocks.size() != k_)
    throw std::invalid_argument("MBR decode needs exactly k blocks");
  const std::size_t block_bytes = blocks.front().size();
  if (block_bytes % alpha() != 0)
    throw std::invalid_argument("block size must be a multiple of alpha");
  const std::size_t ub = block_bytes / alpha();
  if (data_out.size() != b_ * ub)
    throw std::invalid_argument("output buffer has wrong size");

  // k*alpha available units over-determine the B message units: keep a
  // maximal independent subset, then invert the square system.
  matrix::EchelonBasis basis(b_);
  matrix::Matrix a(b_, b_);
  std::vector<const Byte*> chosen;
  IoStats stats;
  std::vector<bool> seen(n_, false);
  for (std::size_t i = 0; i < ids.size() && chosen.size() < b_; ++i) {
    if (ids[i] >= n_ || seen[ids[i]])
      throw std::invalid_argument("ids must be distinct blocks");
    seen[ids[i]] = true;
    if (blocks[i].size() != block_bytes)
      throw std::invalid_argument("blocks must share one size");
    for (std::size_t t = 0; t < alpha() && chosen.size() < b_; ++t) {
      auto row = gen_.row(ids[i] * alpha() + t);
      if (!basis.try_insert(row)) continue;
      std::copy(row.begin(), row.end(), a.row(chosen.size()).begin());
      chosen.push_back(blocks[i].data() + t * ub);
      stats.bytes_read += ub;
    }
  }
  if (chosen.size() < b_)
    throw std::runtime_error("MBR decode: blocks do not span the message");
  stats.sources = k_;
  auto inv = a.inverse();
  if (!inv) throw std::logic_error("MBR decode: chosen rows singular");
  std::vector<Byte*> dsts;
  for (std::size_t m = 0; m < b_; ++m) dsts.push_back(data_out.data() + m * ub);
  combine_regions(inv->data(), chosen, dsts, ub);
  return stats;
}

void ProductMatrixMBR::helper_compute(std::size_t helper, std::size_t failed,
                                      std::span<const Byte> block,
                                      std::span<Byte> chunk_out) const {
  if (helper >= n_ || failed >= n_ || helper == failed)
    throw std::invalid_argument("invalid helper/failed pair");
  if (block.size() % alpha() != 0)
    throw std::invalid_argument("block size must be a multiple of alpha");
  const std::size_t ub = block.size() / alpha();
  if (chunk_out.size() != ub)
    throw std::invalid_argument("chunk buffer must hold one unit");
  std::vector<const Byte*> srcs(alpha());
  for (std::size_t a = 0; a < alpha(); ++a) srcs[a] = block.data() + a * ub;
  Byte* const dst[] = {chunk_out.data()};
  combine_regions(psi_.row(failed), srcs, dst, ub);
}

IoStats ProductMatrixMBR::newcomer_compute(
    std::size_t failed, std::span<const std::size_t> helpers,
    std::span<const std::span<const Byte>> chunks, std::span<Byte> out) const {
  if (helpers.size() != d_ || chunks.size() != d_)
    throw std::invalid_argument("MBR repair needs exactly d helpers");
  const std::size_t ub = chunks.front().size();
  for (auto ch : chunks)
    if (ch.size() != ub)
      throw std::invalid_argument("chunks must share one size");
  if (out.size() != alpha() * ub)
    throw std::invalid_argument("output must be one full block");
  std::vector<std::size_t> rows;
  std::vector<bool> seen(n_, false);
  for (std::size_t h : helpers) {
    if (h >= n_ || h == failed || seen[h])
      throw std::invalid_argument("helpers must be distinct survivors");
    seen[h] = true;
    rows.push_back(h);
  }
  auto inv = psi_.select_rows(rows).inverse();
  if (!inv) throw std::logic_error("MBR repair system singular");
  // v = M psi_f; by symmetry of M the failed block IS v transposed.
  std::vector<const Byte*> srcs;
  for (auto ch : chunks) srcs.push_back(ch.data());
  std::vector<Byte*> dsts;
  for (std::size_t a = 0; a < alpha(); ++a) dsts.push_back(out.data() + a * ub);
  combine_regions(inv->data(), srcs, dsts, ub);
  IoStats stats;
  stats.bytes_read = d_ * ub;  // exactly one block size: the MBR bound
  stats.sources = d_;
  return stats;
}

}  // namespace carousel::codes
