#include "codes/carousel.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "matrix/echelon.h"
#include "obs/trace.h"

namespace carousel::codes {

using matrix::EchelonBasis;

struct Carousel::Construction {
  CodeParams params;
  std::size_t s = 0;
  Matrix generator;
  std::size_t K = 0;
  std::size_t P = 0;
  bool paper_selection = true;
  std::vector<std::vector<std::size_t>> selection;
  std::vector<std::vector<std::size_t>> store_pos;
  std::unique_ptr<ProductMatrixMSR> msr_base;
};

Carousel::Carousel(Construction c)
    : LinearCode(c.params, c.s, std::move(c.generator)),
      K_(c.K),
      P_(c.P),
      paper_selection_(c.paper_selection),
      selection_(std::move(c.selection)),
      store_pos_(std::move(c.store_pos)),
      msr_base_(std::move(c.msr_base)) {}

Carousel::Carousel(std::size_t n, std::size_t k, std::size_t d, std::size_t p)
    : Carousel([&] {
        Construction c;
        c.params = CodeParams{n, k, d, p};
        c.params.validate();
        const std::size_t alpha = c.params.alpha();

        // Step 1: base code generator.
        Matrix base_g;
        if (d == k) {
          base_g = matrix::cauchy_systematic(n, k);
        } else {
          c.msr_base = std::make_unique<ProductMatrixMSR>(n, k, d);
          base_g = c.msr_base->generator();
        }

        // Step 2: expansion.  K/P = irreducible alpha*k/p.
        auto [K, P] = reduce_fraction(alpha * k, p);
        c.K = K;
        c.P = P;
        c.s = alpha * P;
        Matrix g_hat = base_g.kron_identity(P);

        // Step 3: unit selection over the first p blocks.
        // Paper pattern: unit j of block i selected iff (j-i) mod N0 < K0.
        auto [K0, N0] = reduce_fraction(k, p);
        const std::size_t s = c.s;
        const std::size_t base_cols = base_g.cols();  // k * alpha
        std::vector<std::vector<std::size_t>> selection(p);
        std::vector<EchelonBasis> classes(P, EchelonBasis(base_cols));
        std::vector<std::size_t> quota(p, 0);
        // Base-generator row backing unit j of block i (its u-class row).
        auto base_row = [&](std::size_t i, std::size_t j) {
          return base_g.row(i * alpha + j / P);
        };
        auto try_take = [&](std::size_t i, std::size_t j) {
          if (quota[i] == K) return false;
          std::size_t u = j % P;
          if (classes[u].size() == base_cols) return false;
          if (!classes[u].try_insert(base_row(i, j))) return false;
          selection[i].push_back(j);
          ++quota[i];
          return true;
        };

        bool paper_ok = true;
        for (std::size_t i = 0; i < p; ++i)
          for (std::size_t j = 0; j < s; ++j) {
            if ((j + N0 - i % N0) % N0 >= K0) continue;
            paper_ok = try_take(i, j) && paper_ok;
          }
        if (!paper_ok) {
          // Greedy completion in round-robin preference order.
          for (std::size_t off = 0; off < s; ++off)
            for (std::size_t i = 0; i < p; ++i) {
              std::size_t j = (i + off) % s;
              if (std::find(selection[i].begin(), selection[i].end(), j) ==
                  selection[i].end())
                try_take(i, j);
            }
        }
        c.paper_selection = paper_ok;
        std::size_t taken = 0;
        for (std::size_t i = 0; i < p; ++i) {
          std::sort(selection[i].begin(), selection[i].end());
          taken += selection[i].size();
        }
        if (taken != k * s)
          throw std::runtime_error(
              "Carousel selection could not reach full rank for " +
              c.params.to_string());

        // Step 4: symbol remapping G := Ĝ Ĝ₀⁻¹, with Ĝ₀ rows ordered
        // slot-major so message unit i*K + t lands in block i's t-th
        // selected unit.
        std::vector<std::size_t> g0_rows;
        g0_rows.reserve(k * s);
        for (std::size_t i = 0; i < p; ++i)
          for (std::size_t j : selection[i]) g0_rows.push_back(i * s + j);
        auto g0_inv = g_hat.select_rows(g0_rows).inverse();
        if (!g0_inv)
          throw std::logic_error(
              "Carousel: selection passed rank checks but Ĝ₀ is singular");
        Matrix g_c = g_hat.mul(*g0_inv);

        // Step 5: reordering — selected units to the head of each block.
        std::vector<std::vector<std::size_t>> store_pos(
            n, std::vector<std::size_t>(s));
        for (std::size_t i = 0; i < n; ++i) {
          if (i >= p) {
            std::iota(store_pos[i].begin(), store_pos[i].end(), 0);
            continue;
          }
          std::vector<bool> sel(s, false);
          for (std::size_t j : selection[i]) sel[j] = true;
          std::size_t next_data = 0, next_parity = selection[i].size();
          for (std::size_t j = 0; j < s; ++j)
            store_pos[i][j] = sel[j] ? next_data++ : next_parity++;
        }
        Matrix g_final(n * s, k * s);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < s; ++j) {
            auto src = g_c.row(i * s + j);
            auto dst = g_final.row(i * s + store_pos[i][j]);
            std::copy(src.begin(), src.end(), dst.begin());
          }

        // Invariant: block i (< p) holds message units [i*K, (i+1)*K) at its
        // head, verbatim.
        for (std::size_t i = 0; i < p; ++i)
          for (std::size_t t = 0; t < K; ++t) {
            auto row = g_final.row(i * s + t);
            for (std::size_t cidx = 0; cidx < row.size(); ++cidx)
              if (row[cidx] != (cidx == i * K + t ? 1 : 0))
                throw std::logic_error(
                    "Carousel: systematic layout invariant violated");
          }

        c.generator = std::move(g_final);
        c.selection = std::move(selection);
        c.store_pos = std::move(store_pos);
        return c;
      }()) {}

std::pair<std::size_t, std::size_t> Carousel::message_slice(
    std::size_t block) const {
  if (block >= p()) return {0, 0};
  return {block * K_, (block + 1) * K_};
}

std::size_t Carousel::data_extent_bytes(std::size_t block,
                                        std::size_t block_bytes) const {
  if (block >= p()) return 0;
  return block_bytes / s() * K_;
}

void Carousel::gather_data(
    std::span<const std::span<const Byte>> first_p_blocks,
    std::span<Byte> data_out) const {
  if (first_p_blocks.size() != p())
    throw std::invalid_argument("gather_data needs the first p blocks");
  const std::size_t block_bytes = first_p_blocks.front().size();
  const std::size_t ub = block_bytes / s();
  if (data_out.size() != message_units() * ub)
    throw std::invalid_argument("output buffer has wrong size");
  for (std::size_t i = 0; i < p(); ++i) {
    if (first_p_blocks[i].size() != block_bytes)
      throw std::invalid_argument("blocks must share one size");
    std::memcpy(data_out.data() + i * K_ * ub, first_p_blocks[i].data(),
                K_ * ub);
  }
}

IoStats Carousel::decode_parallel(
    std::span<const std::size_t> ids,
    std::span<const std::span<const Byte>> blocks,
    std::span<Byte> data_out) const {
  if (ids.size() != p() || blocks.size() != p())
    throw std::invalid_argument("decode_parallel needs exactly p blocks");
  const std::size_t block_bytes = blocks.front().size();
  const std::size_t ub = block_bytes / s();

  std::vector<bool> slot_present(p(), false);
  std::vector<std::size_t> replacements;  // indices into ids/blocks
  std::vector<std::size_t> slot_block(p(), 0);
  std::vector<bool> seen(n(), false);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::size_t id = ids[i];
    if (id >= n() || seen[id])
      throw std::invalid_argument("ids must be distinct blocks");
    seen[id] = true;
    if (blocks[i].size() != block_bytes)
      throw std::invalid_argument("blocks must share one size");
    if (id < p()) {
      slot_present[id] = true;
      slot_block[id] = i;
    } else {
      replacements.push_back(i);
    }
  }

  std::vector<UnitRef> units;
  units.reserve(message_units());
  std::size_t next_replacement = 0;
  for (std::size_t slot = 0; slot < p(); ++slot) {
    if (slot_present[slot]) {
      // The slot's own data units, at the head of the block.
      std::size_t b = slot_block[slot];
      for (std::size_t t = 0; t < K_; ++t)
        units.push_back({ids[b], t, blocks[b].data() + t * ub});
      continue;
    }
    if (next_replacement == replacements.size())
      throw std::invalid_argument(
          "decode_parallel: not enough parity blocks to stand in for missing "
          "data blocks; use decode()");
    std::size_t b = replacements[next_replacement++];
    // The standing-in block contributes the missing slot's selection
    // pattern (paper §VII).
    for (std::size_t j : selection_[slot]) {
      std::size_t pos = store_pos(ids[b], j);
      units.push_back({ids[b], pos, blocks[b].data() + pos * ub});
    }
  }
  return decode_units(units, ub, data_out);
}

std::span<const std::size_t> Carousel::selection_pattern(
    std::size_t slot) const {
  if (slot >= p()) throw std::invalid_argument("slot out of range");
  return selection_[slot];
}

std::vector<std::vector<std::pair<std::size_t, Byte>>>
Carousel::repair_projection(std::size_t helper, std::size_t failed) const {
  if (helper >= n() || failed >= n() || helper == failed)
    throw std::invalid_argument("invalid helper/failed pair");
  std::vector<std::vector<std::pair<std::size_t, Byte>>> outputs;
  if (!msr_base_) return outputs;
  auto coeffs = msr_base_->phi(failed);
  outputs.resize(P_);
  for (std::size_t u = 0; u < P_; ++u) {
    outputs[u].reserve(alpha());
    for (std::size_t a = 0; a < alpha(); ++a)
      outputs[u].emplace_back(store_pos(helper, a * P_ + u), coeffs[a]);
  }
  return outputs;
}

void Carousel::helper_compute(std::size_t helper, std::size_t failed,
                              std::span<const Byte> block,
                              std::span<Byte> chunk_out) const {
  if (helper >= n() || failed >= n() || helper == failed)
    throw std::invalid_argument("invalid helper/failed pair");
  if (block.size() % s() != 0)
    throw std::invalid_argument("block size must be a multiple of s");
  const std::size_t ub = block.size() / s();
  if (chunk_out.size() != helper_chunk_units() * ub)
    throw std::invalid_argument("chunk buffer has wrong size");
  if (!msr_base_) {
    // d == k: helpers ship their whole block (RS repair).
    std::memcpy(chunk_out.data(), block.data(), block.size());
    return;
  }
  // One projected unit per expansion coordinate u: the base helper vector
  // phi_failed applied across segments, with this block's reorder permutation
  // folded into the source positions (paper Fig. 4b).
  std::vector<const Byte*> srcs(alpha());
  for (std::size_t u = 0; u < P_; ++u) {
    for (std::size_t a = 0; a < alpha(); ++a)
      srcs[a] = block.data() + store_pos(helper, a * P_ + u) * ub;
    Byte* const dst[] = {chunk_out.data() + u * ub};
    combine_regions(msr_base_->phi(failed), srcs, dst, ub);
  }
}

IoStats Carousel::newcomer_compute(
    std::size_t failed, std::span<const std::size_t> helpers,
    std::span<const std::span<const Byte>> chunks, std::span<Byte> out) const {
  // Everything is checked before the first byte of out is written.
  if (helpers.size() != d() || chunks.size() != d())
    throw std::invalid_argument("repair needs exactly d helper chunks");
  const std::size_t chunk_bytes = chunks.front().size();
  for (auto ch : chunks)
    if (ch.size() != chunk_bytes)
      throw std::invalid_argument("chunks must share one size");
  if (chunk_bytes % helper_chunk_units() != 0)
    throw std::invalid_argument("chunk size must be a multiple of s/alpha");
  const std::size_t ub = chunk_bytes / helper_chunk_units();
  if (out.size() != s() * ub)
    throw std::invalid_argument("output must be one full block");

  IoStats stats;
  stats.bytes_read = chunks.size() * chunk_bytes;
  stats.sources = helpers.size();

  if (!msr_base_) {
    // d == k: chunks are whole blocks; rebuild each unit of the lost block
    // directly from the k matching units (paper §V.C), which keeps the
    // region work at base-RS repair cost.
    std::vector<UnitRef> sources;
    sources.reserve(message_units());
    for (std::size_t j = 0; j < helpers.size(); ++j)
      for (std::size_t t = 0; t < s(); ++t)
        sources.push_back({helpers[j], t, chunks[j].data() + t * ub});
    project_units(sources, ub, failed, out);  // records the repair metrics
    return stats;
  }

  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.repair_seconds);
  const Matrix c = msr_base_->newcomer_combiner(failed, helpers);
  ins.repair_bytes_read->inc(stats.bytes_read);
  // The base repair, once per expansion coordinate u: lost unit (a, u) is
  // one dot product of the d chunks' units u, written at its stored
  // position.
  std::vector<const Byte*> srcs(d());
  std::vector<Byte*> dsts(alpha());
  for (std::size_t u = 0; u < P_; ++u) {
    for (std::size_t j = 0; j < d(); ++j) srcs[j] = chunks[j].data() + u * ub;
    for (std::size_t a = 0; a < alpha(); ++a)
      dsts[a] = out.data() + store_pos(failed, a * P_ + u) * ub;
    combine_regions(c.data(), srcs, dsts, ub);
  }
  return stats;
}

}  // namespace carousel::codes
