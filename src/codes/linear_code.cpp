#include "codes/linear_code.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>

#include "gf/vect.h"
#include "matrix/echelon.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carousel::codes {

void combine_regions(std::span<const Byte> coeffs,
                     std::span<const Byte* const> srcs,
                     std::span<Byte* const> dsts, std::size_t n) {
  const std::size_t nsrc = srcs.size();
  if (coeffs.size() != dsts.size() * nsrc)
    throw std::invalid_argument(
        "combine_regions: need one coefficient per (output, source)");
  // Nonzero support -> the rows that share it.
  std::map<std::vector<std::size_t>, std::vector<std::size_t>> groups;
  for (std::size_t r = 0; r < dsts.size(); ++r) {
    std::vector<std::size_t> support;
    for (std::size_t i = 0; i < nsrc; ++i)
      if (coeffs[r * nsrc + i] != 0) support.push_back(i);
    groups[std::move(support)].push_back(r);
  }
  std::vector<const Byte*> group_srcs;
  std::vector<Byte*> group_dsts;
  std::vector<Byte> group_coeffs;
  for (const auto& [support, rows] : groups) {
    group_srcs.clear();
    for (std::size_t i : support) group_srcs.push_back(srcs[i]);
    group_dsts.clear();
    group_coeffs.clear();
    for (std::size_t r : rows) {
      group_dsts.push_back(dsts[r]);
      for (std::size_t i : support) group_coeffs.push_back(coeffs[r * nsrc + i]);
    }
    gf::dot_prod_regions(group_coeffs, group_srcs, group_dsts, n);
  }
}

const LinearCode::Instruments& LinearCode::instruments() const {
  std::call_once(instruments_once_, [this] {
    auto& reg = obs::MetricsRegistry::global();
    auto named = [this](const char* base) {
      return obs::labeled(base, "code", kind());
    };
    instruments_.encode_seconds =
        &reg.histogram(named("carousel_codec_encode_seconds"));
    instruments_.decode_seconds =
        &reg.histogram(named("carousel_codec_decode_seconds"));
    instruments_.repair_seconds =
        &reg.histogram(named("carousel_codec_repair_seconds"));
    instruments_.encode_bytes =
        &reg.counter(named("carousel_codec_encode_bytes_total"));
    instruments_.decode_bytes_read =
        &reg.counter(named("carousel_codec_decode_bytes_read_total"));
    instruments_.repair_bytes_read =
        &reg.counter(named("carousel_codec_repair_bytes_read_total"));
  });
  return instruments_;
}

LinearCode::LinearCode(CodeParams params, std::size_t s, Matrix generator)
    : params_(params), s_(s), g_(std::move(generator)) {
  params_.validate();
  if (g_.rows() != params_.n * s_ || g_.cols() != params_.k * s_)
    throw std::invalid_argument("generator shape does not match (n*s, k*s)");
  support_.reserve(g_.rows());
  identity_col_.reserve(g_.rows());
  for (std::size_t r = 0; r < g_.rows(); ++r) {
    support_.push_back(g_.row_support(r));
    bool unit = support_.back().size() == 1 &&
                g_.at(r, support_.back().front()) == 1;
    identity_col_.push_back(unit ? static_cast<std::ptrdiff_t>(
                                       support_.back().front())
                                 : -1);
  }
  std::map<std::vector<std::size_t>, std::size_t> group_of;
  for (std::size_t r = 0; r < g_.rows(); ++r) {
    if (identity_col_[r] >= 0) continue;
    auto [it, fresh] = group_of.try_emplace(support_[r], groups_.size());
    if (fresh) groups_.push_back({support_[r], {}, {}});
    RowGroup& group = groups_[it->second];
    group.rows.push_back(r);
    for (std::size_t c : support_[r]) group.coeffs.push_back(g_.at(r, c));
  }
}

void LinearCode::encode(std::span<const Byte> data,
                        std::span<const std::span<Byte>> blocks) const {
  if (blocks.size() != n()) throw std::invalid_argument("need n output blocks");
  if (data.size() % message_units() != 0)
    throw std::invalid_argument("data size must be a multiple of k*s");
  const std::size_t ub = data.size() / message_units();
  const std::size_t block_bytes = s_ * ub;
  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.encode_seconds);
  for (std::size_t i = 0; i < n(); ++i)
    if (blocks[i].size() != block_bytes)
      throw std::invalid_argument("block buffer has wrong size");
  auto unit_out = [&](std::size_t r) {
    return blocks[r / s_].data() + (r % s_) * ub;
  };
  for (std::size_t r = 0; r < g_.rows(); ++r)
    if (identity_col_[r] >= 0)
      std::memcpy(unit_out(r),
                  data.data() + static_cast<std::size_t>(identity_col_[r]) * ub,
                  ub);
  // The units are walked in slices, each slice through every group: a
  // group reads all its sources once per kMaxDotProdRows outputs, so a slice
  // of the sources small enough for the cache stays there from one batch of
  // outputs, and one group, to the next.
  constexpr std::size_t kSlice = 4096;
  std::vector<const Byte*> srcs;
  std::vector<Byte*> dsts;
  for (std::size_t begin = 0; begin < ub; begin += kSlice) {
    const std::size_t len = std::min(kSlice, ub - begin);
    for (const RowGroup& group : groups_) {
      srcs.clear();
      for (std::size_t c : group.support)
        srcs.push_back(data.data() + c * ub + begin);
      dsts.clear();
      for (std::size_t r : group.rows) dsts.push_back(unit_out(r) + begin);
      gf::dot_prod_regions(group.coeffs, srcs, dsts, len);
    }
  }
  ins.encode_bytes->inc(n() * block_bytes);
}

void LinearCode::encode_block(std::size_t id, std::span<const Byte> data,
                              std::span<Byte> out) const {
  const std::size_t ub = data.size() / message_units();
  assert(out.size() == s_ * ub);
  std::vector<const Byte*> srcs;
  std::vector<Byte> coeffs;
  for (std::size_t t = 0; t < s_; ++t) {
    const std::size_t r = id * s_ + t;
    Byte* dst = out.data() + t * ub;
    if (identity_col_[r] >= 0) {
      std::memcpy(dst, data.data() + static_cast<std::size_t>(identity_col_[r]) * ub,
                  ub);
      continue;
    }
    srcs.clear();
    coeffs.clear();
    for (std::size_t c : support_[r]) {
      srcs.push_back(data.data() + c * ub);
      coeffs.push_back(g_.at(r, c));
    }
    gf::dot_prod_region(coeffs, srcs, dst, ub);
  }
}

void LinearCode::encode_block_dense(std::size_t id,
                                    std::span<const Byte> data,
                                    std::span<Byte> out) const {
  const std::size_t ub = data.size() / message_units();
  assert(out.size() == s_ * ub);
  // Every generator entry, zeros included, pays one multiply in the same
  // fused kernel the sparse path uses, so the comparison isolates exactly
  // the zero-skip optimisation.
  std::vector<const Byte*> srcs(g_.cols());
  for (std::size_t c = 0; c < g_.cols(); ++c) srcs[c] = data.data() + c * ub;
  for (std::size_t t = 0; t < s_; ++t)
    gf::dot_prod_region(unit_row(id, t), srcs, out.data() + t * ub, ub);
}

IoStats LinearCode::decode(std::span<const std::size_t> ids,
                           std::span<const std::span<const Byte>> blocks,
                           std::span<Byte> data_out) const {
  if (ids.size() != k() || blocks.size() != k())
    throw std::invalid_argument("decode needs exactly k blocks");
  const std::size_t block_bytes = blocks.front().size();
  if (block_bytes % s_ != 0)
    throw std::invalid_argument("block size must be a multiple of s");
  const std::size_t ub = block_bytes / s_;
  std::vector<UnitRef> units;
  units.reserve(k() * s_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (blocks[i].size() != block_bytes)
      throw std::invalid_argument("blocks must share one size");
    for (std::size_t t = 0; t < s_; ++t)
      units.push_back({ids[i], t, blocks[i].data() + t * ub});
  }
  return decode_units(units, ub, data_out);
}

IoStats LinearCode::decode_units(std::span<const UnitRef> units,
                                 std::size_t unit_bytes,
                                 std::span<Byte> data_out) const {
  const std::size_t m = message_units();
  if (units.size() != m)
    throw std::invalid_argument("decode_units needs exactly k*s units");
  if (data_out.size() != m * unit_bytes)
    throw std::invalid_argument("output buffer has wrong size");
  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.decode_seconds);

  // Systematic fast path bookkeeping: units that are verbatim message units
  // are copied; only the rest participate in region arithmetic.
  std::vector<bool> have(m, false);
  Matrix a(m, m);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto& u = units[i];
    if (u.block >= n() || u.pos >= s_)
      throw std::invalid_argument("unit reference out of range");
    auto row = unit_row(u.block, u.pos);
    std::copy(row.begin(), row.end(), a.row(i).begin());
  }
  auto inv = a.inverse();
  if (!inv)
    throw std::runtime_error(
        "decode_units: selected units are not jointly decodable (singular "
        "system)");

  IoStats stats;
  stats.bytes_read = units.size() * unit_bytes;
  {
    std::vector<bool> seen(n(), false);
    for (const auto& u : units)
      if (!seen[u.block]) {
        seen[u.block] = true;
        ++stats.sources;
      }
  }
  ins.decode_bytes_read->inc(stats.bytes_read);

  // First copy verbatim message units (identity generator rows) — a unit
  // that already sits at its output position (an in-place decode) is left
  // alone — then solve the rest through the inverse.
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto& u = units[i];
    std::ptrdiff_t col = identity_col_[u.block * s_ + u.pos];
    if (col < 0) continue;
    Byte* dst = data_out.data() + static_cast<std::size_t>(col) * unit_bytes;
    if (u.bytes != dst) std::memcpy(dst, u.bytes, unit_bytes);
    have[static_cast<std::size_t>(col)] = true;
  }
  // The missing units go kMaxDotProdRows at a time through one fused dot
  // product over the union of their rows' nonzero columns, so each source
  // unit is loaded once per group instead of once per (output, source).
  std::vector<std::size_t> missing;
  for (std::size_t msg = 0; msg < m; ++msg)
    if (!have[msg]) missing.push_back(msg);
  std::vector<const Byte*> srcs;
  std::vector<Byte*> dsts;
  std::vector<Byte> coeffs;
  std::vector<bool> used(m);
  for (std::size_t g = 0; g < missing.size(); g += gf::kMaxDotProdRows) {
    const std::size_t rows = std::min(gf::kMaxDotProdRows, missing.size() - g);
    std::fill(used.begin(), used.end(), false);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t i = 0; i < m; ++i)
        if (inv->at(missing[g + r], i) != 0) used[i] = true;
    srcs.clear();
    for (std::size_t i = 0; i < m; ++i)
      if (used[i]) srcs.push_back(units[i].bytes);
    dsts.clear();
    coeffs.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      dsts.push_back(data_out.data() + missing[g + r] * unit_bytes);
      for (std::size_t i = 0; i < m; ++i)
        if (used[i]) coeffs.push_back(inv->at(missing[g + r], i));
    }
    gf::dot_prod_regions(coeffs, srcs, dsts, unit_bytes);
  }
  return stats;
}

IoStats LinearCode::decode_from_available(
    std::span<const std::size_t> ids,
    std::span<const std::span<const Byte>> blocks,
    std::span<Byte> data_out) const {
  if (ids.size() != blocks.size() || ids.size() < k())
    throw std::invalid_argument(
        "decode_from_available needs at least k blocks");
  const std::size_t block_bytes = blocks.front().size();
  if (block_bytes % s_ != 0)
    throw std::invalid_argument("block size must be a multiple of s");
  const std::size_t ub = block_bytes / s_;

  // Pass 1: every verbatim message unit, once, seeds the rank basis with
  // its identity row.
  matrix::EchelonBasis basis(message_units());
  std::vector<UnitRef> units;
  std::vector<UnitRef> parity_pool;
  std::vector<bool> seen(n(), false);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= n() || seen[ids[i]])
      throw std::invalid_argument("ids must be distinct blocks");
    seen[ids[i]] = true;
    if (blocks[i].size() != block_bytes)
      throw std::invalid_argument("blocks must share one size");
    for (std::size_t t = 0; t < s_; ++t) {
      const UnitRef u{ids[i], t, blocks[i].data() + t * ub};
      if (identity_col_[ids[i] * s_ + t] < 0)
        parity_pool.push_back(u);
      else if (basis.try_insert(unit_row(ids[i], t)))
        units.push_back(u);
    }
  }
  // Pass 2: complete the rank with the fewest parity units.
  for (const auto& u : parity_pool) {
    if (basis.full()) break;
    if (basis.try_insert(unit_row(u.block, u.pos))) units.push_back(u);
  }
  if (!basis.full())
    throw std::runtime_error(
        "decode_from_available: blocks do not span the message space");
  // Exactly k*s jointly decodable units: the verbatim ones are copied and
  // each missing unit is one fused combination of the parity units and
  // the known units it depends on.
  IoStats stats = decode_units(units, ub, data_out);
  stats.sources = ids.size();
  return stats;
}

IoStats LinearCode::project_units(std::span<const UnitRef> sources,
                                  std::size_t unit_bytes, std::size_t target,
                                  std::span<Byte> out) const {
  const std::size_t m = message_units();
  if (sources.size() != m)
    throw std::invalid_argument("project_units needs exactly k*s units");
  if (target >= n()) throw std::invalid_argument("target block out of range");
  if (out.size() != s_ * unit_bytes)
    throw std::invalid_argument("output must be one full block");
  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.repair_seconds);

  Matrix a(m, m);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto& u = sources[i];
    if (u.block >= n() || u.pos >= s_)
      throw std::invalid_argument("unit reference out of range");
    if (u.block == target)
      throw std::invalid_argument("target block cannot be its own source");
    auto row = unit_row(u.block, u.pos);
    std::copy(row.begin(), row.end(), a.row(i).begin());
  }
  auto inv = a.inverse();
  if (!inv)
    throw std::runtime_error(
        "project_units: source units are not jointly decodable");

  IoStats stats;
  stats.bytes_read = sources.size() * unit_bytes;
  {
    std::vector<bool> seen(n(), false);
    for (const auto& u : sources)
      if (!seen[u.block]) {
        seen[u.block] = true;
        ++stats.sources;
      }
  }
  ins.repair_bytes_read->inc(stats.bytes_read);
  // Combination rows G_target * inv: the generator rows are sparse
  // (<= k*alpha nonzeros), so this is a sparse product of small matrices,
  // and the rows of one support share a fused pass over the sources.
  std::vector<std::size_t> rows(s_);
  std::iota(rows.begin(), rows.end(), target * s_);
  const Matrix comb = g_.select_rows(rows).mul(*inv);
  std::vector<const Byte*> srcs;
  for (const auto& u : sources) srcs.push_back(u.bytes);
  std::vector<Byte*> dsts;
  for (std::size_t t = 0; t < s_; ++t)
    dsts.push_back(out.data() + t * unit_bytes);
  combine_regions(comb.data(), srcs, dsts, unit_bytes);
  return stats;
}

std::vector<LinearCode::UnitDependency> LinearCode::dependents_of(
    std::size_t message_unit) const {
  if (message_unit >= message_units())
    throw std::invalid_argument("message unit out of range");
  std::vector<UnitDependency> out;
  for (std::size_t r = 0; r < g_.rows(); ++r) {
    Byte c = g_.at(r, message_unit);
    if (c != 0) out.push_back({r / s_, r % s_, c});
  }
  return out;
}

bool LinearCode::unit_is_systematic(std::size_t block, std::size_t pos,
                                    std::size_t* message_unit) const {
  std::ptrdiff_t col = identity_col_[block * s_ + pos];
  if (col < 0) return false;
  if (message_unit) *message_unit = static_cast<std::size_t>(col);
  return true;
}

}  // namespace carousel::codes
