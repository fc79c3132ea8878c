#include "codes/lrc.h"

#include <stdexcept>

#include "gf/vect.h"
#include "matrix/echelon.h"

namespace carousel::codes {

namespace {

Matrix lrc_generator(std::size_t k, std::size_t groups, std::size_t global) {
  if (groups == 0 || k % groups != 0)
    throw std::invalid_argument("LRC: k must be divisible by the group count");
  if (global == 0)
    throw std::invalid_argument("LRC: need at least one global parity");
  const std::size_t n = k + groups + global;
  if (n > 128) throw std::invalid_argument("LRC: n exceeds design range");
  const std::size_t gs = k / groups;
  Matrix g(n, k);
  for (std::size_t i = 0; i < k; ++i) g.at(i, i) = 1;
  // Local parities: XOR of each group (row of ones over the group columns).
  for (std::size_t l = 0; l < groups; ++l)
    for (std::size_t j = 0; j < gs; ++j) g.at(k + l, l * gs + j) = 1;
  // Global parities: extended-Cauchy rows over disjoint evaluation points,
  // the same family the RS construction uses.
  for (std::size_t r = 0; r < global; ++r)
    for (std::size_t c = 0; c < k; ++c)
      g.at(k + groups + r, c) = gf::inv(
          gf::add(static_cast<gf::Byte>(k + r), static_cast<gf::Byte>(c)));
  return g;
}

}  // namespace

LocalReconstructionCode::LocalReconstructionCode(std::size_t k,
                                                 std::size_t groups,
                                                 std::size_t global)
    : LinearCode(CodeParams{k + groups + global, k, /*d=*/k, /*p=*/k},
                 /*s=*/1, lrc_generator(k, groups, global)),
      groups_(groups) {}

std::size_t LocalReconstructionCode::group_of(std::size_t block) const {
  const std::size_t k = params().k;
  if (block < k) return block / group_size();
  if (block < k + groups_) return block - k;  // local parity of that group
  return static_cast<std::size_t>(-1);
}

std::vector<std::size_t> LocalReconstructionCode::repair_set(
    std::size_t failed) const {
  const std::size_t k = params().k;
  if (failed >= n()) throw std::invalid_argument("block out of range");
  std::vector<std::size_t> out;
  if (failed < k + groups_) {
    // Local repair: the group's other data blocks plus (or minus) the local
    // parity — always exactly group_size() reads.
    const std::size_t grp = group_of(failed);
    for (std::size_t j = 0; j < group_size(); ++j) {
      std::size_t id = grp * group_size() + j;
      if (id != failed) out.push_back(id);
    }
    if (failed != k + grp) out.push_back(k + grp);
    return out;
  }
  // Global parity: needs all k data blocks.
  for (std::size_t i = 0; i < k; ++i) out.push_back(i);
  return out;
}

IoStats LocalReconstructionCode::reconstruct(
    std::size_t failed, std::span<const std::size_t> ids,
    std::span<const std::span<const Byte>> blocks, std::span<Byte> out) const {
  auto expected = repair_set(failed);
  if (ids.size() != expected.size() || ids.size() != blocks.size())
    throw std::invalid_argument("LRC repair: wrong helper set size");
  const std::size_t w = blocks.empty() ? out.size() : blocks.front().size();
  if (out.size() != w)
    throw std::invalid_argument("LRC repair: output size mismatch");

  if (failed < params().k + groups_) {
    // XOR the survivors of the local group (the local parity is the plain
    // sum of its group, so every member is the XOR of the others).
    std::vector<const Byte*> srcs;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (group_of(ids[i]) != group_of(failed))
        throw std::invalid_argument("LRC repair: helper outside the group");
      if (blocks[i].size() != w)
        throw std::invalid_argument("blocks must share one size");
      srcs.push_back(blocks[i].data());
    }
    const std::vector<Byte> ones(srcs.size(), 1);
    gf::dot_prod_region(ones, srcs, out.data(), w);
    IoStats stats;
    stats.bytes_read = ids.size() * w;
    stats.sources = ids.size();
    return stats;
  }
  // Global parity: re-encode from the k data blocks.
  std::vector<Byte> data(params().k * w);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= params().k)
      throw std::invalid_argument("LRC global repair: helpers must be data");
    std::copy(blocks[i].begin(), blocks[i].end(),
              data.begin() + static_cast<std::ptrdiff_t>(ids[i] * w));
  }
  encode_block(failed, data, out);
  IoStats stats;
  stats.bytes_read = ids.size() * w;
  stats.sources = ids.size();
  return stats;
}

bool LocalReconstructionCode::recoverable(
    const std::vector<bool>& available) const {
  if (available.size() != n())
    throw std::invalid_argument("availability mask must have n entries");
  matrix::EchelonBasis basis(params().k);
  for (std::size_t b = 0; b < n(); ++b) {
    if (!available[b]) continue;
    basis.try_insert(generator().row(b));
    if (basis.full()) return true;
  }
  return basis.full();
}

}  // namespace carousel::codes
