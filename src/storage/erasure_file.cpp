#include "storage/erasure_file.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "gf/vect.h"
#include "util/crc32.h"

namespace carousel::storage {

ErasureFile::ErasureFile(const Carousel& code, std::span<const Byte> file,
                         std::size_t block_bytes)
    : code_(&code), file_bytes_(file.size()), block_bytes_(block_bytes) {
  if (block_bytes == 0 || block_bytes % code.s() != 0)
    throw std::invalid_argument(
        "block_bytes must be a positive multiple of the code's "
        "subpacketization");
  const std::size_t stripe_data = code.k() * block_bytes;
  stripes_ = (file.size() + stripe_data - 1) / stripe_data;
  if (stripes_ == 0) stripes_ = 1;  // an empty file still occupies one stripe
  padded_file_.assign(stripes_ * stripe_data, 0);
  std::copy(file.begin(), file.end(), padded_file_.begin());
  store_.assign(stripes_ * code.n() * block_bytes, 0);
  available_.assign(stripes_ * code.n(), true);
  checksum_.assign(stripes_ * code.n(), 0);
  for (std::size_t s = 0; s < stripes_; ++s) {
    std::vector<std::span<Byte>> blocks;
    blocks.reserve(code_->n());
    for (std::size_t i = 0; i < code_->n(); ++i)
      blocks.push_back(block_mut(s, i));
    code_->encode(
        std::span<const Byte>(padded_file_.data() + s * stripe_data,
                              stripe_data),
        blocks);
    for (std::size_t i = 0; i < code_->n(); ++i) record_checksum(s, i);
  }
}

void ErasureFile::record_checksum(std::size_t stripe, std::size_t index) {
  checksum_[slot(stripe, index)] = util::crc32(block(stripe, index));
}

std::span<const Byte> ErasureFile::block(std::size_t stripe,
                                         std::size_t index) const {
  return {store_.data() + slot(stripe, index) * block_bytes_, block_bytes_};
}

std::span<Byte> ErasureFile::block_mut(std::size_t stripe, std::size_t index) {
  return {store_.data() + slot(stripe, index) * block_bytes_, block_bytes_};
}

void ErasureFile::set_block_available(std::size_t stripe, std::size_t index,
                                      bool ok) {
  available_[slot(stripe, index)] = ok;
}

bool ErasureFile::block_available(std::size_t stripe,
                                  std::size_t index) const {
  return available_[slot(stripe, index)];
}

void ErasureFile::fail_block_index(std::size_t index) {
  for (std::size_t s = 0; s < stripes_; ++s) set_block_available(s, index, false);
}

DataExtent ErasureFile::data_extent(std::size_t stripe,
                                    std::size_t index) const {
  const std::size_t len = code_->data_extent_bytes(index, block_bytes_);
  if (len == 0) return {};
  // Block `index` holds message units [index*K, (index+1)*K), i.e. the
  // contiguous stripe byte range starting at index * len.
  const std::size_t off = stripe * code_->k() * block_bytes_ + index * len;
  // Clip the final stripe's padding.
  if (off >= file_bytes_) return {};
  return {off, std::min(len, file_bytes_ - off)};
}

IoStats ErasureFile::read_stripe(std::size_t s, std::span<Byte> dst) const {
  std::vector<std::size_t> avail;
  for (std::size_t i = 0; i < code_->n(); ++i)
    if (block_available(s, i)) avail.push_back(i);

  const std::size_t p = code_->p();
  bool first_p_ok = std::count_if(avail.begin(), avail.end(),
                                  [p](std::size_t i) { return i < p; }) ==
                    static_cast<std::ptrdiff_t>(p);
  if (first_p_ok) {
    std::vector<std::span<const Byte>> blocks;
    for (std::size_t i = 0; i < p; ++i) blocks.push_back(block(s, i));
    code_->gather_data(blocks, dst);
    return {code_->k() * block_bytes_, p};
  }
  if (avail.size() >= p) {
    // decode_parallel wants each id < p serving its own slot plus parity
    // stand-ins; pick survivors-below-p first, then parity blocks.
    std::vector<std::size_t> ids;
    for (std::size_t i : avail)
      if (i < p) ids.push_back(i);
    for (std::size_t i : avail)
      if (i >= p && ids.size() < p) ids.push_back(i);
    if (ids.size() == p) {
      std::vector<std::span<const Byte>> blocks;
      for (std::size_t i : ids) blocks.push_back(block(s, i));
      return code_->decode_parallel(ids, blocks, dst);
    }
  }
  if (avail.size() < code_->k())
    throw std::runtime_error("stripe " + std::to_string(s) +
                             " has fewer than k available blocks");
  // Fewer than p blocks left: best-effort decode over everything that
  // survives — copies all verbatim units and solves the minimum (the
  // paper's §VIII-B "visit more than k blocks" extension).
  std::vector<std::span<const Byte>> blocks;
  for (std::size_t i : avail) blocks.push_back(block(s, i));
  return code_->decode_from_available(avail, blocks, dst);
}

std::vector<Byte> ErasureFile::read_all(IoStats* stats) const {
  const std::size_t stripe_data = code_->k() * block_bytes_;
  std::vector<Byte> out(stripes_ * stripe_data);
  IoStats total;
  for (std::size_t s = 0; s < stripes_; ++s) {
    const IoStats st = read_stripe(
        s, std::span<Byte>(out.data() + s * stripe_data, stripe_data));
    total.bytes_read += st.bytes_read;
    total.sources += st.sources;
  }
  out.resize(file_bytes_);
  if (stats) *stats = total;
  return out;
}

std::size_t ErasureFile::write(std::size_t offset,
                               std::span<const Byte> bytes) {
  if (offset + bytes.size() > file_bytes_)
    throw std::invalid_argument("write extends past the end of the file");
  if (bytes.empty()) return 0;
  const std::size_t ub = block_bytes_ / code_->s();
  const std::size_t stripe_data = code_->k() * block_bytes_;
  const std::size_t first_stripe = offset / stripe_data;
  const std::size_t last_stripe = (offset + bytes.size() - 1) / stripe_data;
  for (std::size_t s = first_stripe; s <= last_stripe; ++s)
    for (std::size_t i = 0; i < code_->n(); ++i)
      if (!block_available(s, i))
        throw std::runtime_error(
            "write: a block of an affected stripe is unavailable; repair "
            "first");

  std::size_t touched = 0;
  std::size_t cursor = 0;
  while (cursor < bytes.size()) {
    const std::size_t abs = offset + cursor;
    const std::size_t stripe = abs / stripe_data;
    const std::size_t in_stripe = abs % stripe_data;
    const std::size_t msg_unit = in_stripe / ub;
    const std::size_t in_unit = in_stripe % ub;
    const std::size_t span_len =
        std::min(ub - in_unit, bytes.size() - cursor);

    // Delta of the affected window of this message unit.
    Byte* old_bytes = padded_file_.data() + stripe * stripe_data +
                      msg_unit * ub + in_unit;
    std::vector<Byte> delta(span_len);
    for (std::size_t b = 0; b < span_len; ++b)
      delta[b] = static_cast<Byte>(old_bytes[b] ^ bytes[cursor + b]);
    std::copy(bytes.begin() + static_cast<std::ptrdiff_t>(cursor),
              bytes.begin() + static_cast<std::ptrdiff_t>(cursor + span_len),
              old_bytes);

    for (const auto& dep : code_->dependents_of(msg_unit)) {
      Byte* unit = block_mut(stripe, dep.block).data() + dep.pos * ub + in_unit;
      gf::mul_add_region(dep.coeff, delta.data(), unit, span_len);
      ++touched;
    }
    cursor += span_len;
  }
  // Refresh the scrub checksums of the touched stripes.
  for (std::size_t s = first_stripe; s <= last_stripe; ++s)
    for (std::size_t i = 0; i < code_->n(); ++i) record_checksum(s, i);
  return touched;
}

IoStats ErasureFile::repair_block(std::size_t stripe, std::size_t index) {
  if (block_available(stripe, index))
    throw std::invalid_argument("block is not missing");
  std::vector<std::size_t> helpers;
  for (std::size_t i = 0; i < code_->n() && helpers.size() < code_->d(); ++i)
    if (i != index && block_available(stripe, i)) helpers.push_back(i);
  const std::size_t ub = block_bytes_ / code_->s();
  if (helpers.size() < code_->d()) {
    // Not enough survivors for the optimal-traffic repair: fall back to the
    // MDS projection repair from any k whole blocks (k block-sizes of
    // traffic, like RS) — this is what lets multi-failure stripes heal.
    if (helpers.size() < code_->k())
      throw std::runtime_error("fewer than k available helpers");
    helpers.resize(code_->k());
    std::vector<codes::UnitRef> sources;
    sources.reserve(code_->k() * code_->s());
    for (std::size_t h : helpers)
      for (std::size_t t = 0; t < code_->s(); ++t)
        sources.push_back({h, t, block(stripe, h).data() + t * ub});
    auto stats =
        code_->project_units(sources, ub, index, block_mut(stripe, index));
    set_block_available(stripe, index, true);
    record_checksum(stripe, index);
    return stats;
  }
  std::vector<std::vector<Byte>> chunk_store;
  std::vector<std::span<const Byte>> chunks;
  chunk_store.reserve(helpers.size());
  for (std::size_t h : helpers) {
    chunk_store.emplace_back(code_->helper_chunk_units() * ub);
    code_->helper_compute(h, index, block(stripe, h), chunk_store.back());
  }
  for (auto& c : chunk_store) chunks.emplace_back(c);
  auto stats =
      code_->newcomer_compute(index, helpers, chunks, block_mut(stripe, index));
  set_block_available(stripe, index, true);
  record_checksum(stripe, index);
  return stats;
}

ErasureFile::ScrubReport ErasureFile::scrub(bool repair) {
  ScrubReport report;
  std::vector<std::pair<std::size_t, std::size_t>> corrupt;
  for (std::size_t s = 0; s < stripes_; ++s)
    for (std::size_t i = 0; i < code_->n(); ++i) {
      if (!block_available(s, i)) continue;
      ++report.blocks_checked;
      if (util::crc32(block(s, i)) != checksum_[slot(s, i)]) {
        ++report.corrupt_found;
        // Quarantine first: a corrupt block must never serve reads or act
        // as a repair helper.
        set_block_available(s, i, false);
        corrupt.emplace_back(s, i);
      }
    }
  if (repair)
    for (auto [s, i] : corrupt) {
      repair_block(s, i);
      ++report.repaired;
    }
  return report;
}

bool ErasureFile::verify() const {
  const std::size_t stripe_data = code_->k() * block_bytes_;
  std::vector<Byte> fresh(code_->n() * block_bytes_);
  for (std::size_t s = 0; s < stripes_; ++s) {
    std::vector<std::span<Byte>> blocks;
    for (std::size_t i = 0; i < code_->n(); ++i)
      blocks.emplace_back(fresh.data() + i * block_bytes_, block_bytes_);
    code_->encode(std::span<const Byte>(padded_file_.data() + s * stripe_data,
                                        stripe_data),
                  blocks);
    for (std::size_t i = 0; i < code_->n(); ++i) {
      if (!block_available(s, i)) continue;
      auto stored = block(s, i);
      if (!std::equal(stored.begin(), stored.end(),
                      fresh.begin() + static_cast<std::ptrdiff_t>(
                                          i * block_bytes_)))
        return false;
    }
  }
  return true;
}

}  // namespace carousel::storage
