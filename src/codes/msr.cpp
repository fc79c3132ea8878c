#include "codes/msr.h"

#include <cassert>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace carousel::codes {

namespace {

// Index of S-matrix entry (r, c), r <= c, within the packed upper triangle.
std::size_t tri_index(std::size_t r, std::size_t c, std::size_t alpha) {
  assert(r <= c && c < alpha);
  return r * alpha - r * (r - 1) / 2 + (c - r);
}

}  // namespace

struct ProductMatrixMSR::Construction {
  CodeParams params;
  Matrix generator;  // shortened systematic generator, (n*alpha) x (k*alpha)
  std::size_t shortened;
  std::size_t base_n;
  std::vector<Byte> xs;
  Matrix psi;
  std::vector<Byte> lambda;
};

ProductMatrixMSR::ProductMatrixMSR(Construction c)
    : LinearCode(c.params, c.params.alpha(), std::move(c.generator)),
      shortened_(c.shortened),
      base_n_(c.base_n),
      xs_(std::move(c.xs)),
      psi_(std::move(c.psi)),
      lambda_(std::move(c.lambda)) {}

ProductMatrixMSR::ProductMatrixMSR(std::size_t n, std::size_t k, std::size_t d)
    : ProductMatrixMSR([&] {
        CodeParams params{n, k, d, /*p=*/k};
        params.validate();
        if (d == k)
          throw std::invalid_argument(
              "d == k is the RS regime; use ReedSolomon");
        const std::size_t alpha = params.alpha();
        const std::size_t shortened = d - (2 * k - 2);
        const std::size_t base_n = n + shortened;
        const std::size_t base_k = k + shortened;  // = alpha + 1
        const std::size_t base_msg = base_k * alpha;

        // Evaluation points with pairwise-distinct alpha-th powers.
        std::vector<Byte> xs;
        std::vector<Byte> lambda;
        for (unsigned e = 0; e < 256 && xs.size() < base_n; ++e) {
          Byte lam = gf::pow(static_cast<Byte>(e), static_cast<unsigned>(alpha));
          bool clash = false;
          for (Byte seen : lambda) clash = clash || (seen == lam);
          if (clash) continue;
          xs.push_back(static_cast<Byte>(e));
          lambda.push_back(lam);
        }
        if (xs.size() < base_n)
          throw std::invalid_argument(
              "GF(256) has too few distinct alpha-th powers for these (n,k,d)");

        Matrix psi = matrix::vandermonde(xs, 2 * alpha);

        // Raw generator over the packed symmetric message (S1, S2).
        const std::size_t half = alpha * (alpha + 1) / 2;
        Matrix raw(base_n * alpha, 2 * half);
        for (std::size_t i = 0; i < base_n; ++i)
          for (std::size_t a = 0; a < alpha; ++a)
            for (std::size_t r = 0; r < alpha; ++r) {
              std::size_t v = tri_index(std::min(r, a), std::max(r, a), alpha);
              Byte phi_ir = psi.at(i, r);
              raw.at(i * alpha + a, v) ^= phi_ir;
              raw.at(i * alpha + a, half + v) ^= gf::mul(lambda[i], phi_ir);
            }
        if (raw.cols() != base_msg)
          throw std::logic_error("PM message size mismatch");

        // Systematise: remap the message so the first base_k nodes store it
        // verbatim (symbol remapping, [19] Theorem 1).
        std::vector<std::size_t> sys_rows(base_k * alpha);
        for (std::size_t r = 0; r < sys_rows.size(); ++r) sys_rows[r] = r;
        auto a_inv = raw.select_rows(sys_rows).inverse();
        if (!a_inv)
          throw std::logic_error(
              "PM systematisation failed: top rows singular (construction "
              "invariant violated)");
        Matrix sys = raw.mul(*a_inv);

        // Shorten: zero (and drop) systematic nodes k..base_k-1.
        std::vector<std::size_t> keep_rows;
        keep_rows.reserve(n * alpha);
        for (std::size_t i = 0; i < base_n; ++i) {
          if (i >= k && i < base_k) continue;
          for (std::size_t a = 0; a < alpha; ++a)
            keep_rows.push_back(i * alpha + a);
        }
        std::vector<std::size_t> keep_cols(k * alpha);
        for (std::size_t c = 0; c < keep_cols.size(); ++c) keep_cols[c] = c;
        Matrix gen = sys.select_rows(keep_rows).select_cols(keep_cols);

        return Construction{params,   std::move(gen),    shortened,
                            base_n,   std::move(xs),     std::move(psi),
                            std::move(lambda)};
      }()) {}

std::span<const Byte> ProductMatrixMSR::phi(std::size_t node) const {
  return psi_.row(base_index(node)).subspan(0, alpha());
}

Byte ProductMatrixMSR::lambda(std::size_t node) const {
  return lambda_[base_index(node)];
}

void ProductMatrixMSR::helper_compute(std::size_t helper, std::size_t failed,
                                      std::span<const Byte> block,
                                      std::span<Byte> chunk_out) const {
  if (helper == failed)
    throw std::invalid_argument("failed block cannot be its own helper");
  if (block.size() % s() != 0)
    throw std::invalid_argument("block size must be a multiple of alpha");
  const std::size_t ub = block.size() / s();
  if (chunk_out.size() != ub)
    throw std::invalid_argument("chunk buffer must hold one unit");
  std::vector<const Byte*> srcs(alpha());
  for (std::size_t a = 0; a < alpha(); ++a) srcs[a] = block.data() + a * ub;
  Byte* const dst[] = {chunk_out.data()};
  combine_regions(phi(failed), srcs, dst, ub);
}

Matrix ProductMatrixMSR::repair_combiner(
    std::size_t failed, std::span<const std::size_t> helpers) const {
  if (helpers.size() != d())
    throw std::invalid_argument("MSR repair needs exactly d helpers");
  const std::size_t two_alpha = 2 * alpha();
  // Repair system rows: the d real helpers followed by the shortened
  // (virtual, all-zero) nodes; together exactly 2*alpha Vandermonde rows.
  std::vector<std::size_t> rows;
  rows.reserve(two_alpha);
  std::vector<bool> seen(n(), false);
  for (std::size_t h : helpers) {
    if (h >= n() || h == failed || seen[h])
      throw std::invalid_argument("helpers must be distinct survivors");
    seen[h] = true;
    rows.push_back(base_index(h));
  }
  for (std::size_t v = 0; v < shortened_; ++v)
    rows.push_back(params().k + v);  // base indices of the dropped nodes
  assert(rows.size() == two_alpha);
  auto inv = psi_.select_rows(rows).inverse();
  if (!inv)
    throw std::logic_error("PM repair system singular (invariant violated)");
  // Only the first d columns matter: virtual helpers contribute zero chunks.
  std::vector<std::size_t> cols(d());
  for (std::size_t c = 0; c < d(); ++c) cols[c] = c;
  return inv->select_cols(cols);
}

Matrix ProductMatrixMSR::newcomer_combiner(
    std::size_t failed, std::span<const std::size_t> helpers) const {
  const Matrix w = repair_combiner(failed, helpers);
  const Byte lam = lambda(failed);
  Matrix c(alpha(), d());
  for (std::size_t a = 0; a < alpha(); ++a)
    for (std::size_t j = 0; j < d(); ++j)
      c.at(a, j) = w.at(a, j) ^ gf::mul(lam, w.at(alpha() + a, j));
  return c;
}

IoStats ProductMatrixMSR::newcomer_compute(
    std::size_t failed, std::span<const std::size_t> helpers,
    std::span<const std::span<const Byte>> chunks, std::span<Byte> out) const {
  // Everything is checked before the first byte of out is written.
  if (helpers.size() != d() || chunks.size() != d())
    throw std::invalid_argument("MSR repair needs exactly d helper chunks");
  const std::size_t ub = chunks.front().size();
  for (auto ch : chunks)
    if (ch.size() != ub)
      throw std::invalid_argument("chunks must share one size");
  if (out.size() != s() * ub)
    throw std::invalid_argument("output must be one full block");
  const Matrix c = newcomer_combiner(failed, helpers);

  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.repair_seconds);
  ins.repair_bytes_read->inc(helpers.size() * ub);
  std::vector<const Byte*> srcs;
  for (auto ch : chunks) srcs.push_back(ch.data());
  std::vector<Byte*> dsts;
  for (std::size_t a = 0; a < alpha(); ++a) dsts.push_back(out.data() + a * ub);
  combine_regions(c.data(), srcs, dsts, ub);
  IoStats stats;
  stats.bytes_read = helpers.size() * ub;
  stats.sources = helpers.size();
  return stats;
}

}  // namespace carousel::codes
