#include <gtest/gtest.h>

#include <algorithm>

#include "codes/msr.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::random_bytes;
using test::split_const_spans;
using test::split_spans;
using test::subsets;

// Encodes a random stripe and returns {data, blob}.
std::pair<std::vector<Byte>, std::vector<Byte>> make_stripe(
    const ProductMatrixMSR& msr, std::size_t unit_bytes) {
  const std::size_t w = msr.s() * unit_bytes;
  auto data = random_bytes(msr.k() * w, 7);
  std::vector<Byte> blob(msr.n() * w);
  msr.encode(data, split_spans(blob, msr.n()));
  return {std::move(data), std::move(blob)};
}

TEST(ProductMatrixMSR, RejectsRsRegimeAndGaps) {
  EXPECT_THROW(ProductMatrixMSR(6, 3, 3), std::invalid_argument);  // d == k
  EXPECT_THROW(ProductMatrixMSR(8, 4, 5), std::invalid_argument);  // gap
  EXPECT_NO_THROW(ProductMatrixMSR(8, 4, 6));                      // 2k-2
  EXPECT_NO_THROW(ProductMatrixMSR(8, 4, 7));                      // 2k-1
}

TEST(ProductMatrixMSR, GeometryMatchesPaper) {
  ProductMatrixMSR msr(12, 6, 10);  // the paper's Hadoop configuration
  EXPECT_EQ(msr.alpha(), 5u);       // d - k + 1
  EXPECT_EQ(msr.s(), 5u);
  EXPECT_DOUBLE_EQ(msr.params().repair_traffic_blocks(), 2.0);
}

TEST(ProductMatrixMSR, SystematicPrefixIsVerbatim) {
  ProductMatrixMSR msr(6, 3, 4);
  const std::size_t w = msr.s() * 11;
  auto [data, blob] = make_stripe(msr, 11);
  for (std::size_t i = 0; i < msr.k(); ++i)
    EXPECT_TRUE(std::equal(blob.begin() + i * w, blob.begin() + (i + 1) * w,
                           data.begin() + i * w))
        << "block " << i;
}

TEST(ProductMatrixMSR, MdsExhaustiveSmall) {
  for (auto [n, k, d] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{5, 3, 4},
        {6, 3, 4},
        {7, 4, 6} /* d=2k-2 */,
        {5, 2, 3} /* shortened */,
        {6, 3, 5} /* shortened */}) {
    ProductMatrixMSR msr(n, k, d);
    const std::size_t ub = 9;
    const std::size_t w = msr.s() * ub;
    auto [data, blob] = make_stripe(msr, ub);
    auto views = split_const_spans(blob, n);
    for (const auto& ids : subsets(n, k)) {
      std::vector<std::span<const Byte>> chosen;
      for (std::size_t id : ids) chosen.push_back(views[id]);
      std::vector<Byte> out(k * w);
      msr.decode(ids, chosen, out);
      ASSERT_EQ(out, data) << "(" << n << "," << k << "," << d << ")";
    }
  }
}

TEST(ProductMatrixMSR, RepairEveryBlockEveryHelperSetSmall) {
  ProductMatrixMSR msr(6, 3, 4);
  const std::size_t ub = 10;
  const std::size_t w = msr.s() * ub;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, 6);
  for (std::size_t failed = 0; failed < 6; ++failed) {
    for (const auto& all : subsets(6, msr.d() + 1)) {
      // Build helper sets of size d avoiding `failed`.
      std::vector<std::size_t> helpers;
      for (std::size_t id : all)
        if (id != failed) helpers.push_back(id);
      if (helpers.size() != msr.d()) continue;
      std::vector<std::vector<Byte>> chunk_store;
      std::vector<std::span<const Byte>> chunks;
      for (std::size_t h : helpers) {
        chunk_store.emplace_back(ub);
        msr.helper_compute(h, failed, views[h], chunk_store.back());
      }
      for (auto& c : chunk_store) chunks.emplace_back(c);
      std::vector<Byte> rebuilt(w);
      auto stats = msr.newcomer_compute(failed, helpers, chunks, rebuilt);
      ASSERT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(),
                             views[failed].begin()))
          << "failed=" << failed;
      // Optimal repair traffic: d/(d-k+1) = 2 block sizes here.
      EXPECT_EQ(stats.bytes_read, msr.d() * ub);
      EXPECT_EQ(stats.bytes_read * msr.alpha(), msr.d() * w / 1);
    }
  }
}

TEST(ProductMatrixMSR, RepairTrafficIsOptimalFraction) {
  // Traffic in block sizes must equal d/(d-k+1) exactly.
  for (auto [n, k, d] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{12, 6, 10},
        {8, 4, 7},
        {10, 5, 9}}) {
    ProductMatrixMSR msr(n, k, d);
    const std::size_t ub = 4;
    const std::size_t w = msr.s() * ub;
    auto [data, blob] = make_stripe(msr, ub);
    auto views = split_const_spans(blob, n);
    std::vector<std::size_t> helpers;
    for (std::size_t h = 1; h <= d; ++h) helpers.push_back(h);
    std::vector<std::vector<Byte>> chunk_store;
    std::vector<std::span<const Byte>> chunks;
    for (std::size_t h : helpers) {
      chunk_store.emplace_back(ub);
      msr.helper_compute(h, 0, views[h], chunk_store.back());
    }
    for (auto& c : chunk_store) chunks.emplace_back(c);
    std::vector<Byte> rebuilt(w);
    auto stats = msr.newcomer_compute(0, helpers, chunks, rebuilt);
    EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), views[0].begin()));
    double traffic_blocks = double(stats.bytes_read) / double(w);
    EXPECT_DOUBLE_EQ(traffic_blocks, msr.params().repair_traffic_blocks());
    // And strictly less than RS's k block sizes whenever d > k.
    EXPECT_LT(traffic_blocks, double(k));
  }
}

TEST(ProductMatrixMSR, ShortenedCodeRepairsParityBlocks) {
  // Shortening drops systematic nodes; parity repair must still work.
  ProductMatrixMSR msr(8, 3, 6);  // i = d-2k+2 = 2 shortened nodes
  const std::size_t ub = 8;
  const std::size_t w = msr.s() * ub;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, 8);
  for (std::size_t failed : {std::size_t{0}, std::size_t{4}, std::size_t{7}}) {
    std::vector<std::size_t> helpers;
    for (std::size_t h = 0; h < 8 && helpers.size() < msr.d(); ++h)
      if (h != failed) helpers.push_back(h);
    std::vector<std::vector<Byte>> chunk_store;
    std::vector<std::span<const Byte>> chunks;
    for (std::size_t h : helpers) {
      chunk_store.emplace_back(ub);
      msr.helper_compute(h, failed, views[h], chunk_store.back());
    }
    for (auto& c : chunk_store) chunks.emplace_back(c);
    std::vector<Byte> rebuilt(w);
    msr.newcomer_compute(failed, helpers, chunks, rebuilt);
    EXPECT_TRUE(
        std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin()))
        << "failed=" << failed;
  }
}

TEST(ProductMatrixMSR, HelperValidation) {
  ProductMatrixMSR msr(6, 3, 4);
  std::vector<Byte> block(msr.s() * 4), chunk(4);
  EXPECT_THROW(msr.helper_compute(2, 2, block, chunk), std::invalid_argument);
  std::vector<Byte> bad_chunk(5);
  EXPECT_THROW(msr.helper_compute(1, 2, block, bad_chunk),
               std::invalid_argument);
  std::vector<std::size_t> dup_helpers = {1, 1, 3, 4};
  EXPECT_THROW(msr.repair_combiner(0, dup_helpers), std::invalid_argument);
  std::vector<std::size_t> with_failed = {0, 1, 2, 3};
  EXPECT_THROW(msr.repair_combiner(0, with_failed), std::invalid_argument);
}

TEST(ProductMatrixMSR, NewcomerChecksEveryChunkBeforeWriting) {
  // The newcomer writes straight into out, so a bad chunk or helper list
  // must be caught before its first byte lands there.
  ProductMatrixMSR msr(6, 3, 4);
  const std::size_t ub = 8;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, 6);
  const std::vector<std::size_t> helpers = {5, 2, 4, 1};
  std::vector<std::vector<Byte>> chunk_store;
  for (std::size_t h : helpers) {
    chunk_store.emplace_back(ub);
    msr.helper_compute(h, 0, views[h], chunk_store.back());
  }
  chunk_store.back().pop_back();  // the last chunk comes up one byte short
  std::vector<std::span<const Byte>> chunks(chunk_store.begin(),
                                            chunk_store.end());
  const std::vector<Byte> sentinel(msr.s() * ub, 0xA5);
  std::vector<Byte> out = sentinel;
  EXPECT_THROW(msr.newcomer_compute(0, helpers, chunks, out),
               std::invalid_argument);
  EXPECT_EQ(out, sentinel);

  chunk_store.back().push_back(0);
  chunks.assign(chunk_store.begin(), chunk_store.end());
  const std::vector<std::size_t> dup_helpers = {5, 2, 2, 1};
  EXPECT_THROW(msr.newcomer_compute(0, dup_helpers, chunks, out),
               std::invalid_argument);
  EXPECT_EQ(out, sentinel);
}

TEST(ProductMatrixMSR, LambdasDistinctAndPhiWellFormed) {
  ProductMatrixMSR msr(20, 10, 19);  // the paper's largest Fig. 6 point
  std::vector<Byte> lambdas;
  for (std::size_t i = 0; i < msr.n(); ++i) {
    EXPECT_EQ(msr.phi(i).size(), msr.alpha());
    lambdas.push_back(msr.lambda(i));
  }
  std::sort(lambdas.begin(), lambdas.end());
  EXPECT_EQ(std::adjacent_find(lambdas.begin(), lambdas.end()), lambdas.end())
      << "lambda values must be pairwise distinct";
}

TEST(ProductMatrixMSR, LargeConfigRoundTrip) {
  // Fig. 6 uses up to (20, 10, 19); verify decode on a sampled subset.
  ProductMatrixMSR msr(20, 10, 19);
  const std::size_t ub = 2;
  const std::size_t w = msr.s() * ub;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, 20);
  std::vector<std::size_t> ids = {1, 3, 5, 7, 9, 11, 13, 15, 17, 19};
  std::vector<std::span<const Byte>> chosen;
  for (std::size_t id : ids) chosen.push_back(views[id]);
  std::vector<Byte> out(msr.k() * w);
  msr.decode(ids, chosen, out);
  EXPECT_EQ(out, data);
}

// Property sweep: shape invariants across the supported (n,k,d) grid.
class MsrGrid
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MsrGrid, EncodeDecodeRepairRoundTrip) {
  auto [n, k, d] = GetParam();
  ProductMatrixMSR msr(n, k, d);
  const std::size_t ub = 6;
  const std::size_t w = msr.s() * ub;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, n);

  // Decode from the k highest-indexed blocks (worst case for shortening).
  std::vector<std::size_t> ids;
  std::vector<std::span<const Byte>> chosen;
  for (std::size_t id = n - k; id < static_cast<std::size_t>(n); ++id) {
    ids.push_back(id);
    chosen.push_back(views[id]);
  }
  std::vector<Byte> out(k * w);
  msr.decode(ids, chosen, out);
  EXPECT_EQ(out, data);

  // Repair block 0 from the last d blocks.
  std::vector<std::size_t> helpers;
  for (std::size_t h = n - d; h < static_cast<std::size_t>(n); ++h)
    helpers.push_back(h);
  std::vector<std::vector<Byte>> chunk_store;
  std::vector<std::span<const Byte>> chunks;
  for (std::size_t h : helpers) {
    chunk_store.emplace_back(ub);
    msr.helper_compute(h, 0, views[h], chunk_store.back());
  }
  for (auto& c : chunk_store) chunks.emplace_back(c);
  std::vector<Byte> rebuilt(w);
  msr.newcomer_compute(0, helpers, chunks, rebuilt);
  EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), views[0].begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MsrGrid,
    ::testing::Values(std::tuple{4, 2, 3}, std::tuple{6, 2, 3},
                      std::tuple{6, 3, 4}, std::tuple{6, 3, 5},
                      std::tuple{8, 4, 6}, std::tuple{8, 4, 7},
                      std::tuple{10, 4, 8}, std::tuple{12, 6, 10},
                      std::tuple{12, 6, 11}, std::tuple{16, 8, 15},
                      std::tuple{20, 10, 19}));

}  // namespace
}  // namespace carousel::codes
