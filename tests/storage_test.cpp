#include <gtest/gtest.h>

#include "codes/carousel.h"
#include "storage/erasure_file.h"
#include "test_util.h"

namespace carousel::storage {
namespace {

using codes::Carousel;
using test::random_bytes;

TEST(ErasureFile, RoundTripSingleStripe) {
  Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 16;
  auto file = random_bytes(6 * block);
  ErasureFile ef(code, file, block);
  EXPECT_EQ(ef.stripes(), 1u);
  EXPECT_EQ(ef.stored_bytes(), 12 * block);
  EXPECT_TRUE(ef.verify());
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, RoundTripMultiStripeWithPadding) {
  Carousel code(6, 3, 4, 5);
  const std::size_t block = code.s() * 8;
  // 2.5 stripes worth of data: forces padding in the last stripe.
  auto file = random_bytes(3 * block * 2 + block / 2 + 3);
  ErasureFile ef(code, file, block);
  EXPECT_EQ(ef.stripes(), 3u);
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, EmptyFileOccupiesOneStripe) {
  Carousel code(4, 2, 2, 4);
  ErasureFile ef(code, {}, code.s() * 4);
  EXPECT_EQ(ef.stripes(), 1u);
  EXPECT_TRUE(ef.read_all().empty());
}

TEST(ErasureFile, RejectsMisalignedBlockSize) {
  Carousel code(6, 3, 4, 6);  // s = alpha = 2... expansion dependent
  auto file = random_bytes(100);
  EXPECT_THROW(ErasureFile(code, file, code.s() * 4 + 1),
               std::invalid_argument);
  EXPECT_THROW(ErasureFile(code, file, 0), std::invalid_argument);
}

TEST(ErasureFile, DataExtentsTileTheFile) {
  Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 12;
  auto file = random_bytes(6 * block * 2);  // two stripes
  ErasureFile ef(code, file, block);
  // Extents of data-carrying blocks must partition [0, file size).
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t s = 0; s < ef.stripes(); ++s)
    for (std::size_t i = 0; i < code.n(); ++i) {
      auto e = ef.data_extent(s, i);
      if (i >= code.p()) {
        EXPECT_EQ(e.length, 0u);
      }
      if (e.length) ranges.emplace_back(e.file_offset, e.length);
    }
  std::sort(ranges.begin(), ranges.end());
  std::size_t cursor = 0;
  for (auto [off, len] : ranges) {
    EXPECT_EQ(off, cursor);
    cursor = off + len;
  }
  EXPECT_EQ(cursor, file.size());
}

TEST(ErasureFile, ExtentBytesMatchOriginalData) {
  Carousel code(6, 3, 4, 6);
  const std::size_t block = code.s() * 10;
  auto file = random_bytes(3 * block);
  ErasureFile ef(code, file, block);
  for (std::size_t i = 0; i < code.p(); ++i) {
    auto e = ef.data_extent(0, i);
    ASSERT_GT(e.length, 0u);
    auto b = ef.block(0, i);
    EXPECT_TRUE(std::equal(b.begin(), b.begin() + e.length,
                           file.begin() + e.file_offset))
        << "block " << i;
  }
}

TEST(ErasureFile, ReadWithFailuresUsesParityStandIns) {
  Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(6 * block);
  ErasureFile ef(code, file, block);

  codes::IoStats healthy{};
  ef.read_all(&healthy);
  EXPECT_EQ(healthy.sources, code.p());

  ef.fail_block_index(3);  // a data-carrying block
  codes::IoStats degraded{};
  EXPECT_EQ(ef.read_all(&degraded), file);
  EXPECT_EQ(degraded.sources, code.p());  // still p readers (one stand-in)
  EXPECT_EQ(degraded.bytes_read, healthy.bytes_read);  // k/p each, total k
}

TEST(ErasureFile, ReadFallsBackToAnyKDecode) {
  Carousel code(6, 3, 3, 6);  // p = n: no pure-parity stand-ins
  const std::size_t block = code.s() * 6;
  auto file = random_bytes(3 * block);
  ErasureFile ef(code, file, block);
  ef.fail_block_index(0);
  ef.fail_block_index(4);
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, UnrecoverableStripeThrows) {
  Carousel code(4, 2, 2, 4);
  const std::size_t block = code.s() * 4;
  auto file = random_bytes(2 * block);
  ErasureFile ef(code, file, block);
  ef.fail_block_index(0);
  ef.fail_block_index(1);
  ef.fail_block_index(2);
  EXPECT_THROW(ef.read_all(), std::runtime_error);
}

TEST(ErasureFile, RepairRestoresExactBytesAtOptimalTraffic) {
  Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(6 * block);
  ErasureFile ef(code, file, block);
  auto original = std::vector<codes::Byte>(ef.block(0, 5).begin(),
                                           ef.block(0, 5).end());
  ef.set_block_available(0, 5, false);
  auto stats = ef.repair_block(0, 5);
  EXPECT_TRUE(ef.block_available(0, 5));
  EXPECT_TRUE(std::equal(original.begin(), original.end(),
                         ef.block(0, 5).begin()));
  EXPECT_TRUE(ef.verify());
  // Optimal repair traffic: d/(d-k+1) = 2 block sizes, not k = 6.
  EXPECT_DOUBLE_EQ(double(stats.bytes_read) / double(block), 2.0);
}

TEST(ErasureFile, RepairFallsBackBelowDHelpers) {
  Carousel code(6, 3, 4, 6);
  const std::size_t block = code.s() * 4;
  auto file = random_bytes(3 * block);
  ErasureFile ef(code, file, block);
  EXPECT_THROW(ef.repair_block(0, 1), std::invalid_argument);  // not missing
  ef.fail_block_index(1);
  ef.fail_block_index(2);
  ef.fail_block_index(3);  // only 3 = k helpers left, d = 4
  auto stats = ef.repair_block(0, 1);  // MDS fallback path
  EXPECT_EQ(stats.bytes_read, code.k() * block);  // k whole blocks
  EXPECT_TRUE(ef.block_available(0, 1));
  // Remaining failures can now heal at optimal traffic again.
  auto stats2 = ef.repair_block(0, 2);
  EXPECT_DOUBLE_EQ(double(stats2.bytes_read) / double(block),
                   code.params().repair_traffic_blocks());
  ef.repair_block(0, 3);
  EXPECT_TRUE(ef.verify());
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, RepairUnrecoverableThrows) {
  Carousel code(4, 2, 2, 4);
  const std::size_t block = code.s() * 4;
  auto file = random_bytes(2 * block);
  ErasureFile ef(code, file, block);
  ef.fail_block_index(0);
  ef.fail_block_index(1);
  ef.fail_block_index(2);  // 1 survivor < k
  EXPECT_THROW(ef.repair_block(0, 0), std::runtime_error);
}

TEST(ErasureFile, WriteUpdatesDataAndParityInPlace) {
  Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 32;
  auto file = random_bytes(6 * block * 2);  // two stripes
  ErasureFile ef(code, file, block);

  // Overwrite an unaligned range spanning unit boundaries and both stripes.
  auto patch = random_bytes(block + 77, 123);
  const std::size_t off = 6 * block - 50;  // tail of stripe 0 into stripe 1
  std::size_t touched = ef.write(off, patch);
  EXPECT_GT(touched, 0u);
  std::copy(patch.begin(), patch.end(), file.begin() + off);

  EXPECT_TRUE(ef.verify()) << "parity must track the delta update";
  EXPECT_EQ(ef.read_all(), file);

  // The file must also decode correctly from parity-only sets afterwards.
  ef.fail_block_index(0);
  ef.fail_block_index(3);
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, WriteTouchesOnlyDependentUnits) {
  // One in-unit byte write touches exactly the units whose generator rows
  // read that message unit: its own data unit + dependent parity units.
  Carousel code(6, 3, 3, 6);
  const std::size_t block = code.s() * 16;
  auto file = random_bytes(3 * block);
  ErasureFile ef(code, file, block);
  std::vector<Byte> one = {0x5A};
  std::size_t touched = ef.write(10, one);
  std::size_t expected = code.dependents_of(0).size();
  EXPECT_EQ(touched, expected);
  file[10] = 0x5A;
  EXPECT_EQ(ef.read_all(), file);
  EXPECT_TRUE(ef.verify());
}

TEST(ErasureFile, WriteValidation) {
  Carousel code(4, 2, 2, 4);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(2 * block);
  ErasureFile ef(code, file, block);
  std::vector<Byte> data(10);
  EXPECT_THROW(ef.write(file.size() - 5, data), std::invalid_argument);
  EXPECT_EQ(ef.write(0, {}), 0u);
  ef.fail_block_index(3);
  EXPECT_THROW(ef.write(0, data), std::runtime_error);
}

TEST(LinearCodeDeps, DependentsMatchGeneratorColumns) {
  Carousel code(6, 3, 4, 5);
  for (std::size_t m = 0; m < code.message_units(); ++m) {
    auto deps = code.dependents_of(m);
    ASSERT_FALSE(deps.empty());
    // The message unit's own systematic copy must be among them, coeff 1.
    bool own = false;
    for (const auto& d : deps) {
      EXPECT_EQ(code.generator().at(d.block * code.s() + d.pos, m), d.coeff);
      std::size_t msg;
      if (code.unit_is_systematic(d.block, d.pos, &msg) && msg == m) {
        own = true;
        EXPECT_EQ(d.coeff, 1);
      }
    }
    EXPECT_TRUE(own) << "message unit " << m;
  }
}

TEST(ErasureFile, ScrubFindsAndHealsBitRot) {
  Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 16;
  auto file = random_bytes(6 * block * 2, 41);
  ErasureFile ef(code, file, block);

  auto clean = ef.scrub();
  EXPECT_EQ(clean.blocks_checked, 24u);
  EXPECT_EQ(clean.corrupt_found, 0u);

  // Flip bits in three blocks (a data unit, a parity region, a parity-only
  // block) across both stripes.
  const_cast<codes::Byte&>(ef.block(0, 2)[5]) ^= 0x01;
  const_cast<codes::Byte&>(ef.block(0, 11)[block - 1]) ^= 0x80;
  const_cast<codes::Byte&>(ef.block(1, 7)[block / 2]) ^= 0xFF;

  auto report = ef.scrub();
  EXPECT_EQ(report.corrupt_found, 3u);
  EXPECT_EQ(report.repaired, 3u);
  EXPECT_TRUE(ef.verify());
  EXPECT_EQ(ef.read_all(), file);
  // A follow-up pass finds nothing.
  EXPECT_EQ(ef.scrub().corrupt_found, 0u);
}

TEST(ErasureFile, ScrubWithoutRepairQuarantines) {
  Carousel code(6, 3, 4, 6);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(3 * block, 43);
  ErasureFile ef(code, file, block);
  const_cast<codes::Byte&>(ef.block(0, 1)[0]) ^= 0x10;
  auto report = ef.scrub(/*repair=*/false);
  EXPECT_EQ(report.corrupt_found, 1u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_FALSE(ef.block_available(0, 1));  // quarantined
  EXPECT_EQ(ef.read_all(), file);          // reads route around it
}

TEST(ErasureFile, ScrubAfterWriteAndRepairStaysClean) {
  // Checksums must track every mutation path: write() and repair_block().
  Carousel code(6, 3, 4, 5);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(3 * block, 47);
  ErasureFile ef(code, file, block);
  auto patch = random_bytes(50, 48);
  ef.write(13, patch);
  EXPECT_EQ(ef.scrub().corrupt_found, 0u);
  ef.set_block_available(0, 4, false);
  ef.repair_block(0, 4);
  EXPECT_EQ(ef.scrub().corrupt_found, 0u);
}

TEST(ErasureFile, VerifyDetectsCorruption) {
  Carousel code(4, 2, 2, 4);
  const std::size_t block = code.s() * 4;
  auto file = random_bytes(2 * block);
  ErasureFile ef(code, file, block);
  EXPECT_TRUE(ef.verify());
  // Corrupt one byte through the const view (test-only laundering).
  auto view = ef.block(0, 1);
  const_cast<codes::Byte&>(view[0]) ^= 0xFF;
  EXPECT_FALSE(ef.verify());
}

}  // namespace
}  // namespace carousel::storage
