// Crash-consistency tests: real directories, real fsyncs, real restarts.
//
// Each test builds an on-disk state — through the crash-atomic write path,
// through injected crash points, or by vandalising files directly — then
// proves the recovery scan classifies it exactly as DESIGN.md "Durability &
// crash consistency" promises: intact blocks reload, everything else is
// quarantined (moved, never deleted) and reported so the scrubber heals it
// at the code's optimal repair traffic.  "Crash" here is destroy-and-
// reconstruct on the same directory: the BlockServer object dies with all
// its RAM state, the directory is all that survives — the same contract a
// SIGKILL leaves, minus the fork/exec plumbing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/durable_io.h"
#include "net/errors.h"
#include "net/fault.h"
#include "net/persistence.h"
#include "net/protocol.h"
#include "net/scrubber.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/crc32.h"

namespace carousel::net {
namespace {

namespace fs = std::filesystem;
using test::random_bytes;

// One-shot policy for crash-injection tests: a retry would re-PUT over the
// injected torn state and mask it.
RetryPolicy one_shot() {
  RetryPolicy p;
  p.max_attempts = 1;
  p.io_timeout = std::chrono::milliseconds(500);
  p.op_deadline = std::chrono::milliseconds(3000);
  return p;
}

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.io_timeout = std::chrono::milliseconds(250);
  p.base_backoff = std::chrono::milliseconds(2);
  p.max_backoff = std::chrono::milliseconds(20);
  p.op_deadline = std::chrono::milliseconds(3000);
  return p;
}

// Builds a format-v1 block the way the v1 writer left it: `<stem>.blk`
// holding the payload and `<stem>.meta` holding the commit record (magic
// "CBM1", key, payload length, payload CRC-32, record CRC-32).
// `claimed_len` lets a test build a torn pair, whose record promises more
// bytes than its payload holds.  The store itself no longer writes v1.
void write_v1_pair(const fs::path& dir, const BlockKey& key,
                   std::span<const std::uint8_t> payload,
                   std::optional<std::uint64_t> claimed_len = std::nullopt) {
  Writer w;
  w.u32(0x314D4243);  // "CBM1"
  w.key(key);
  w.u64(claimed_len.value_or(payload.size()));
  w.u32(util::crc32(payload));
  w.u32(util::crc32(w.data()));
  const std::string stem = PersistentBlockStore::stem_of(key);
  durable::write_file(dir / (stem + ".blk"), payload);
  durable::write_file(dir / (stem + ".meta"), w.data());
}

// The names in `dir` with extension `ext` (e.g. ".blk2"), sorted.
std::vector<std::string> files_with(const fs::path& dir, const char* ext) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ext)
      out.push_back(e.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("carousel_persist_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::size_t entries(const fs::path& p) {
    if (!fs::exists(p)) return 0;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(p)) {
      (void)e;
      ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(PersistenceTest, StemRoundTripsAndRejectsNonCanonical) {
  BlockKey key{7, 300, 11};
  EXPECT_EQ(PersistentBlockStore::stem_of(key), "b7_300_11");
  EXPECT_EQ(PersistentBlockStore::parse_stem("b7_300_11"), key);
  EXPECT_FALSE(PersistentBlockStore::parse_stem("b7_300").has_value());
  EXPECT_FALSE(PersistentBlockStore::parse_stem("b07_300_11").has_value());
  EXPECT_FALSE(PersistentBlockStore::parse_stem("x7_300_11").has_value());
  EXPECT_FALSE(PersistentBlockStore::parse_stem("b7_300_11x").has_value());
}

TEST_F(PersistenceTest, DirectoryFlushThrowsInsteadOfFailingSilently) {
  // A rename is durable only once its directory is flushed; the journal
  // truncates behind a snapshot only after that flush returns, so a flush
  // that cannot run must throw, never report success.
  obs::Counter fsyncs;
  EXPECT_NO_THROW(durable::flush_dir(dir_, fsyncs));
  EXPECT_EQ(fsyncs.value(), 1u);
  const fs::path file = dir_ / "plain";
  durable::write_file(file, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_THROW(durable::flush_dir(dir_ / "missing", fsyncs),
               std::system_error);
  EXPECT_THROW(durable::flush_dir(file, fsyncs), std::system_error);
  EXPECT_EQ(fsyncs.value(), 1u);  // failed flushes are not counted
  EXPECT_NO_THROW(durable::flush_file(file, fsyncs));
  EXPECT_EQ(durable::read_file(file), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(PersistenceTest, RecoveryOfEmptyDirectoryIsClean) {
  BlockServer server(0, dir_);
  const RecoveryReport& rec = server.recovery_report();
  EXPECT_EQ(rec.recovered, 0u);
  EXPECT_EQ(rec.quarantined_files, 0u);
  EXPECT_TRUE(rec.damaged.empty());
  EXPECT_TRUE(server.persistent());
  EXPECT_EQ(server.block_count(), 0u);
}

TEST_F(PersistenceTest, BlocksSurviveRestartBitExactly) {
  BlockKey a{1, 0, 0};
  BlockKey b{1, 0, 5};
  auto bytes_a = random_bytes(4096, 1);
  auto bytes_b = random_bytes(100, 2);
  std::uint16_t port = 0;
  {
    BlockServer server(0, dir_);
    port = server.port();
    Client client(port);
    client.put(a, bytes_a);
    client.put(b, bytes_b);
    client.put(b, bytes_b);  // overwrite of an existing key is clean too
  }  // "crash": the object (and every in-memory block) is gone

  BlockServer revived(port, dir_);
  EXPECT_EQ(revived.recovery_report().recovered, 2u);
  EXPECT_EQ(revived.recovery_report().quarantined_files, 0u);
  EXPECT_EQ(revived.block_count(), 2u);
  Client client(port);
  EXPECT_EQ(*client.get(a), bytes_a);
  EXPECT_EQ(*client.get(b), bytes_b);
}

TEST_F(PersistenceTest, DeleteIsDurable) {
  BlockKey key{3, 0, 0};
  {
    BlockServer server(0, dir_);
    Client client(server.port());
    client.put(key, random_bytes(256, 3));
    EXPECT_TRUE(client.remove(key));
  }
  BlockServer revived(0, dir_);
  EXPECT_EQ(revived.recovery_report().recovered, 0u);
  Client client(revived.port());
  EXPECT_EQ(client.verify(key), BlockHealth::kMissing);
}

TEST_F(PersistenceTest, CrashPointsLeaveExactlyTheirTornState) {
  const BlockKey key{2, 1, 4};
  auto bytes = random_bytes(1024, 4);
  const std::uint32_t crc = util::crc32(bytes);

  {
    // Crash mid-write: only a stale (partial) temp file survives; the block
    // as named was never touched.
    PersistentBlockStore store(dir_ / "before_fsync");
    EXPECT_FALSE(store.put(key, bytes, crc, CrashPoint::kBeforeFsync));
    EXPECT_EQ(files_with(dir_ / "before_fsync", ".tmp"),
              std::vector<std::string>{"b2_1_4.blk2.tmp"});
    PersistentBlockStore again(dir_ / "before_fsync");
    RecoveryReport rec = again.recover();
    EXPECT_EQ(rec.stale_temps, 1u);
    EXPECT_EQ(rec.quarantined_files, 1u);
    EXPECT_EQ(rec.recovered, 0u);
    EXPECT_TRUE(rec.damaged.empty());  // nothing committed, nothing damaged
  }
  {
    // Crash after the flush, before the rename: same classification — a
    // temp file is uncommitted by construction, even with a full record.
    PersistentBlockStore store(dir_ / "before_rename");
    EXPECT_FALSE(store.put(key, bytes, crc, CrashPoint::kBeforeRename));
    EXPECT_EQ(fs::file_size(dir_ / "before_rename" / "b2_1_4.blk2.tmp"),
              bytes.size() + 32);
    PersistentBlockStore again(dir_ / "before_rename");
    RecoveryReport rec = again.recover();
    EXPECT_EQ(rec.stale_temps, 1u);
    EXPECT_EQ(rec.quarantined_files, 1u);
    EXPECT_EQ(rec.recovered, 0u);
    EXPECT_TRUE(rec.damaged.empty());
  }
  {
    // Torn write: truncated payload published under a full-length trailer.
    // The one file is quarantined and the key reported damaged.
    PersistentBlockStore store(dir_ / "torn");
    EXPECT_FALSE(store.put(key, bytes, crc, CrashPoint::kTornWrite));
    std::vector<PersistentBlockStore::RecoveredBlock> out;
    PersistentBlockStore again(dir_ / "torn");
    RecoveryReport rec = again.recover(&out);
    EXPECT_EQ(rec.torn_payloads, 1u);
    EXPECT_EQ(rec.quarantined_files, 1u);
    EXPECT_EQ(rec.recovered, 0u);
    EXPECT_TRUE(out.empty());
    ASSERT_EQ(rec.damaged.size(), 1u);
    EXPECT_EQ(rec.damaged[0], key);
  }
}

TEST_F(PersistenceTest, V1ReaderClassifiesCrashPointStates) {
  // The states the v1 writer's crash points left: a stale payload temp, a
  // stale record temp next to a published payload, and a torn pair.
  const BlockKey key{2, 1, 4};
  auto bytes = random_bytes(1024, 4);
  {
    durable::write_file(dir_ / "b2_1_4.blk.tmp",
                        std::span(bytes).first(bytes.size() / 2));
    RecoveryReport rec = PersistentBlockStore(dir_).recover();
    EXPECT_EQ(rec.stale_temps, 1u);
    EXPECT_EQ(rec.quarantined_files, 1u);
    EXPECT_EQ(rec.recovered, 0u);
    EXPECT_TRUE(rec.damaged.empty());
  }
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  {
    // Torn: half the payload published under a full-length record.
    write_v1_pair(dir_, key, std::span(bytes).first(bytes.size() / 2),
                  bytes.size());
    std::vector<PersistentBlockStore::RecoveredBlock> out;
    RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
    EXPECT_EQ(rec.torn_payloads, 1u);
    EXPECT_EQ(rec.quarantined_files, 2u);
    EXPECT_EQ(rec.recovered, 0u);
    EXPECT_TRUE(out.empty());
    ASSERT_EQ(rec.damaged.size(), 1u);
    EXPECT_EQ(rec.damaged[0], key);
    EXPECT_TRUE(files_with(dir_, ".blk2").empty());  // nothing migrated
  }
}

TEST_F(PersistenceTest, RecoveryQuarantinesCrcMismatch) {
  const BlockKey key{5, 0, 2};
  auto bytes = random_bytes(512, 5);
  PersistentBlockStore store(dir_);
  ASSERT_TRUE(store.put(key, bytes, util::crc32(bytes)));
  ASSERT_TRUE(store.corrupt_at_rest(key, 100));

  PersistentBlockStore again(dir_);
  RecoveryReport rec = again.recover();
  EXPECT_EQ(rec.crc_mismatches, 1u);
  EXPECT_EQ(rec.quarantined_files, 1u);
  EXPECT_EQ(rec.recovered, 0u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], key);
  // Quarantined, not deleted: the file moved aside as evidence.
  EXPECT_EQ(entries(again.quarantine_dir()), 1u);
}

TEST_F(PersistenceTest, V1ReaderQuarantinesCrcMismatch) {
  const BlockKey key{5, 0, 2};
  auto bytes = random_bytes(512, 5);
  write_v1_pair(dir_, key, bytes);
  auto rotten = bytes;
  rotten[100] ^= 0x01;
  durable::write_file(dir_ / "b5_0_2.blk", rotten);

  PersistentBlockStore again(dir_);
  RecoveryReport rec = again.recover();
  EXPECT_EQ(rec.crc_mismatches, 1u);
  EXPECT_EQ(rec.quarantined_files, 2u);
  EXPECT_EQ(rec.recovered, 0u);
  EXPECT_EQ(rec.migrated, 0u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], key);
  EXPECT_EQ(entries(again.quarantine_dir()), 2u);
}

TEST_F(PersistenceTest, RecoveryQuarantinesTornTrailer) {
  // A file cut inside its trailer, one too short to hold a trailer at all,
  // and one whose trailer fails its own CRC: none can be trusted.
  auto bytes = random_bytes(256, 15);
  PersistentBlockStore store(dir_);
  const BlockKey cut{7, 0, 0}, stub{7, 0, 1}, garbled{7, 0, 2};
  for (const BlockKey& k : {cut, stub, garbled})
    ASSERT_TRUE(store.put(k, bytes, util::crc32(bytes)));
  fs::resize_file(dir_ / "b7_0_0.blk2", bytes.size() + 20);
  fs::resize_file(dir_ / "b7_0_1.blk2", 31);
  auto file = *durable::read_file(dir_ / "b7_0_2.blk2");
  file[bytes.size() + 12] ^= 0x40;  // inside the trailer's length field
  durable::write_file(dir_ / "b7_0_2.blk2", file);

  RecoveryReport rec = PersistentBlockStore(dir_).recover();
  EXPECT_EQ(rec.torn_payloads, 3u);
  EXPECT_EQ(rec.crc_mismatches, 0u);
  EXPECT_EQ(rec.quarantined_files, 3u);
  EXPECT_EQ(rec.recovered, 0u);
  EXPECT_EQ(rec.damaged, (std::vector<BlockKey>{cut, stub, garbled}));
}

TEST_F(PersistenceTest, RecoveryQuarantinesTrailerNamingAnotherKey) {
  // A stray copy under another (valid) name: its trailer names the key it
  // was written for, so it is no copy of the key its name claims.
  const BlockKey key{1, 0, 0};
  auto bytes = random_bytes(128, 8);
  PersistentBlockStore store(dir_);
  ASSERT_TRUE(store.put(key, bytes, util::crc32(bytes)));
  fs::copy_file(dir_ / "b1_0_0.blk2", dir_ / "b9_9_9.blk2");

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
  EXPECT_EQ(rec.recovered, 1u);
  EXPECT_EQ(rec.torn_payloads, 1u);
  EXPECT_EQ(rec.quarantined_files, 1u);
  EXPECT_EQ(rec.damaged, (std::vector<BlockKey>{{9, 9, 9}}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, key);
  EXPECT_EQ(out[0].bytes, bytes);
}

TEST_F(PersistenceTest, RecoveryQuarantinesOrphanedCommitRecord) {
  // The "manifest points at a deleted file" case, in format v1: the record
  // survives, the payload is gone.
  const BlockKey key{6, 0, 0};
  write_v1_pair(dir_, key, random_bytes(64, 6));
  fs::remove(dir_ / (PersistentBlockStore::stem_of(key) + ".blk"));

  RecoveryReport rec = PersistentBlockStore(dir_).recover();
  EXPECT_EQ(rec.orphaned_metas, 1u);
  EXPECT_EQ(rec.quarantined_files, 1u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], key);
}

TEST_F(PersistenceTest, RecoveryQuarantinesOrphanedPayload) {
  // A v1 payload without its commit record (interrupted erase, or a crash
  // between the two publishes): untrusted, quarantined, reported.
  const BlockKey key{6, 1, 0};
  write_v1_pair(dir_, key, random_bytes(64, 7));
  fs::remove(dir_ / (PersistentBlockStore::stem_of(key) + ".meta"));

  RecoveryReport rec = PersistentBlockStore(dir_).recover();
  EXPECT_EQ(rec.orphaned_payloads, 1u);
  EXPECT_EQ(rec.quarantined_files, 1u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], key);
}

TEST_F(PersistenceTest, RecoveryQuarantinesDuplicateClaimsOnOneKey) {
  const BlockKey key{1, 0, 0};
  auto bytes = random_bytes(128, 8);
  write_v1_pair(dir_, key, bytes);
  // A stray copy of the v1 pair under another (valid) stem claims the same
  // key; the lexicographically first intact pair must win.
  fs::copy_file(dir_ / "b1_0_0.blk", dir_ / "b9_9_9.blk");
  fs::copy_file(dir_ / "b1_0_0.meta", dir_ / "b9_9_9.meta");

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
  EXPECT_EQ(rec.recovered, 1u);
  EXPECT_EQ(rec.duplicates, 1u);
  EXPECT_EQ(rec.quarantined_files, 2u);
  EXPECT_TRUE(rec.damaged.empty());  // the key itself loaded intact
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, key);
  EXPECT_EQ(out[0].bytes, bytes);
}

TEST_F(PersistenceTest, RecoveryQuarantinesZeroLengthTempFile) {
  const BlockKey key{4, 0, 0};
  auto bytes = random_bytes(128, 9);
  PersistentBlockStore store(dir_);
  ASSERT_TRUE(store.put(key, bytes, util::crc32(bytes)));
  { std::ofstream(dir_ / "b4_0_1.blk.tmp"); }  // crash before any write()

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
  EXPECT_EQ(rec.stale_temps, 1u);
  EXPECT_EQ(rec.quarantined_files, 1u);
  EXPECT_EQ(rec.recovered, 1u);  // the intact neighbour still loads
  EXPECT_TRUE(rec.damaged.empty());
}

TEST_F(PersistenceTest, V2ZeroLengthTempFileIsStale) {
  const BlockKey key{4, 0, 0};
  auto bytes = random_bytes(128, 9);
  PersistentBlockStore store(dir_);
  ASSERT_TRUE(store.put(key, bytes, util::crc32(bytes)));
  { std::ofstream(dir_ / "b4_0_1.blk2.tmp"); }  // crash before any write()
  { std::ofstream(dir_ / "b4_0_0.blk2.tmp"); }  // a rewrite of a live key

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
  EXPECT_EQ(rec.stale_temps, 2u);
  EXPECT_EQ(rec.quarantined_files, 2u);
  EXPECT_EQ(rec.recovered, 1u);  // the published copy is untouched
  EXPECT_TRUE(rec.damaged.empty());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bytes, bytes);
}

TEST_F(PersistenceTest, V1DirectoryMigratesToV2Files) {
  std::map<BlockKey, std::vector<std::uint8_t>> blocks;
  for (std::uint32_t i = 0; i < 5; ++i)
    blocks[BlockKey{3, i / 2, i}] = random_bytes(100 + 50 * i, 30 + i);
  for (const auto& [key, bytes] : blocks) write_v1_pair(dir_, key, bytes);

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
  EXPECT_EQ(rec.recovered, 5u);
  EXPECT_EQ(rec.migrated, 5u);
  EXPECT_EQ(rec.quarantined_files, 0u);
  EXPECT_TRUE(rec.damaged.empty());
  ASSERT_EQ(out.size(), 5u);
  for (const auto& b : out) EXPECT_EQ(b.bytes, blocks.at(b.key));
  // Only v2 files are left, one per block; no pair half survives.
  EXPECT_EQ(files_with(dir_, ".blk2").size(), 5u);
  EXPECT_TRUE(files_with(dir_, ".blk").empty());
  EXPECT_TRUE(files_with(dir_, ".meta").empty());
  EXPECT_TRUE(files_with(dir_, ".tmp").empty());

  // The next scan reads the v2 files and has nothing left to migrate, and
  // a server on the directory serves every block bit-exactly.
  rec = PersistentBlockStore(dir_).recover();
  EXPECT_EQ(rec.recovered, 5u);
  EXPECT_EQ(rec.migrated, 0u);
  EXPECT_EQ(rec.quarantined_files, 0u);
  BlockServer server(0, dir_);
  Client client(server.port());
  for (const auto& [key, bytes] : blocks) EXPECT_EQ(*client.get(key), bytes);
}

TEST_F(PersistenceTest, InterruptedMigrationResolvesToV2) {
  // A crash after a migration published its v2 file but before it removed
  // the pair: both formats hold the key.  The v2 file wins and the pair is
  // quarantined as its duplicate, not reported damaged.  (The pair's bytes
  // differ here only so the test can tell which copy loaded.)
  const BlockKey both{8, 0, 0}, half{8, 0, 1};
  auto v2_bytes = random_bytes(300, 40);
  auto v1_bytes = random_bytes(300, 41);
  PersistentBlockStore store(dir_);
  ASSERT_TRUE(store.put(both, v2_bytes, util::crc32(v2_bytes)));
  ASSERT_TRUE(store.put(half, v2_bytes, util::crc32(v2_bytes)));
  write_v1_pair(dir_, both, v1_bytes);
  // Crash mid-removal: the record went first, the payload is still there.
  write_v1_pair(dir_, half, v1_bytes);
  fs::remove(dir_ / "b8_0_1.meta");

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
  EXPECT_EQ(rec.recovered, 2u);
  EXPECT_EQ(rec.migrated, 0u);
  EXPECT_EQ(rec.duplicates, 2u);
  EXPECT_EQ(rec.orphaned_payloads, 0u);
  EXPECT_EQ(rec.quarantined_files, 3u);
  EXPECT_TRUE(rec.damaged.empty());
  ASSERT_EQ(out.size(), 2u);
  for (const auto& b : out) EXPECT_EQ(b.bytes, v2_bytes);
  EXPECT_TRUE(files_with(dir_, ".blk").empty());
  EXPECT_TRUE(files_with(dir_, ".meta").empty());
}

TEST_F(PersistenceTest, QuarantinedKeyAnswersCorruptUntilRePut) {
  const BlockKey key{11, 0, 3};
  auto bytes = random_bytes(2048, 10);
  {
    PersistentBlockStore store(dir_);
    ASSERT_FALSE(
        store.put(key, bytes, util::crc32(bytes), CrashPoint::kTornWrite));
  }
  BlockServer server(0, dir_);
  ASSERT_EQ(server.recovery_report().damaged.size(), 1u);
  Client client(server.port(), fast_policy());
  // kCorrupt — not kNotFound — so the scrubber repairs instead of ignoring.
  EXPECT_EQ(client.verify(key), BlockHealth::kCorrupt);
  EXPECT_THROW(client.get(key), CorruptBlockError);
  // A fresh PUT (what repair_block issues) clears the quarantine mark...
  client.put(key, bytes);
  EXPECT_EQ(client.verify(key), BlockHealth::kOk);
  EXPECT_EQ(*client.get(key), bytes);
  // ...durably: the healed copy survives the next restart.
  std::uint16_t port = server.port();
  server.stop();
  BlockServer revived(port, dir_);
  EXPECT_EQ(revived.recovery_report().recovered, 1u);
  Client again(port, fast_policy());
  EXPECT_EQ(*again.get(key), bytes);
}

TEST_F(PersistenceTest, AtRestCorruptionSurvivesRestartIntoQuarantine) {
  const BlockKey key{12, 0, 0};
  auto bytes = random_bytes(1024, 11);
  std::uint16_t port = 0;
  {
    BlockServer server(0, dir_);
    port = server.port();
    Client client(port);
    client.put(key, bytes);
    // corrupt_block writes through to disk, so the rot is durable.
    ASSERT_TRUE(server.corrupt_block(key, 37));
  }
  BlockServer revived(port, dir_);
  EXPECT_EQ(revived.recovery_report().crc_mismatches, 1u);
  Client client(port, fast_policy());
  EXPECT_EQ(client.verify(key), BlockHealth::kCorrupt);
}

TEST_F(PersistenceTest, CrashFaultInjectionEndToEnd) {
  const BlockKey intact{20, 0, 0};
  const BlockKey torn{20, 0, 1};
  auto bytes = random_bytes(4096, 12);
  std::uint16_t port = 0;
  {
    BlockServer server(0, dir_);
    port = server.port();
    Client client(port, fast_policy());
    client.put(intact, bytes);

    auto plan = std::make_shared<FaultPlan>(1);
    plan->add({.action = FaultAction::kTornWrite, .op = Op::kPut});
    server.set_fault_plan(plan);
    // The "dying" server severs the connection unanswered; a one-shot
    // client surfaces that as a transport failure (a retry would just
    // overwrite the torn state and mask the crash).
    Client victim(port, one_shot());
    EXPECT_THROW(victim.put(torn, bytes), TransportError);
    EXPECT_EQ(plan->injected(), 1u);
    // The in-memory copy was deliberately not updated: RAM dies anyway.
    EXPECT_EQ(server.block_count(), 1u);
  }
  BlockServer revived(port, dir_);
  const RecoveryReport& rec = revived.recovery_report();
  EXPECT_EQ(rec.recovered, 1u);
  EXPECT_EQ(rec.torn_payloads, 1u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], torn);
  Client client(port, fast_policy());
  EXPECT_EQ(*client.get(intact), bytes);
  EXPECT_EQ(client.verify(torn), BlockHealth::kCorrupt);
}

TEST_F(PersistenceTest, PersistMetricsFlowThroughServerRegistry) {
  const BlockKey key{30, 0, 0};
  auto bytes = random_bytes(512, 13);
  {
    BlockServer server(0, dir_);
    Client client(server.port());
    client.put(key, bytes);
    obs::Snapshot snap = server.metrics().snapshot();
    EXPECT_EQ(snap.counters.at("carousel_persist_commits_total"), 1u);
    // One fsync of the file before its rename, one of the directory after.
    EXPECT_EQ(snap.counters.at("carousel_persist_fsyncs_total"), 2u);
    EXPECT_EQ(snap.counters.at("carousel_persist_bytes_written_total"),
              bytes.size());
  }
  BlockServer revived(0, dir_);
  obs::Snapshot snap = revived.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("carousel_persist_recovered_blocks_total"), 1u);
  EXPECT_EQ(snap.counters.at("carousel_persist_quarantined_files_total"), 0u);
  EXPECT_EQ(snap.histograms.at("carousel_persist_recovery_seconds").count,
            1u);
  // The wire METRICS op exposes the same instruments.
  Client client(revived.port());
  EXPECT_NE(client.metrics_text().find("carousel_persist_recovered_blocks"),
            std::string::npos);
}

TEST_F(PersistenceTest, FsyncOffKeepsTheWritePathShape) {
  PersistentBlockStore::Options opts;
  opts.fsync = false;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  const BlockKey key{40, 0, 0};
  auto bytes = random_bytes(256, 14);
  PersistentBlockStore store(dir_, opts);
  ASSERT_TRUE(store.put(key, bytes, util::crc32(bytes)));
  EXPECT_EQ(reg.snapshot().counters.at("carousel_persist_fsyncs_total"), 0u);

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  PersistentBlockStore again(dir_, opts);
  RecoveryReport rec = again.recover(&out);
  EXPECT_EQ(rec.recovered, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bytes, bytes);
}

// The ISSUE's acceptance scenario: a fleet of persistent servers, a torn
// final write, a kill, a restart on the same directories — recovery must
// quarantine exactly the torn block, reads stay bit-exact, and one scrub
// sweep heals the loss at the paper's d/(d-k+1) repair traffic.
TEST_F(PersistenceTest, KillAndRestartWithTornWriteHealsAtOptimalTraffic) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  std::vector<std::unique_ptr<BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < code.n(); ++i) {
    servers.push_back(std::make_unique<BlockServer>(
        0, dir_ / ("s" + std::to_string(i))));
    ports.push_back(servers.back()->port());
  }
  obs::MetricsRegistry reg;
  StoreOptions opts;
  opts.policy = fast_policy();
  opts.registry = &reg;
  CarouselStore store(code, ports, block, opts);
  auto file = random_bytes(2 * code.k() * block, 77);  // two stripes
  ASSERT_EQ(store.put_file(5, file), 2u);

  // Mid-workload crash on server 4: its final write — an overwrite of
  // block (5,1,4) — tears, taking the previously-good copy with it.
  const BlockKey victim_key{5, 1, 4};
  auto plan = std::make_shared<FaultPlan>(2);
  plan->add({.action = FaultAction::kTornWrite, .op = Op::kPut});
  servers[4]->set_fault_plan(plan);
  Client writer(ports[4], one_shot());
  EXPECT_THROW(writer.put(victim_key, random_bytes(block, 78)),
               TransportError);

  // Kill it (object death == SIGKILL minus the fork plumbing: every byte of
  // RAM state is gone) and restart on the same port and directory.
  servers[4]->stop();
  servers[4].reset();
  servers[4] = std::make_unique<BlockServer>(ports[4], dir_ / "s4");

  // (a) recovery quarantined only the torn block.
  const RecoveryReport& rec = servers[4]->recovery_report();
  EXPECT_EQ(rec.recovered, 1u);  // the stripe-0 block reloaded intact
  EXPECT_EQ(rec.torn_payloads, 1u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], victim_key);

  // (b) the file reads back bit-exactly through the degraded path — and
  // the store's long-lived clients survived the restart (client.h promise).
  EXPECT_EQ(store.read_file(5, file.size()), file);

  // (c) one scrubber sweep heals the quarantined block at optimal traffic:
  // d/(d-k+1) = 2 block sizes for (12,6,10), not k = 6.
  Scrubber scrubber(store);
  auto sweep = scrubber.run_once();
  EXPECT_EQ(sweep.corrupt_found, 1u);
  EXPECT_EQ(sweep.missing_found, 0u);
  EXPECT_EQ(sweep.repairs, 1u);
  EXPECT_EQ(sweep.repair_failures, 0u);
  EXPECT_EQ(sweep.repair_bytes, 2u * block);

  // The heal is durable: restart the same server once more and everything
  // verifies clean, no quarantine, bit-exact read.
  servers[4]->stop();
  servers[4].reset();
  servers[4] = std::make_unique<BlockServer>(ports[4], dir_ / "s4");
  EXPECT_EQ(servers[4]->recovery_report().recovered, 2u);
  EXPECT_EQ(servers[4]->recovery_report().quarantined_files, 0u);
  for (std::uint32_t s = 0; s < 2; ++s)
    for (std::uint32_t i = 0; i < code.n(); ++i)
      EXPECT_EQ(store.verify_block(5, s, i), BlockState::kOk)
          << "stripe " << s << " block " << i;
  EXPECT_EQ(store.read_file(5, file.size()), file);
}

}  // namespace
}  // namespace carousel::net
