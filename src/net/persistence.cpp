#include "net/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "net/durable_io.h"
#include "util/crc32.h"

namespace carousel::net {

namespace fs = std::filesystem;

namespace {

// Commit-record layout (little-endian, written with the wire Writer):
//   u32 magic, key (3 x u32), u64 payload length, u32 payload CRC-32,
//   u32 CRC-32 of the preceding 28 bytes.
// Format v2 appends it to the payload as a trailer under kRecordMagic;
// format v1 kept it in a `.meta` file of its own under kLegacyMagic.
constexpr std::uint32_t kRecordMagic = 0x324D4243;  // "CBM2"
constexpr std::uint32_t kLegacyMagic = 0x314D4243;  // "CBM1"
constexpr std::size_t kRecordBytes = 32;

constexpr const char* kBlockExt = ".blk2";     // v2: payload + trailer
constexpr const char* kLegacyBlkExt = ".blk";  // v1: payload
constexpr const char* kLegacyMetaExt = ".meta";  // v1: commit record

struct CommitRecord {
  BlockKey key;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

std::vector<std::uint8_t> serialize_record(std::uint32_t magic,
                                           const BlockKey& key,
                                           std::uint64_t payload_len,
                                           std::uint32_t payload_crc) {
  Writer w;
  w.u32(magic);
  w.key(key);
  w.u64(payload_len);
  w.u32(payload_crc);
  w.u32(util::crc32(w.data()));
  return w.data();
}

std::optional<CommitRecord> parse_record(std::uint32_t magic,
                                         std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kRecordBytes) return std::nullopt;
  if (util::crc32(bytes.first(kRecordBytes - 4)) !=
      Reader(bytes.subspan(kRecordBytes - 4)).u32())
    return std::nullopt;
  Reader r(bytes);
  if (r.u32() != magic) return std::nullopt;
  CommitRecord rec;
  rec.key = r.key();
  rec.payload_len = r.u64();
  rec.payload_crc = r.u32();
  return rec;
}

}  // namespace

std::string RecoveryReport::to_string() const {
  std::ostringstream out;
  out << "recovered " << recovered << " intact block(s), quarantined "
      << quarantined_files << " file(s) in " << seconds << " s\n";
  out << "  torn payloads:      " << torn_payloads << "\n";
  out << "  crc mismatches:     " << crc_mismatches << "\n";
  out << "  orphaned records:   " << orphaned_metas << "\n";
  out << "  orphaned payloads:  " << orphaned_payloads << "\n";
  out << "  duplicate files:    " << duplicates << "\n";
  out << "  stale temp files:   " << stale_temps << "\n";
  out << "  migrated from v1:   " << migrated << "\n";
  out << "  damaged keys:      ";
  if (damaged.empty()) out << " none";
  for (const BlockKey& k : damaged)
    out << " " << k.file << "/" << k.stripe << "/" << k.index;
  out << "\n";
  return out.str();
}

std::string PersistentBlockStore::stem_of(const BlockKey& key) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "b%" PRIu32 "_%" PRIu32 "_%" PRIu32, key.file,
                key.stripe, key.index);
  return buf;
}

std::optional<BlockKey> PersistentBlockStore::parse_stem(
    const std::string& stem) {
  BlockKey key;
  char trailing = 0;
  if (std::sscanf(stem.c_str(), "b%" SCNu32 "_%" SCNu32 "_%" SCNu32 "%c",
                  &key.file, &key.stripe, &key.index, &trailing) != 3)
    return std::nullopt;
  // Reject non-canonical spellings (leading zeros, signs, whitespace) so
  // stem_of() and parse_stem() stay exact inverses.
  if (stem_of(key) != stem) return std::nullopt;
  return key;
}

PersistentBlockStore::PersistentBlockStore(fs::path dir)
    : PersistentBlockStore(std::move(dir), Options{}) {}

PersistentBlockStore::PersistentBlockStore(fs::path dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  fs::create_directories(dir_);
  auto& reg =
      options_.registry ? *options_.registry : obs::MetricsRegistry::global();
  fsyncs_ = &reg.counter("carousel_persist_fsyncs_total");
  commits_ = &reg.counter("carousel_persist_commits_total");
  bytes_written_ = &reg.counter("carousel_persist_bytes_written_total");
  recovered_total_ = &reg.counter("carousel_persist_recovered_blocks_total");
  quarantined_total_ = &reg.counter("carousel_persist_quarantined_files_total");
  recovery_seconds_ = &reg.histogram("carousel_persist_recovery_seconds");
}

void PersistentBlockStore::flush_file(const fs::path& path) const {
  if (options_.fsync) durable::flush_file(path, *fsyncs_);
}

void PersistentBlockStore::flush_dir(const fs::path& path) const {
  if (options_.fsync) durable::flush_dir(path, *fsyncs_);
}

void PersistentBlockStore::publish(const fs::path& from,
                                   const fs::path& to) const {
  // The bytes must be on stable storage before the rename makes them
  // reachable under their final name — otherwise a crash could publish a
  // file whose content never hit the platter.  check_invariants.py rule 4
  // lints that this fsync-before-rename order holds for every rename here.
  flush_file(from);
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec)
    throw fs::filesystem_error("rename", from, to, ec);
}

fs::path PersistentBlockStore::path_of(const BlockKey& key) const {
  return dir_ / (stem_of(key) + kBlockExt);
}

fs::path PersistentBlockStore::write_temp(const BlockKey& key,
                                          std::span<const std::uint8_t> payload,
                                          std::uint64_t claimed_len,
                                          std::uint32_t crc) const {
  const fs::path tmp = path_of(key).string() + ".tmp";
  durable::write_file(
      tmp, {payload, serialize_record(kRecordMagic, key, claimed_len, crc)});
  return tmp;
}

bool PersistentBlockStore::put(const BlockKey& key,
                               std::span<const std::uint8_t> bytes,
                               std::uint32_t crc, CrashPoint crash) {
  const std::span<const std::uint8_t> half = bytes.first(bytes.size() / 2);
  if (crash == CrashPoint::kBeforeFsync) {
    // Power died mid-write: half the payload reached the page cache, no
    // flush, no publication.  Only a stale temp file survives.
    durable::write_file(path_of(key).string() + ".tmp", half);
    return false;
  }
  if (crash == CrashPoint::kBeforeRename) {
    // The whole record is durable in the temp file but was never published;
    // the block as named never changed.  Recovery discards the temp.
    flush_file(write_temp(key, bytes, bytes.size(), crc));
    return false;
  }
  if (crash == CrashPoint::kTornWrite) {
    // A truncated payload gets published under a full-length trailer — what
    // a disk that acknowledged unwritten sectors leaves behind.  Recovery
    // must catch the length mismatch and quarantine.
    publish(write_temp(key, half, bytes.size(), crc), path_of(key));
    flush_dir(dir_);
    return false;
  }

  // One file, published by one rename: payload and trailer become visible
  // together or not at all, and the directory fsync makes the name durable
  // before the PUT is acknowledged.
  publish(write_temp(key, bytes, bytes.size(), crc), path_of(key));
  flush_dir(dir_);
  commits_->inc();
  bytes_written_->inc(bytes.size());
  return true;
}

bool PersistentBlockStore::erase(const BlockKey& key) {
  std::error_code ec;
  const bool had = fs::remove(path_of(key), ec);
  if (had) flush_dir(dir_);
  return had;
}

bool PersistentBlockStore::corrupt_at_rest(const BlockKey& key,
                                           std::size_t offset) {
  const fs::path file = path_of(key);
  int fd = ::open(file.c_str(), O_RDWR | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) return false;
  const off_t size = ::lseek(fd, 0, SEEK_END) - off_t{kRecordBytes};
  if (size <= 0) {
    ::close(fd);
    return false;
  }
  const off_t pos =
      static_cast<off_t>(offset % static_cast<std::size_t>(size));
  std::uint8_t byte = 0;
  bool ok = ::pread(fd, &byte, 1, pos) == 1;
  byte ^= 0x01;
  ok = ok && ::pwrite(fd, &byte, 1, pos) == 1;
  ::close(fd);
  return ok;
}

void PersistentBlockStore::quarantine(const fs::path& path,
                                      RecoveryReport& report) {
  fs::create_directories(quarantine_dir());
  fs::path dst = quarantine_dir() / path.filename();
  for (int i = 1; fs::exists(dst); ++i)
    dst = quarantine_dir() / (path.filename().string() + "." +
                              std::to_string(i));
  // Moved, never deleted: a damaged file is evidence.  publish() flushes
  // before the move, which is harmless here and keeps one rename path.
  publish(path, dst);
  ++report.quarantined_files;
  quarantined_total_->inc();
}

RecoveryReport PersistentBlockStore::recover(std::vector<RecoveredBlock>* out) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryReport report;

  // Classify directory entries.  std::set iteration gives a deterministic
  // (lexicographic) processing order, so duplicate claims on one key always
  // resolve the same way.
  std::vector<fs::path> temps;
  std::set<std::string> block_stems;
  std::set<std::string> meta_stems;
  std::set<std::string> blk_stems;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".tmp")
      temps.push_back(p);
    else if (p.extension() == kBlockExt)
      block_stems.insert(p.stem().string());
    else if (p.extension() == kLegacyMetaExt)
      meta_stems.insert(p.stem().string());
    else if (p.extension() == kLegacyBlkExt)
      blk_stems.insert(p.stem().string());
    // Anything else in the directory is not ours; leave it alone.
  }

  // A temp file is an uncommitted write by construction (the rename that
  // would have published it never happened): always quarantine.  This
  // covers both crash-before-fsync and crash-before-rename, including the
  // zero-length temp an early crash leaves.
  for (const fs::path& t : temps) {
    quarantine(t, report);
    ++report.stale_temps;
  }

  std::set<BlockKey> loaded;
  auto mark_damaged = [&report](const std::optional<BlockKey>& key) {
    if (key) report.damaged.push_back(*key);
  };

  // v2 files first: where an interrupted migration left a key in both
  // formats, the v2 file wins.
  for (const std::string& stem : block_stems) {
    const fs::path path = dir_ / (stem + kBlockExt);
    const std::optional<BlockKey> key = parse_stem(stem);
    auto bytes = durable::read_file(path);
    std::optional<CommitRecord> rec;
    if (bytes && bytes->size() >= kRecordBytes)
      rec = parse_record(kRecordMagic,
                         std::span(*bytes).last(kRecordBytes));
    // The trailer must parse, name this file's own key and match the
    // payload's length; otherwise the file is torn (or a stray copy under
    // another name) and its payload cannot be trusted.
    if (!rec || !key || rec->key != *key ||
        rec->payload_len != bytes->size() - kRecordBytes) {
      ++report.torn_payloads;
      mark_damaged(key);
      quarantine(path, report);
      continue;
    }
    bytes->resize(bytes->size() - kRecordBytes);
    if (util::crc32(*bytes) != rec->payload_crc) {
      ++report.crc_mismatches;
      report.damaged.push_back(*key);
      quarantine(path, report);
      continue;
    }
    loaded.insert(*key);
    ++report.recovered;
    if (out) out->push_back({*key, std::move(*bytes), rec->payload_crc});
  }

  // v1 pairs, classified as format v1 always was.  Intact ones are
  // migrated below; the rest are quarantined here.
  struct Legacy {
    std::string stem;
    CommitRecord rec;
  };
  std::vector<Legacy> migrate;
  for (const std::string& stem : meta_stems) {
    const fs::path meta_p = dir_ / (stem + kLegacyMetaExt);
    const fs::path blk_p = dir_ / (stem + kLegacyBlkExt);
    const bool have_blk = blk_stems.erase(stem) > 0;

    auto meta_bytes = durable::read_file(meta_p);
    const std::optional<CommitRecord> rec =
        meta_bytes ? parse_record(kLegacyMagic, *meta_bytes) : std::nullopt;
    if (!rec) {
      // The commit record itself is torn or unreadable; without it the
      // payload cannot be trusted either.
      ++report.torn_payloads;
      mark_damaged(parse_stem(stem));
      quarantine(meta_p, report);
      if (have_blk) quarantine(blk_p, report);
      continue;
    }
    if (!have_blk) {
      // A record naming a payload that is gone — the "manifest points at a
      // deleted file" case.
      ++report.orphaned_metas;
      report.damaged.push_back(rec->key);
      quarantine(meta_p, report);
      continue;
    }
    auto payload = durable::read_file(blk_p);
    const bool intact = payload && payload->size() == rec->payload_len &&
                        util::crc32(*payload) == rec->payload_crc;
    if (!intact) {
      if (payload && payload->size() != rec->payload_len)
        ++report.torn_payloads;
      else
        ++report.crc_mismatches;
      report.damaged.push_back(rec->key);
      quarantine(blk_p, report);
      quarantine(meta_p, report);
      continue;
    }
    if (!loaded.insert(rec->key).second) {
      // A second intact claim on an already-loaded key (a stray copy, or
      // the pair an interrupted migration already rewrote as v2): the v2
      // file or the lexicographically first pair won; move this one aside.
      ++report.duplicates;
      quarantine(blk_p, report);
      quarantine(meta_p, report);
      continue;
    }
    // Migrate through the PUT's crash-atomic path: the v2 file is published
    // before the pair is touched, so a crash at any point leaves either the
    // pair, or the v2 file (plus a pair that the next scan quarantines as
    // its duplicate).
    publish(write_temp(rec->key, *payload, rec->payload_len, rec->payload_crc),
            path_of(rec->key));
    ++report.recovered;
    ++report.migrated;
    migrate.push_back({stem, *rec});
    if (out) out->push_back({rec->key, std::move(*payload), rec->payload_crc});
  }
  if (!migrate.empty()) {
    // The v2 names must be durable before any pair they replace is gone.
    flush_dir(dir_);
    std::error_code ec;
    for (const Legacy& l : migrate) {
      // Record first: an interrupted removal leaves a payload whose key is
      // already loaded, which the next scan quarantines as a duplicate.
      fs::remove(dir_ / (l.stem + kLegacyMetaExt), ec);
      fs::remove(dir_ / (l.stem + kLegacyBlkExt), ec);
    }
  }

  // v1 payloads without a commit record: the write never committed (or an
  // erase was interrupted after the record was removed).  Untrusted — unless
  // its key already loaded, in which case it is a leftover of a migration.
  for (const std::string& stem : blk_stems) {
    const std::optional<BlockKey> key = parse_stem(stem);
    if (key && loaded.contains(*key)) {
      ++report.duplicates;
    } else {
      ++report.orphaned_payloads;
      mark_damaged(key);
    }
    quarantine(dir_ / (stem + kLegacyBlkExt), report);
  }

  if (report.quarantined_files > 0 || !migrate.empty()) flush_dir(dir_);

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  recovered_total_->inc(report.recovered);
  recovery_seconds_->observe(report.seconds);
  return report;
}

}  // namespace carousel::net
