#include "net/meta_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <sstream>
#include <utility>

#include "net/durable_io.h"
#include "net/errors.h"
#include "net/protocol.h"
#include "util/crc32.h"

namespace carousel::net {

namespace fs = std::filesystem;

namespace {

// Journal record framing (little-endian, written with the wire Writer):
//   u32 magic "CMJ1", u8 kind, u64 lsn, u32 payload length, payload,
//   u32 CRC-32 of everything preceding.
// A record is trusted only when its CRC verifies; the first byte position
// that fails any structural check marks the torn tail.
constexpr std::uint32_t kJournalMagic = 0x314A4D43;  // "CMJ1"
constexpr std::size_t kRecordHeaderBytes = 4 + 1 + 8 + 4;
constexpr std::size_t kRecordTrailerBytes = 4;
// A put intent for a huge file is still only its placement table; anything
// past this is garbage bytes, not a record.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

// Snapshot layout: u32 magic "CMS1", u32 config fingerprint, u64 lsn,
// serialized State, u32 CRC-32 of everything preceding.
constexpr std::uint32_t kSnapshotMagic = 0x31534D43;  // "CMS1"

// Record kinds.  Values are on-disk format — append only, never renumber.
enum : std::uint8_t {
  kRecConfig = 0,      // u32 config fingerprint (first record of a journal)
  kRecAddServer = 1,   // u16 port, u64 domain, u8 labeled
  kRecPutIntent = 2,   // u32 file, u64 bytes, u32 stripes, u32 width, rows
  kRecPutCommit = 3,   // u32 file
  kRecPutAbort = 4,    // u32 file
  kRecRehomeIntent = 5,  // u32 file, u32 stripe, u32 index, u32 target
  kRecRehomeCommit = 6,  // u32 file, u32 stripe, u32 index, u32 server
  kRecRehomeAbort = 7,   // u32 file, u32 stripe, u32 index
  kRecHedge = 8,  // u8 enabled, u64 pct bits, u64 floor, u64 initial, u64 min
  kRecKindCount = 9,
};

const char* kind_name(std::uint8_t kind) {
  switch (kind) {
    case kRecConfig: return "config";
    case kRecAddServer: return "add_server";
    case kRecPutIntent: return "put_intent";
    case kRecPutCommit: return "put_commit";
    case kRecPutAbort: return "put_abort";
    case kRecRehomeIntent: return "rehome_intent";
    case kRecRehomeCommit: return "rehome_commit";
    case kRecRehomeAbort: return "rehome_abort";
    case kRecHedge: return "hedge";
    default: return "unknown";
  }
}

std::vector<std::uint8_t> serialize_record(std::uint8_t kind,
                                           std::uint64_t lsn,
                                           std::span<const std::uint8_t> pay) {
  Writer w;
  w.u32(kJournalMagic);
  w.u8(kind);
  w.u64(lsn);
  w.u32(static_cast<std::uint32_t>(pay.size()));
  w.bytes(pay);
  w.u32(util::crc32(w.data()));
  return w.data();
}

struct ParsedRecord {
  std::uint8_t kind = 0;
  std::uint64_t lsn = 0;
  std::vector<std::uint8_t> payload;
  std::size_t total_bytes = 0;  // framing + payload + trailer
};

/// Parses one record at the front of `bytes`.  nullopt means the bytes do
/// not frame an intact record — on the append path that cannot happen, on
/// replay it marks the torn tail.
std::optional<ParsedRecord> parse_record(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kRecordHeaderBytes + kRecordTrailerBytes)
    return std::nullopt;
  Reader r(bytes);
  if (r.u32() != kJournalMagic) return std::nullopt;
  ParsedRecord rec;
  rec.kind = r.u8();
  if (rec.kind >= kRecKindCount) return std::nullopt;
  rec.lsn = r.u64();
  const std::uint32_t len = r.u32();
  if (len > kMaxRecordBytes) return std::nullopt;
  rec.total_bytes = kRecordHeaderBytes + len + kRecordTrailerBytes;
  if (bytes.size() < rec.total_bytes) return std::nullopt;
  const std::uint32_t want =
      util::crc32(bytes.first(kRecordHeaderBytes + len));
  if (Reader(bytes.subspan(kRecordHeaderBytes + len, 4)).u32() != want)
    return std::nullopt;
  auto body = r.bytes(len);
  rec.payload.assign(body.begin(), body.end());
  return rec;
}

std::vector<std::uint8_t> serialize_file_record(
    std::uint32_t file, const MetaLog::FileRecord& rec) {
  Writer w;
  w.u32(file);
  w.u64(rec.file_bytes);
  w.u32(rec.stripes);
  const std::uint32_t width =
      rec.placement.empty() ? 0
                            : static_cast<std::uint32_t>(rec.placement[0].size());
  w.u32(width);
  for (const auto& row : rec.placement)
    for (std::uint32_t server : row) w.u32(server);
  return w.data();
}

std::pair<std::uint32_t, MetaLog::FileRecord> parse_file_record(Reader& r) {
  const std::uint32_t file = r.u32();
  MetaLog::FileRecord rec;
  rec.file_bytes = r.u64();
  rec.stripes = r.u32();
  const std::uint32_t width = r.u32();
  rec.placement.assign(rec.stripes, {});
  for (std::uint32_t s = 0; s < rec.stripes; ++s) {
    rec.placement[s].reserve(width);
    for (std::uint32_t i = 0; i < width; ++i)
      rec.placement[s].push_back(r.u32());
  }
  return {file, rec};
}

std::vector<std::uint8_t> serialize_state(const MetaLog::State& state,
                                          std::uint32_t config_crc,
                                          std::uint64_t lsn) {
  Writer w;
  w.u32(kSnapshotMagic);
  w.u32(config_crc);
  w.u64(lsn);
  w.u32(static_cast<std::uint32_t>(state.manifest.size()));
  for (const auto& [file, rec] : state.manifest)
    w.bytes(serialize_file_record(file, rec));
  w.u32(static_cast<std::uint32_t>(state.pending_puts.size()));
  for (const auto& [file, rec] : state.pending_puts)
    w.bytes(serialize_file_record(file, rec));
  w.u32(static_cast<std::uint32_t>(state.pending_rehomes.size()));
  for (const auto& ri : state.pending_rehomes) {
    w.u32(ri.file);
    w.u32(ri.stripe);
    w.u32(ri.index);
    w.u32(ri.target);
  }
  w.u32(static_cast<std::uint32_t>(state.spares.size()));
  for (const auto& sp : state.spares) {
    w.u16(sp.port);
    w.u64(sp.domain);
    w.u8(sp.labeled ? 1 : 0);
  }
  w.u8(state.hedge ? 1 : 0);
  if (state.hedge) {
    w.u8(state.hedge->enabled ? 1 : 0);
    w.u64(std::bit_cast<std::uint64_t>(state.hedge->percentile));
    w.u64(static_cast<std::uint64_t>(state.hedge->floor_ms));
    w.u64(static_cast<std::uint64_t>(state.hedge->initial_ms));
    w.u64(state.hedge->min_samples);
  }
  w.u32(util::crc32(w.data()));
  return w.data();
}

struct ParsedSnapshot {
  std::uint32_t config_crc = 0;
  std::uint64_t lsn = 0;
  MetaLog::State state;
};

std::optional<ParsedSnapshot> parse_snapshot(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4 + 4 + 8 + 4) return std::nullopt;
  if (util::crc32(bytes.first(bytes.size() - 4)) !=
      Reader(bytes.subspan(bytes.size() - 4)).u32())
    return std::nullopt;
  try {
    Reader r(bytes.first(bytes.size() - 4));
    if (r.u32() != kSnapshotMagic) return std::nullopt;
    ParsedSnapshot snap;
    snap.config_crc = r.u32();
    snap.lsn = r.u64();
    for (std::uint32_t n = r.u32(); n > 0; --n)
      snap.state.manifest.insert(parse_file_record(r));
    for (std::uint32_t n = r.u32(); n > 0; --n)
      snap.state.pending_puts.insert(parse_file_record(r));
    for (std::uint32_t n = r.u32(); n > 0; --n) {
      MetaLog::RehomeIntent ri;
      ri.file = r.u32();
      ri.stripe = r.u32();
      ri.index = r.u32();
      ri.target = r.u32();
      snap.state.pending_rehomes.push_back(ri);
    }
    for (std::uint32_t n = r.u32(); n > 0; --n) {
      MetaLog::SpareServer sp;
      sp.port = r.u16();
      sp.domain = r.u64();
      sp.labeled = r.u8() != 0;
      snap.state.spares.push_back(sp);
    }
    if (r.u8() != 0) {
      MetaLog::HedgeRecord h;
      h.enabled = r.u8() != 0;
      h.percentile = std::bit_cast<double>(r.u64());
      h.floor_ms = static_cast<std::int64_t>(r.u64());
      h.initial_ms = static_cast<std::int64_t>(r.u64());
      h.min_samples = r.u64();
      snap.state.hedge = h;
    }
    if (r.remaining() != 0) return std::nullopt;
    return snap;
  } catch (const MalformedPayload&) {
    return std::nullopt;
  }
}

}  // namespace

std::string MetaLog::ReplayReport::to_string() const {
  std::ostringstream out;
  out << "replayed " << journal_records << " journal record(s)";
  if (snapshot_loaded) out << " over snapshot at lsn " << snapshot_lsn;
  out << " in " << seconds << " s\n";
  if (skipped_records > 0)
    out << "  skipped (pre-snapshot): " << skipped_records << "\n";
  if (torn_tail)
    out << "  torn tail: " << torn_bytes
        << " byte(s) quarantined, journal truncated\n";
  return out.str();
}

std::string MetaLog::metric_name(const char* suffix) const {
  // The one place the carousel_meta_ prefix is spelled (check_invariants.py
  // rule 10): every instrument name in this subsystem is built here.
  return std::string("carousel_meta_") + suffix;
}

obs::Counter& MetaLog::metric(const char* suffix) {
  return registry_->counter(metric_name(suffix));
}

MetaLog::MetaLog(fs::path dir, std::uint32_t config_crc, Options options)
    : dir_(std::move(dir)), options_(options), config_crc_(config_crc) {
  fs::create_directories(dir_);
  registry_ =
      options_.registry ? options_.registry : &obs::MetricsRegistry::global();
  appends_ = &metric("appends_total");
  fsyncs_ = &metric("fsyncs_total");
  snapshots_ = &metric("snapshots_total");
  replay_records_ = &metric("replay_records_total");
  torn_tails_ = &metric("torn_tails_total");
  replay_seconds_ = &registry_->histogram(metric_name("replay_seconds"));

  replay(config_crc);
  open_journal(/*truncate=*/false);
  if (lsn_ == 0) {
    // Fresh directory: the journal's first record pins the configuration
    // this metadata belongs to.
    Writer w;
    w.u32(config_crc_);
    append_record(kRecConfig, w.data());
  }
}

MetaLog::~MetaLog() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

void MetaLog::open_journal(bool truncate) {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  const fs::path p = dir_ / "journal";
  const int flags =
      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC | (truncate ? O_TRUNC : 0);
  journal_fd_ = ::open(p.c_str(), flags, 0644);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (journal_fd_ < 0) durable::throw_errno("open journal", p);
}

void MetaLog::flush_journal() {
  if (!options_.fsync) return;
  if (::fsync(journal_fd_) != 0)
    durable::throw_errno("fsync journal", dir_ / "journal");
  fsyncs_->inc();
}

void MetaLog::quarantine_bytes(const std::string& name,
                               const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(quarantine_dir());
  fs::path dst = quarantine_dir() / name;
  for (int i = 1; fs::exists(dst); ++i)
    dst = quarantine_dir() / (name + "." + std::to_string(i));
  durable::write_file(dst, bytes);
}

void MetaLog::quarantine_file(const fs::path& path) {
  fs::create_directories(quarantine_dir());
  fs::path dst = quarantine_dir() / path.filename();
  for (int i = 1; fs::exists(dst); ++i)
    dst = quarantine_dir() / (path.filename().string() + "." +
                              std::to_string(i));
  // Moved, never deleted: a corrupt snapshot is evidence.  The bytes are on
  // stable storage already (we only move what a previous open published),
  // so a plain fsync-then-rename keeps rule 4's order.
  if (options_.fsync) durable::flush_file(path, *fsyncs_);
  std::error_code ec;
  fs::rename(path, dst, ec);
  if (ec) throw fs::filesystem_error("rename", path, dst, ec);
}

void MetaLog::load_snapshot(std::uint32_t config_crc) {
  const fs::path snap_p = dir_ / "snapshot";
  if (!fs::exists(snap_p)) return;
  auto bytes = durable::read_file(snap_p);
  const std::optional<ParsedSnapshot> snap =
      bytes ? parse_snapshot(*bytes) : std::nullopt;
  if (!snap) {
    quarantine_file(snap_p);
    throw MetaReplayError(
        "meta snapshot is corrupt (quarantined): " + snap_p.string() +
        " — the journal tail alone cannot rebuild the manifest");
  }
  if (snap->config_crc != config_crc)
    throw MetaReplayError(
        "meta snapshot belongs to a different store configuration "
        "(fingerprint mismatch): " +
        snap_p.string());
  state_ = snap->state;
  lsn_ = snap->lsn;
  replay_.snapshot_loaded = true;
  replay_.snapshot_lsn = snap->lsn;
}

void MetaLog::replay(std::uint32_t config_crc) {
  const auto t0 = std::chrono::steady_clock::now();
  load_snapshot(config_crc);

  const fs::path journal_p = dir_ / "journal";
  auto bytes = durable::read_file(journal_p);
  if (bytes) {
    std::size_t pos = 0;
    while (pos < bytes->size()) {
      const auto rec =
          parse_record(std::span(*bytes).subspan(pos));
      if (!rec) {
        // Torn tail: everything from here on is untrusted.  Quarantine the
        // fragment, truncate the journal at the last intact boundary.
        replay_.torn_tail = true;
        replay_.torn_bytes = bytes->size() - pos;
        quarantine_bytes("journal.tail",
                         {bytes->begin() + static_cast<std::ptrdiff_t>(pos),
                          bytes->end()});
        if (::truncate(journal_p.c_str(), static_cast<off_t>(pos)) != 0)
          durable::throw_errno("truncate journal", journal_p);
        torn_tails_->inc();
        break;
      }
      if (rec->lsn <= lsn_) {
        // Already folded into the snapshot (a crash between snapshot rename
        // and journal reset leaves such records behind — harmless).
        ++replay_.skipped_records;
      } else {
        apply_record(rec->kind, rec->payload);
        lsn_ = rec->lsn;
        ++replay_.journal_records;
        replay_records_->inc();
      }
      pos += rec->total_bytes;
    }
  }
  replay_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  replay_seconds_->observe(replay_.seconds);
}

void MetaLog::apply_record(std::uint8_t kind,
                           const std::vector<std::uint8_t>& payload) {
  try {
    Reader r(payload);
    switch (kind) {
      case kRecConfig: {
        if (r.u32() != config_crc_)
          throw MetaReplayError(
              "meta journal belongs to a different store configuration "
              "(fingerprint mismatch): " +
              (dir_ / "journal").string());
        return;
      }
      case kRecAddServer: {
        SpareServer sp;
        sp.port = r.u16();
        sp.domain = r.u64();
        sp.labeled = r.u8() != 0;
        state_.spares.push_back(sp);
        return;
      }
      case kRecPutIntent: {
        auto [file, rec] = parse_file_record(r);
        state_.pending_puts[file] = std::move(rec);
        return;
      }
      case kRecPutCommit: {
        const std::uint32_t file = r.u32();
        auto it = state_.pending_puts.find(file);
        if (it == state_.pending_puts.end())
          throw MetaReplayError("put_commit without a pending intent: file " +
                                std::to_string(file));
        state_.manifest[file] = std::move(it->second);
        state_.pending_puts.erase(it);
        return;
      }
      case kRecPutAbort: {
        state_.pending_puts.erase(r.u32());
        return;
      }
      case kRecRehomeIntent: {
        RehomeIntent ri;
        ri.file = r.u32();
        ri.stripe = r.u32();
        ri.index = r.u32();
        ri.target = r.u32();
        std::erase_if(state_.pending_rehomes, [&ri](const RehomeIntent& p) {
          return p.file == ri.file && p.stripe == ri.stripe &&
                 p.index == ri.index;
        });
        state_.pending_rehomes.push_back(ri);
        return;
      }
      case kRecRehomeCommit: {
        const std::uint32_t file = r.u32();
        const std::uint32_t stripe = r.u32();
        const std::uint32_t index = r.u32();
        const std::uint32_t server = r.u32();
        auto it = state_.manifest.find(file);
        if (it == state_.manifest.end() ||
            stripe >= it->second.placement.size() ||
            index >= it->second.placement[stripe].size())
          throw MetaReplayError(
              "rehome_commit names a block outside the manifest: file " +
              std::to_string(file) + " stripe " + std::to_string(stripe) +
              " index " + std::to_string(index));
        it->second.placement[stripe][index] = server;
        std::erase_if(state_.pending_rehomes,
                      [&](const RehomeIntent& p) {
                        return p.file == file && p.stripe == stripe &&
                               p.index == index;
                      });
        return;
      }
      case kRecRehomeAbort: {
        const std::uint32_t file = r.u32();
        const std::uint32_t stripe = r.u32();
        const std::uint32_t index = r.u32();
        std::erase_if(state_.pending_rehomes,
                      [&](const RehomeIntent& p) {
                        return p.file == file && p.stripe == stripe &&
                               p.index == index;
                      });
        return;
      }
      case kRecHedge: {
        HedgeRecord h;
        h.enabled = r.u8() != 0;
        h.percentile = std::bit_cast<double>(r.u64());
        h.floor_ms = static_cast<std::int64_t>(r.u64());
        h.initial_ms = static_cast<std::int64_t>(r.u64());
        h.min_samples = r.u64();
        state_.hedge = h;
        return;
      }
      default:
        throw MetaReplayError("unknown journal record kind " +
                              std::to_string(kind));
    }
  } catch (const MalformedPayload&) {
    // The CRC verified but the payload does not parse: a writer bug, not
    // wire noise.  Loud, like every other replay defect.
    throw MetaReplayError(std::string("journal record payload of kind ") +
                          kind_name(kind) + " does not parse");
  }
}

void MetaLog::append_record(std::uint8_t kind,
                            const std::vector<std::uint8_t>& payload) {
  const std::uint64_t rec_lsn = lsn_ + 1;
  const std::vector<std::uint8_t> bytes =
      serialize_record(kind, rec_lsn, payload);

  MetaCrashPoint crash = MetaCrashPoint::kNone;
  if (crash_point_ != MetaCrashPoint::kNone && crash_countdown_ > 0 &&
      --crash_countdown_ == 0) {
    crash = crash_point_;
    crash_point_ = MetaCrashPoint::kNone;
  }
  if (crash == MetaCrashPoint::kBeforeFsync) {
    // Died before the fsync: the record may never have reached the platter.
    // Model the worst case — nothing written, mutation lost, never acked.
    throw MetaCrashError(std::string("meta crash before fsync of ") +
                         kind_name(kind));
  }
  if (crash == MetaCrashPoint::kTornRecord) {
    // Power died mid-append: half the record's bytes are durable.
    const std::span<const std::uint8_t> half =
        std::span(bytes).first(bytes.size() / 2);
    std::size_t off = 0;
    while (off < half.size()) {
      ssize_t w = ::write(journal_fd_, half.data() + off, half.size() - off);
      if (w < 0) durable::throw_errno("write journal", dir_ / "journal");
      off += static_cast<std::size_t>(w);
    }
    flush_journal();
    throw MetaCrashError(std::string("meta crash mid-append of ") +
                         kind_name(kind));
  }

  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = ::write(journal_fd_, bytes.data() + off, bytes.size() - off);
    if (w < 0) durable::throw_errno("write journal", dir_ / "journal");
    off += static_cast<std::size_t>(w);
  }
  flush_journal();

  if (crash == MetaCrashPoint::kAfterAppend) {
    // The record is durable but the process dies before publishing the
    // mutation in memory (and before the caller could ack it).
    throw MetaCrashError(std::string("meta crash after durable append of ") +
                         kind_name(kind));
  }

  apply_record(kind, payload);
  lsn_ = rec_lsn;
  appends_->inc();

  // The journal reset inside write_snapshot() appends its own config
  // record; `compacting_` keeps that append from re-entering compaction.
  if (!compacting_ && options_.snapshot_every > 0 &&
      ++since_snapshot_ >= options_.snapshot_every)
    write_snapshot();
}

void MetaLog::write_snapshot() {
  compacting_ = true;
  since_snapshot_ = 0;
  const fs::path snap_p = dir_ / "snapshot";
  const fs::path tmp_p = dir_ / "snapshot.tmp";
  durable::write_file(tmp_p, serialize_state(state_, config_crc_, lsn_));
  // The snapshot bytes must be on stable storage before the rename makes
  // them the snapshot — otherwise a crash could publish a snapshot whose
  // content never hit the platter (check_invariants.py rule 4 pins this
  // fsync-before-rename order).
  if (options_.fsync) durable::flush_file(tmp_p, *fsyncs_);
  std::error_code ec;
  fs::rename(tmp_p, snap_p, ec);
  if (ec) throw fs::filesystem_error("rename", tmp_p, snap_p, ec);
  // The rename itself must be durable before the journal truncate below
  // drops the records the snapshot folded in; a failed directory flush
  // throws and leaves the journal whole.
  if (options_.fsync) durable::flush_dir(dir_, *fsyncs_);
  snapshots_->inc();

  // Reset the journal: everything up to lsn_ is folded into the snapshot.
  // A crash before this truncate is harmless — replay skips records whose
  // lsn is covered by the snapshot.
  open_journal(/*truncate=*/true);
  Writer w;
  w.u32(config_crc_);
  append_record(kRecConfig, w.data());
  compacting_ = false;
}

// --- Append API ------------------------------------------------------------

void MetaLog::put_intent(
    std::uint32_t file, std::uint64_t file_bytes, std::uint32_t stripes,
    const std::vector<std::vector<std::uint32_t>>& placement) {
  if (state_.manifest.contains(file) || state_.pending_puts.contains(file))
    throw DuplicateFileError("file id " + std::to_string(file) +
                             " already exists in the manifest");
  FileRecord rec;
  rec.file_bytes = file_bytes;
  rec.stripes = stripes;
  rec.placement = placement;
  Writer w;
  w.bytes(serialize_file_record(file, rec));
  append_record(kRecPutIntent, w.data());
}

void MetaLog::put_commit(std::uint32_t file) {
  Writer w;
  w.u32(file);
  append_record(kRecPutCommit, w.data());
}

void MetaLog::put_abort(std::uint32_t file) {
  Writer w;
  w.u32(file);
  append_record(kRecPutAbort, w.data());
}

void MetaLog::rehome_intent(std::uint32_t file, std::uint32_t stripe,
                            std::uint32_t index, std::uint32_t target) {
  Writer w;
  w.u32(file);
  w.u32(stripe);
  w.u32(index);
  w.u32(target);
  append_record(kRecRehomeIntent, w.data());
}

void MetaLog::rehome_commit(std::uint32_t file, std::uint32_t stripe,
                            std::uint32_t index, std::uint32_t server) {
  Writer w;
  w.u32(file);
  w.u32(stripe);
  w.u32(index);
  w.u32(server);
  append_record(kRecRehomeCommit, w.data());
}

void MetaLog::rehome_abort(std::uint32_t file, std::uint32_t stripe,
                           std::uint32_t index) {
  Writer w;
  w.u32(file);
  w.u32(stripe);
  w.u32(index);
  append_record(kRecRehomeAbort, w.data());
}

void MetaLog::add_server(std::uint16_t port, std::uint64_t domain,
                         bool labeled) {
  Writer w;
  w.u16(port);
  w.u64(domain);
  w.u8(labeled ? 1 : 0);
  append_record(kRecAddServer, w.data());
}

void MetaLog::set_hedge(const HedgeRecord& hedge) {
  Writer w;
  w.u8(hedge.enabled ? 1 : 0);
  w.u64(std::bit_cast<std::uint64_t>(hedge.percentile));
  w.u64(static_cast<std::uint64_t>(hedge.floor_ms));
  w.u64(static_cast<std::uint64_t>(hedge.initial_ms));
  w.u64(hedge.min_samples);
  append_record(kRecHedge, w.data());
}

void MetaLog::arm_crash(MetaCrashPoint point, std::uint64_t countdown) {
  crash_point_ = point;
  crash_countdown_ = point == MetaCrashPoint::kNone ? 0 : countdown;
}

// --- Read-only inspection --------------------------------------------------

std::string MetaLog::inspect(const fs::path& dir) {
  std::ostringstream out;
  out << "meta dir: " << dir.string() << "\n";

  const fs::path snap_p = dir / "snapshot";
  if (fs::exists(snap_p)) {
    auto bytes = durable::read_file(snap_p);
    const std::optional<ParsedSnapshot> snap =
        bytes ? parse_snapshot(*bytes) : std::nullopt;
    if (snap) {
      out << "snapshot: ok, lsn " << snap->lsn << ", config "
          << snap->config_crc << ", " << snap->state.manifest.size()
          << " file(s), " << snap->state.pending_puts.size()
          << " pending put(s), " << snap->state.pending_rehomes.size()
          << " pending rehome(s), " << snap->state.spares.size()
          << " spare(s)\n";
    } else {
      out << "snapshot: CORRUPT (" << (bytes ? bytes->size() : 0)
          << " bytes)\n";
    }
  } else {
    out << "snapshot: none\n";
  }

  const fs::path journal_p = dir / "journal";
  auto bytes = durable::read_file(journal_p);
  if (!bytes) {
    out << "journal: none\n";
    return out.str();
  }
  std::uint64_t counts[kRecKindCount] = {};
  std::uint64_t first_lsn = 0;
  std::uint64_t last_lsn = 0;
  std::uint64_t records = 0;
  std::size_t pos = 0;
  std::optional<std::size_t> torn_at;
  while (pos < bytes->size()) {
    const auto rec = parse_record(std::span(*bytes).subspan(pos));
    if (!rec) {
      torn_at = pos;
      break;
    }
    ++counts[rec->kind];
    if (records == 0) first_lsn = rec->lsn;
    last_lsn = rec->lsn;
    ++records;
    pos += rec->total_bytes;
  }
  out << "journal: " << records << " record(s), " << bytes->size()
      << " byte(s)";
  if (records > 0) out << ", lsn " << first_lsn << ".." << last_lsn;
  out << "\n";
  for (std::uint8_t k = 0; k < kRecKindCount; ++k)
    if (counts[k] > 0)
      out << "  " << kind_name(k) << ": " << counts[k] << "\n";
  if (torn_at)
    out << "  TORN TAIL at byte " << *torn_at << " ("
        << bytes->size() - *torn_at
        << " byte(s) would be quarantined on the next open)\n";

  const fs::path q = dir / "quarantine";
  if (fs::exists(q)) {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(q))
      if (entry.is_regular_file()) ++n;
    out << "quarantine: " << n << " file(s)\n";
  }
  return out.str();
}

}  // namespace carousel::net
