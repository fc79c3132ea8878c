// Crash-consistent on-disk backend for the block server.
//
// A PersistentBlockStore owns one data directory and keeps each block as one
// file named after its key (stem `b<file>_<stripe>_<index>`), on-disk
// format v2:
//
//   <stem>.blk2   the payload, byte-for-byte what the client PUT, followed
//                 by a 32-byte commit-record trailer: magic "CBM2", key,
//                 payload length, payload CRC-32, and a CRC-32 of the
//                 trailer itself
//
// A PUT is published crash-atomically with two fsyncs: the bytes go to a
// `.tmp` file, which is fsynced and then renamed over the final name, and
// the directory entry is fsynced last.  Payload and trailer become visible
// in one rename, so a block counts as committed exactly when its file holds
// an intact trailer that names the file's own key and describes the bytes
// before it — every prefix of the write sequence is a state the recovery
// scan classifies deterministically (DESIGN.md "Durability & crash
// consistency").
//
// Format v1 kept each block as a pair, `<stem>.blk` (payload) and
// `<stem>.meta` (the same record under magic "CBM1").  recover() still reads
// it: each intact pair is rewritten as a v2 file through the PUT's
// crash-atomic path and the pair removed, so put() and erase() only ever
// see v2.  Where an interrupted migration left both, the v2 file wins.
//
// recover() replays that classification over a directory as found after a
// crash: intact blocks load, everything else (stale temps, torn or
// CRC-mismatched files, orphaned v1 halves, duplicate claims on one key) is
// moved — never deleted — into `quarantine/`, and the damaged keys are
// reported so the owning BlockServer answers kCorrupt for them until the
// scrubber re-uploads a rebuilt copy at the code's optimal repair traffic.
//
// CrashPoint lets the fault layer cut the PUT write path at the three
// interesting places (mid-write, flushed-but-unpublished, torn-but-
// committed); each leaves exactly the on-disk state a real power cut at
// that point could.  The class itself is not thread-safe — the BlockServer
// serializes calls under its block-map mutex.

#ifndef CAROUSEL_NET_PERSISTENCE_H
#define CAROUSEL_NET_PERSISTENCE_H

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"

namespace carousel::net {

/// Where a simulated crash cuts the PUT write path.  The FaultPlan crash
/// actions (net/fault.h) map onto these one-for-one.
enum class CrashPoint : std::uint8_t {
  kNone = 0,
  /// Crash mid-write: a partial payload sits in the temp file, nothing was
  /// flushed or published.  Recovery sees a stale temp.
  kBeforeFsync,
  /// Crash after the temp file was flushed but before the rename published
  /// it.  Indistinguishable from kBeforeFsync to recovery: a stale temp.
  kBeforeRename,
  /// Torn write: a truncated payload is published under a full-length
  /// commit-record trailer — the state a lying disk cache leaves.  Recovery
  /// must quarantine the file and report the key as damaged.
  kTornWrite,
};

/// Outcome of one recovery scan.  `quarantined_files` counts files moved
/// into quarantine/; the per-cause counters classify why (one damaged v1
/// block usually quarantines two files, payload and record).
struct RecoveryReport {
  std::uint64_t recovered = 0;          // intact blocks loaded
  std::uint64_t quarantined_files = 0;  // files moved to quarantine/
  std::uint64_t torn_payloads = 0;      // record unreadable, names another
                                        // key, or length != payload
  std::uint64_t crc_mismatches = 0;     // payload bytes fail the record's CRC
  std::uint64_t orphaned_metas = 0;     // v1 record naming a missing payload
  std::uint64_t orphaned_payloads = 0;  // v1 payload without a commit record
  std::uint64_t duplicates = 0;         // extra v1 files claiming a loaded key
  std::uint64_t stale_temps = 0;        // *.tmp files a crash left behind
  std::uint64_t migrated = 0;           // intact v1 pairs rewritten as v2
  double seconds = 0.0;
  /// Keys whose stored copy was lost to quarantine: the server answers
  /// kCorrupt for them so the scrubber repairs instead of ignoring them.
  std::vector<BlockKey> damaged;

  /// Human-readable summary (what `carouselctl recover` prints).
  std::string to_string() const;
};

class PersistentBlockStore {
 public:
  struct Options {
    /// When false, the fsync calls are skipped (the write path and the lint
    /// rule keep their shape; durability is traded for test speed).
    bool fsync = true;
    /// Registry for the carousel_persist_* instruments; the process-global
    /// registry when null.  A BlockServer substitutes its own.
    obs::MetricsRegistry* registry = nullptr;
  };

  /// One block handed back by recover().
  struct RecoveredBlock {
    BlockKey key;
    std::vector<std::uint8_t> bytes;
    std::uint32_t crc = 0;
  };

  /// Creates the directory if needed.  Throws std::filesystem errors when
  /// the directory cannot be created or is not writable.
  PersistentBlockStore(std::filesystem::path dir, Options options);
  explicit PersistentBlockStore(std::filesystem::path dir);

  /// Scans the directory, loads intact blocks (appended to `out` when
  /// non-null), quarantines everything else and returns the classification.
  RecoveryReport recover(std::vector<RecoveredBlock>* out = nullptr);

  /// Crash-atomic write of one block (temp file -> fsync -> rename ->
  /// directory fsync).  Returns true when the block committed; false when
  /// `crash` cut the sequence first, leaving that crash point's on-disk
  /// state behind.  Throws on real I/O failure.
  bool put(const BlockKey& key, std::span<const std::uint8_t> bytes,
           std::uint32_t crc, CrashPoint crash = CrashPoint::kNone);

  /// Removes a block's file and fsyncs the directory.  Returns false when no
  /// file for the key existed.
  bool erase(const BlockKey& key);

  /// Test hook: flips one payload byte on disk at `offset` (mod payload
  /// size) without touching the commit-record trailer — at-rest rot that
  /// must surface as a CRC mismatch on the next recovery scan.  Returns
  /// false when the block's file is missing or its payload empty.
  bool corrupt_at_rest(const BlockKey& key, std::size_t offset);

  /// Fsyncs the data directory entry itself.  Every put() already flushed
  /// its own files before publishing, so this is the final barrier a
  /// graceful drain needs: after it returns, everything acknowledged is on
  /// stable storage.  No-op when Options::fsync is off.
  void flush() const { flush_dir(dir_); }

  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path quarantine_dir() const { return dir_ / "quarantine"; }

  /// Canonical file stem for a key: b<file>_<stripe>_<index>.
  static std::string stem_of(const BlockKey& key);
  /// Inverse of stem_of; nullopt for names that are not canonical stems.
  static std::optional<BlockKey> parse_stem(const std::string& stem);

 private:
  /// fsync of the file's bytes (no-op when options_.fsync is off, but the
  /// call stays so the write path keeps its shape).
  void flush_file(const std::filesystem::path& path) const;
  void flush_dir(const std::filesystem::path& path) const;
  /// Flush-then-rename: the one way anything moves in this layer
  /// (check_invariants.py rule 4 pins the fsync-before-rename order).
  void publish(const std::filesystem::path& from,
               const std::filesystem::path& to) const;
  void quarantine(const std::filesystem::path& path, RecoveryReport& report);
  /// The v2 file of a key.
  std::filesystem::path path_of(const BlockKey& key) const;
  /// Writes payload + a trailer claiming `claimed_len` payload bytes to the
  /// key's temp file (no fsync) and returns the temp's path.
  std::filesystem::path write_temp(const BlockKey& key,
                                   std::span<const std::uint8_t> payload,
                                   std::uint64_t claimed_len,
                                   std::uint32_t crc) const;

  std::filesystem::path dir_;
  Options options_;
  obs::Counter* fsyncs_ = nullptr;
  obs::Counter* commits_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* recovered_total_ = nullptr;
  obs::Counter* quarantined_total_ = nullptr;
  obs::Histogram* recovery_seconds_ = nullptr;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_PERSISTENCE_H
