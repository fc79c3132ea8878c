// Block server: the datanode of the networked prototype.
//
// One accept thread plus one thread per connection; blocks live in a mutex-
// guarded map together with their CRC-32, verified before every serve and on
// the VERIFY audit op.  The map holds immutable shared snapshots, so the
// mutex covers only a lookup or a pointer swap: CRC checks, PROJECT's GF
// work and the reply run on the snapshot with no lock held, and a reply
// sends the frame header, the CRC word and the stored range itself in one
// gather sendmsg (no copy of the range).  A PUT keeps the buffer its
// payload arrived in as the stored block.  The PROJECT primitive performs
// linear combinations of a block's units with the GF(2^8) kernels — the
// helper-side repair compute of the paper, executed where the block lives
// so only the projected chunk crosses the network.
//
// Constructed with a data directory, the server is durable: every PUT is
// written crash-atomically to disk (net/persistence.h) before it is
// acknowledged, and construction runs a recovery scan that reloads intact
// blocks and quarantines damaged ones.  A quarantined key answers kCorrupt
// (never silently kNotFound-as-if-unwritten) until a fresh PUT replaces it —
// which is exactly the signal the Scrubber turns into a repair at the
// code's optimal d/(d-k+1) traffic.  Without a directory the server is the
// original RAM-only store the fast tests use.
//
// Finished connections are reaped as the accept loop turns over, so a
// long-lived server with churning clients holds state only for live
// sessions.  A FaultPlan (net/fault.h) can be installed to inject drops,
// stalls, wire corruption and refusals deterministically, and
// corrupt_block() flips a stored byte under the checksum — the failure
// switchboard the fault-tolerance tests drive.

#ifndef CAROUSEL_NET_BLOCK_SERVER_H
#define CAROUSEL_NET_BLOCK_SERVER_H

#include <array>
#include <atomic>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/persistence.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "util/sync.h"

namespace carousel::net {

class BlockServer {
 public:
  /// Binds (port 0 = ephemeral) and starts serving from RAM only.
  explicit BlockServer(std::uint16_t port = 0);

  /// Binds and serves durably from `data_dir` (created if needed): runs the
  /// recovery scan before accepting connections, then writes every PUT
  /// crash-atomically to the directory before acknowledging it.  A null
  /// `persist.registry` is replaced with this server's own registry, so the
  /// METRICS op exposes the carousel_persist_* instruments.
  BlockServer(std::uint16_t port, const std::filesystem::path& data_dir,
              PersistentBlockStore::Options persist = {});

  ~BlockServer();

  BlockServer(const BlockServer&) = delete;
  BlockServer& operator=(const BlockServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Stops accepting, closes the listener and joins all threads.  Idempotent.
  void stop() EXCLUDES(mu_);

  /// Graceful shutdown: stops accepting, lets every in-flight request finish
  /// and its response flush to the client (sessions are only half-closed, on
  /// the receive side), then flushes the persistence directory so everything
  /// acknowledged is on stable storage.  A request still being *received*
  /// when drain begins is abandoned — nothing was acknowledged for it.
  /// Idempotent, and stop()/~BlockServer afterwards are no-ops.
  void drain() EXCLUDES(mu_);

  /// Installs (or clears, with nullptr) a fault-injection plan consulted on
  /// every request.  The plan may be shared with the test for inspection.
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) EXCLUDES(mu_);

  /// Flips one bit of a stored block without touching its recorded
  /// checksum — simulates at-rest corruption.  The byte flipped is
  /// `offset % size`, so any offset addresses a valid byte of a non-empty
  /// block (offset 0 and offset size flip the same byte).  Returns false —
  /// never indexes — when the block is not held or is empty (an empty
  /// block has no byte to flip).  On a persistent server the same byte is
  /// flipped in the on-disk payload, so the rot survives a restart.
  bool corrupt_block(const BlockKey& key, std::size_t offset = 0)
      EXCLUDES(mu_, write_mu_);

  /// Whether this server writes through to a data directory.
  bool persistent() const { return persist_ != nullptr; }
  /// Outcome of the startup recovery scan (all zeros for RAM-only servers).
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// Test/ops hooks.
  std::size_t block_count() const EXCLUDES(mu_);
  std::uint64_t stored_bytes() const EXCLUDES(mu_);
  /// Connection sessions currently tracked (live + not yet reaped).
  std::size_t session_count() const EXCLUDES(mu_);

  /// This server's own metric registry: per-op request counts and latency
  /// histograms, fault-injection hits, stored-state gauges.  The METRICS
  /// wire op renders this registry followed by the process-global one.
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  // Immutable once published: readers use a snapshot with no lock held,
  // so a PUT, DELETE or corrupt_block() swaps in a new one instead.
  struct StoredBlock {
    // The buffer the block arrived in (a PUT frame's whole payload, or a
    // copy); `bytes` views the block inside it.
    std::unique_ptr<std::uint8_t[]> storage;
    std::span<const std::uint8_t> bytes;
    std::uint32_t crc = 0;  // CRC-32 the client declared on PUT
  };
  using Snapshot = std::shared_ptr<const StoredBlock>;
  static std::shared_ptr<StoredBlock> copy_block(
      std::span<const std::uint8_t> bytes, std::uint32_t crc);
  // One answer: owned bytes (a small answer, a CRC word, a PROJECT body),
  // then bytes borrowed from the pinned snapshot, sent after the frame
  // header in one gather sendmsg.
  struct Reply {
    Status status = Status::kOk;
    Writer head;
    Snapshot pin;
    std::span<const std::uint8_t> tail;
  };
  // One live connection and the thread serving it; reaped once `done`.
  struct Session {
    TcpConn conn;
    std::thread worker;
    std::atomic<bool> done{false};
  };

  void init_instruments();
  void accept_loop() EXCLUDES(mu_);
  void reap_finished_locked() REQUIRES(mu_);
  void serve(Session& session) EXCLUDES(mu_);
  /// `crash` is non-kNone only when a crash fault fired on a persistent
  /// PUT; the handler then leaves that crash point's torn on-disk state and
  /// skips the in-memory update (a real crash loses RAM too).  A PUT takes
  /// ownership of `payload`, the buffer `req` reads.
  void handle(Op op, Reader& req, std::unique_ptr<std::uint8_t[]>& payload,
              Reply& reply, CrashPoint crash) EXCLUDES(mu_, write_mu_);
  /// The snapshot of `key`, under mu_ for the lookup alone.  Null for a
  /// quarantined key (status kCorrupt: its payload went to quarantine) or
  /// a missing one (kNotFound).
  Snapshot lookup(const BlockKey& key, Status& status) const EXCLUDES(mu_);
  /// Interruptible stall for FaultAction::kDelay (wakes early on stop()).
  void injected_sleep(std::uint32_t ms);

  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  // Per-server registry and cached instruments (resolved once in the
  // constructor; the arrays are indexed by raw opcode / FaultAction).
  obs::MetricsRegistry metrics_;
  std::array<obs::Counter*, kOpCount> op_requests_{};
  std::array<obs::Histogram*, kOpCount> op_seconds_{};
  std::array<obs::Counter*, kFaultActionCount> fault_hits_{};
  obs::Counter* bad_requests_ = nullptr;
  obs::Gauge* blocks_gauge_ = nullptr;
  obs::Gauge* stored_bytes_gauge_ = nullptr;

  // Serializes the block mutations (PUT, DELETE, corrupt_block) from their
  // durable write through the in-memory swap, so the on-disk and in-memory
  // state never diverge; readers never take it, so a PUT's fsync stalls
  // no GET_RANGE or PROJECT.  Ranked before mu_, which the swap takes.
  util::Mutex write_mu_{util::LockRank::kBlockServerWrite};
  mutable util::Mutex mu_{util::LockRank::kBlockServer};
  std::map<BlockKey, Snapshot> blocks_ GUARDED_BY(mu_);
  // Durable backend (null = RAM-only).  The pointer is set once in the
  // constructor; the pointee's writes happen under write_mu_ (drain()'s
  // final flush runs after every worker joined).
  std::unique_ptr<PersistentBlockStore> persist_;
  RecoveryReport recovery_;
  // Keys whose stored copy recovery quarantined: reads answer kCorrupt
  // until a PUT (typically the scrubber's repair) replaces them.
  std::set<BlockKey> quarantined_ GUARDED_BY(mu_);
  std::shared_ptr<FaultPlan> faults_ GUARDED_BY(mu_);
  // Sessions live here (stable addresses) so stop() can shut them down and
  // wake any worker blocked in recv; workers never outlive the server.
  std::list<Session> sessions_ GUARDED_BY(mu_);
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_BLOCK_SERVER_H
