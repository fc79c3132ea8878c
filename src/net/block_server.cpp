#include "net/block_server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "gf/vect.h"
#include "obs/trace.h"
#include "util/crc32.h"

namespace carousel::net {

namespace {

std::uint32_t crc_of(std::span<const std::uint8_t> bytes) {
  return util::crc32(bytes);
}

const char* fault_name(FaultAction a) {
  switch (a) {
    case FaultAction::kDropBeforeResponse: return "drop_before_response";
    case FaultAction::kDropAfterResponse: return "drop_after_response";
    case FaultAction::kDelay: return "delay";
    case FaultAction::kCorruptPayload: return "corrupt_payload";
    case FaultAction::kRefuse: return "refuse";
    case FaultAction::kCrashBeforeFsync: return "crash_before_fsync";
    case FaultAction::kCrashBeforeRename: return "crash_before_rename";
    case FaultAction::kTornWrite: return "torn_write";
  }
  return "unknown";
}

CrashPoint crash_point_of(FaultAction a) {
  switch (a) {
    case FaultAction::kCrashBeforeFsync: return CrashPoint::kBeforeFsync;
    case FaultAction::kCrashBeforeRename: return CrashPoint::kBeforeRename;
    case FaultAction::kTornWrite: return CrashPoint::kTornWrite;
    default: return CrashPoint::kNone;
  }
}

void append_text(Writer& resp, const char* text) {
  resp.bytes({reinterpret_cast<const std::uint8_t*>(text),
              std::strlen(text)});
}

}  // namespace

void BlockServer::init_instruments() {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const char* op = op_name(op_from_index(i));
    op_requests_[i] = &metrics_.counter(
        obs::labeled("carousel_server_requests_total", "op", op));
    op_seconds_[i] = &metrics_.histogram(
        obs::labeled("carousel_server_op_seconds", "op", op));
  }
  for (std::size_t i = 0; i < fault_hits_.size(); ++i)
    fault_hits_[i] = &metrics_.counter(
        obs::labeled("carousel_server_fault_injections_total", "action",
                     fault_name(static_cast<FaultAction>(i))));
  bad_requests_ = &metrics_.counter("carousel_server_bad_requests_total");
  blocks_gauge_ = &metrics_.gauge("carousel_server_blocks");
  stored_bytes_gauge_ = &metrics_.gauge("carousel_server_stored_bytes");
}

BlockServer::BlockServer(std::uint16_t port)
    : listener_(TcpListener::bind(port)), port_(listener_.port()) {
  init_instruments();
  acceptor_ = std::thread([this] { accept_loop(); });
}

BlockServer::BlockServer(std::uint16_t port,
                         const std::filesystem::path& data_dir,
                         PersistentBlockStore::Options persist)
    : listener_(TcpListener::bind(port)), port_(listener_.port()) {
  init_instruments();
  if (!persist.registry) persist.registry = &metrics_;
  persist_ = std::make_unique<PersistentBlockStore>(data_dir, persist);
  // Recovery runs before the accept loop starts: the first client request
  // already sees the post-crash truth (intact blocks served, damaged keys
  // answering kCorrupt).  No lock needed — no other thread exists yet.
  std::vector<PersistentBlockStore::RecoveredBlock> intact;
  recovery_ = persist_->recover(&intact);
  std::uint64_t total = 0;
  for (auto& b : intact) {
    total += b.bytes.size();
    blocks_[b.key] = copy_block(b.bytes, b.crc);
  }
  quarantined_.insert(recovery_.damaged.begin(), recovery_.damaged.end());
  blocks_gauge_->set(static_cast<double>(blocks_.size()));
  stored_bytes_gauge_->set(static_cast<double>(total));
  acceptor_ = std::thread([this] { accept_loop(); });
}

BlockServer::~BlockServer() { stop(); }

void BlockServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  listener_.close();  // wakes the blocked accept()
  if (acceptor_.joinable()) acceptor_.join();
  // Collect the sessions under the lock (std::list: stable addresses), then
  // join without it — workers may still need mu_ to finish their last
  // request.  The acceptor is gone, so nobody grows the list anymore.
  std::vector<Session*> to_join;
  {
    util::MutexLock lock(mu_);
    for (auto& s : sessions_) {
      s.conn.shutdown_both();  // wake blocked workers
      to_join.push_back(&s);
    }
  }
  for (Session* s : to_join)
    if (s->worker.joinable()) s->worker.join();
  util::MutexLock lock(mu_);
  sessions_.clear();
}

void BlockServer::drain() {
  // Claims the same stopping_ flag as stop(), so the two are mutually
  // idempotent: whichever runs first wins, the other no-ops.
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  listener_.close();  // no new connections; wakes the blocked accept()
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<Session*> to_join;
  {
    util::MutexLock lock(mu_);
    // Half-close receive only: a worker blocked waiting for the *next*
    // request wakes with EOF, but a response being sent still flushes.
    for (auto& s : sessions_) {
      s.conn.shutdown_read();
      to_join.push_back(&s);
    }
  }
  for (Session* s : to_join)
    if (s->worker.joinable()) s->worker.join();
  {
    util::MutexLock lock(mu_);
    sessions_.clear();
  }
  // Final durability barrier: every acknowledged PUT is now on disk.
  if (persist_) persist_->flush();
}

void BlockServer::set_fault_plan(std::shared_ptr<FaultPlan> plan) {
  util::MutexLock lock(mu_);
  faults_ = std::move(plan);
}

std::shared_ptr<BlockServer::StoredBlock> BlockServer::copy_block(
    std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  auto block = std::make_shared<StoredBlock>();
  block->storage = std::make_unique_for_overwrite<std::uint8_t[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), block->storage.get());
  block->bytes = {block->storage.get(), bytes.size()};
  block->crc = crc;
  return block;
}

bool BlockServer::corrupt_block(const BlockKey& key, std::size_t offset) {
  util::MutexLock write(write_mu_);
  Snapshot old;
  {
    util::MutexLock lock(mu_);
    auto it = blocks_.find(key);
    if (it != blocks_.end()) old = it->second;
  }
  // An empty block has no byte to flip: refuse rather than divide by zero.
  if (!old || old->bytes.empty()) return false;
  // Readers may hold the old snapshot: flip a copy and swap it in.
  auto rotten = copy_block(old->bytes, old->crc);
  const std::size_t pos = offset % old->bytes.size();
  rotten->storage[pos] ^= 0x01;  // not yet shared: a fresh copy
  {
    util::MutexLock lock(mu_);
    blocks_[key] = std::move(rotten);
  }
  // Rot the same byte at rest, so the corruption survives a restart and the
  // next recovery scan quarantines the block instead of reloading it.
  if (persist_) persist_->corrupt_at_rest(key, pos);
  return true;
}

BlockServer::Snapshot BlockServer::lookup(const BlockKey& key,
                                          Status& status) const {
  util::MutexLock lock(mu_);
  if (quarantined_.contains(key)) {
    // Recovery moved this block's files aside: the block is known but its
    // payload is gone.  kCorrupt (no CRC known) tells the client and
    // scrubber to repair it, not to treat it as never written.
    status = Status::kCorrupt;
    return nullptr;
  }
  auto it = blocks_.find(key);
  if (it == blocks_.end()) {
    status = Status::kNotFound;
    return nullptr;
  }
  return it->second;
}

std::size_t BlockServer::block_count() const {
  util::MutexLock lock(mu_);
  return blocks_.size();
}

std::size_t BlockServer::session_count() const {
  util::MutexLock lock(mu_);
  return sessions_.size();
}

std::uint64_t BlockServer::stored_bytes() const {
  util::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, block] : blocks_) total += block->bytes.size();
  return total;
}

void BlockServer::accept_loop() {
  for (;;) {
    TcpConn conn = listener_.accept();
    if (!conn.valid()) return;  // listener closed: shutting down
    util::MutexLock lock(mu_);
    if (stopping_.load()) return;
    reap_finished_locked();
    sessions_.emplace_back();
    Session* s = &sessions_.back();
    s->conn = std::move(conn);
    s->worker = std::thread([this, s] { serve(*s); });
  }
}

void BlockServer::reap_finished_locked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->done.load()) {
      it->worker.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void BlockServer::injected_sleep(std::uint32_t ms) {
  // Sliced so stop() never waits behind an injected stall.
  auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!stopping_.load() && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

void BlockServer::serve(Session& session) {
  TcpConn& conn = session.conn;
  // Whatever ends this session — clean EOF, a garbage frame, an I/O error —
  // the peer must see the connection go down; the fd itself stays owned by
  // the session until reaped so shutdown here cannot race a reused
  // descriptor.  `done` flags the session for the accept loop to reap.
  struct Hangup {
    Session& s;
    ~Hangup() {
      s.conn.shutdown_both();
      s.done.store(true);
    }
  } hangup{session};
  try {
    for (;;) {
      std::uint8_t header[5] = {};
      if (!conn.recv_all(header, sizeof header)) return;  // client hung up
      const std::uint8_t op_raw = header[0];
      std::uint32_t len = 0;
      std::memcpy(&len, header + 1, sizeof len);

      Reply reply;
      bool close_after = false;
      std::optional<Op> op;
      std::optional<FaultRule> fault;
      // Not zero-filled: recv overwrites every byte, and a PUT keeps this
      // buffer as the stored block.
      std::unique_ptr<std::uint8_t[]> payload;

      if (len > kMaxFrameBytes) {
        // A hostile or garbage length prefix: reject it *before* allocating
        // anything.  We cannot resync past bytes we refuse to read, so the
        // typed answer goes out and then the connection closes.
        reply.status = Status::kBadRequest;
        append_text(reply.head, "frame length exceeds kMaxFrameBytes");
        close_after = true;
      } else {
        payload = std::make_unique_for_overwrite<std::uint8_t[]>(len);
        if (len && !conn.recv_all(payload.get(), len)) return;
        op = parse_op(op_raw);
        const char* defect =
            op ? validate_request(*op, {payload.get(), len}) : "unknown opcode";
        if (defect) {
          // The frame boundary held (we read exactly `len` bytes), so the
          // session survives a malformed request.
          reply.status = Status::kBadRequest;
          append_text(reply.head, defect);
        }
      }
      if (reply.status == Status::kBadRequest) bad_requests_->inc();

      if (op && reply.status == Status::kOk) {
        std::shared_ptr<FaultPlan> faults;
        {
          util::MutexLock lock(mu_);
          faults = faults_;
        }
        if (faults) fault = faults->decide(*op);
        if (fault)
          fault_hits_[static_cast<std::size_t>(fault->action)]->inc();

        if (fault && fault->action == FaultAction::kRefuse) {
          reply.status = Status::kError;
          append_text(reply.head, "injected fault: refused");
        } else {
          // A crash fault on a persistent PUT cuts the durable write at the
          // injected point; elsewhere it degrades to drop-before-response.
          CrashPoint crash = CrashPoint::kNone;
          if (fault && *op == Op::kPut && persist_)
            crash = crash_point_of(fault->action);
          const auto idx = static_cast<std::size_t>(*op);
          try {
            Reader req({payload.get(), len});
            op_requests_[idx]->inc();
            obs::ScopedTimer timer(*op_seconds_[idx]);
            handle(*op, req, payload, reply, crash);
          } catch (const MalformedPayload& e) {
            reply = Reply();
            reply.status = Status::kBadRequest;
            bad_requests_->inc();
            append_text(reply.head, e.what());
          } catch (const std::exception& e) {
            reply = Reply();
            reply.status = Status::kError;
            append_text(reply.head, e.what());
          }
        }
      }

      if (fault) {
        switch (fault->action) {
          case FaultAction::kDropBeforeResponse:
            return;  // Hangup severs the connection, response unsent
          case FaultAction::kCrashBeforeFsync:
          case FaultAction::kCrashBeforeRename:
          case FaultAction::kTornWrite:
            // The simulated crash already left its torn on-disk state (and,
            // on a persistent PUT, skipped the in-memory update); the
            // "dead" server never answers.
            return;
          case FaultAction::kDelay:
            injected_sleep(fault->delay_ms);
            break;
          case FaultAction::kCorruptPayload: {
            // Flip a byte of the answer as sent, never of the stored block:
            // the borrowed range is copied into the owned part first.
            reply.head.bytes(reply.tail);
            reply.tail = {};
            reply.pin.reset();
            auto& buf = reply.head.data();
            if (!buf.empty()) buf[fault->corrupt_offset % buf.size()] ^= 0x01;
            break;
          }
          default:
            break;
        }
      }

      // Header, owned part and borrowed range: one gather sendmsg.
      std::uint8_t out[5];
      out[0] = static_cast<std::uint8_t>(reply.status);
      const auto rlen = static_cast<std::uint32_t>(reply.head.data().size() +
                                                   reply.tail.size());
      std::memcpy(out + 1, &rlen, sizeof rlen);
      conn.send_all({out, reply.head.data(), reply.tail});

      if (close_after) return;
      if (fault && fault->action == FaultAction::kDropAfterResponse) return;
    }
  } catch (const std::exception&) {
    // Connection-level failure: drop the session; the store stays intact.
  }
}

void BlockServer::handle(Op op, Reader& req,
                         std::unique_ptr<std::uint8_t[]>& payload,
                         Reply& reply, CrashPoint crash) {
  Status& status = reply.status;
  Writer& resp = reply.head;
  switch (op) {
    case Op::kPing:
      return;
    case Op::kPut: {
      BlockKey key = req.key();
      std::uint32_t declared = req.u32();
      auto bytes = req.rest();
      std::uint32_t actual = crc_of(bytes);
      if (actual != declared) {
        // The request payload was mangled in flight; refuse to store it.
        status = Status::kCorrupt;
        resp.u32(actual);
        return;
      }
      util::MutexLock write(write_mu_);
      if (persist_) {
        // Durability before acknowledgement: the block must survive a
        // power cut the instant after the response is sent.  A simulated
        // crash leaves the injected torn state on disk and skips the
        // in-memory update — RAM would not have survived either.
        if (!persist_->put(key, bytes, declared, crash)) return;
      }
      // The frame's payload buffer becomes the stored block: no copy.
      auto block = std::make_shared<StoredBlock>();
      block->storage = std::move(payload);
      block->bytes = bytes;
      block->crc = declared;
      util::MutexLock lock(mu_);
      quarantined_.erase(key);
      Snapshot& slot = blocks_[key];
      const double old_bytes =
          slot ? static_cast<double>(slot->bytes.size()) : 0.0;
      slot = std::move(block);
      blocks_gauge_->set(static_cast<double>(blocks_.size()));
      stored_bytes_gauge_->add(static_cast<double>(bytes.size()) - old_bytes);
      return;
    }
    case Op::kGet:
    case Op::kGetRange: {
      BlockKey key = req.key();
      std::uint32_t off = 0;
      std::uint32_t len = 0;
      if (op == Op::kGetRange) {
        off = req.u32();
        len = req.u32();
      }
      Snapshot snap = lookup(key, status);
      if (!snap) return;
      std::span<const std::uint8_t> block = snap->bytes;
      if (op == Op::kGet) len = static_cast<std::uint32_t>(block.size());
      if (std::size_t(off) + len > block.size())
        throw std::runtime_error("range out of bounds");
      // One pass over the block: the range's own CRC goes on the wire, and
      // joined with the prefix and suffix CRCs it checks every stored byte.
      std::span<const std::uint8_t> range = block.subspan(off, len);
      std::span<const std::uint8_t> suffix = block.subspan(off + len);
      std::uint32_t range_crc = crc_of(range);
      std::uint32_t actual = util::crc32_combine(
          util::crc32_combine(crc_of(block.first(off)), range_crc, len),
          crc_of(suffix), suffix.size());
      if (actual != snap->crc) {
        status = Status::kCorrupt;
        resp.u32(actual);
        return;
      }
      // The range goes out straight from the snapshot.
      resp.u32(range_crc);
      reply.tail = range;
      reply.pin = std::move(snap);
      return;
    }
    case Op::kProject: {
      BlockKey key = req.key();
      std::uint32_t unit_bytes = req.u32();
      std::uint16_t outputs = req.u16();
      Snapshot snap = lookup(key, status);
      if (!snap) return;
      std::span<const std::uint8_t> block = snap->bytes;
      if (unit_bytes == 0 || block.size() % unit_bytes != 0)
        throw std::runtime_error("unit size does not divide the block");
      std::uint32_t actual = crc_of(block);
      if (actual != snap->crc) {
        status = Status::kCorrupt;
        resp.u32(actual);
        return;
      }
      // Each output is one fused dot product over its terms, written
      // straight into the answer behind a CRC word filled in last.
      const std::size_t units = block.size() / unit_bytes;
      auto& buf = resp.data();
      buf.resize(4 + std::size_t(outputs) * unit_bytes);
      std::vector<std::uint8_t> coeffs;
      std::vector<const std::uint8_t*> srcs;
      for (std::uint16_t o = 0; o < outputs; ++o) {
        std::uint16_t terms = req.u16();
        coeffs.clear();
        srcs.clear();
        for (std::uint16_t t = 0; t < terms; ++t) {
          std::uint32_t pos = req.u32();
          std::uint8_t coeff = req.u8();
          if (pos >= units) throw std::runtime_error("unit out of range");
          coeffs.push_back(coeff);
          srcs.push_back(block.data() + std::size_t(pos) * unit_bytes);
        }
        gf::dot_prod_region(coeffs, srcs,
                            buf.data() + 4 + std::size_t(o) * unit_bytes,
                            unit_bytes);
      }
      const std::uint32_t body_crc =
          crc_of(std::span<const std::uint8_t>(buf).subspan(4));
      for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<std::uint8_t>(body_crc >> (8 * i));
      return;
    }
    case Op::kDelete: {
      BlockKey key = req.key();
      util::MutexLock write(write_mu_);
      Snapshot gone;
      bool was_quarantined = false;
      {
        util::MutexLock lock(mu_);
        // Deleting a quarantined block clears the damage mark (its files
        // already sit in quarantine/, nothing on the main path to remove).
        was_quarantined = quarantined_.erase(key) > 0;
        auto it = blocks_.find(key);
        if (it != blocks_.end()) {
          gone = std::move(it->second);
          blocks_.erase(it);
          blocks_gauge_->set(static_cast<double>(blocks_.size()));
        }
      }
      if (!gone) {
        if (!was_quarantined) status = Status::kNotFound;
        return;
      }
      if (persist_) persist_->erase(key);
      stored_bytes_gauge_->add(-static_cast<double>(gone->bytes.size()));
      return;
    }
    case Op::kStats: {
      util::MutexLock lock(mu_);
      resp.u32(static_cast<std::uint32_t>(blocks_.size()));
      std::uint64_t total = 0;
      for (const auto& [key, block] : blocks_) total += block->bytes.size();
      resp.u64(total);
      return;
    }
    case Op::kVerify: {
      BlockKey key = req.key();
      Snapshot snap = lookup(key, status);
      if (!snap) return;  // a quarantined payload has no CRC to report
      std::uint32_t actual = crc_of(snap->bytes);
      if (actual != snap->crc) status = Status::kCorrupt;
      resp.u32(actual);
      return;
    }
    case Op::kMetrics: {
      // This server's registry first, then the process-global one (codec,
      // GF-kernel and thread-pool metrics) — one Prometheus text document.
      std::string text = metrics_.render_prometheus();
      text += obs::MetricsRegistry::global().render_prometheus();
      resp.bytes({reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()});
      return;
    }
  }
  throw std::runtime_error("unknown opcode");
}

}  // namespace carousel::net
