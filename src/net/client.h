// Client session to one block server: framed request/response over a single
// TCP connection, with byte counters so tests can assert on-the-wire repair
// traffic (the networked analogue of paper Fig. 7).
//
// Failure handling (net/errors.h gives the taxonomy):
//   - every send/recv runs under the policy's socket timeout, so a dead or
//     stalled server surfaces as TimeoutError instead of a hang;
//   - transport failures (refused, reset, EOF, timeout) reconnect and retry
//     under a RetryPolicy — capped attempts, exponential backoff with
//     jitter, and a per-op deadline across all attempts.  Requests are
//     idempotent, so the retry is safe;
//   - protocol violations and Status::kError answers are never retried;
//   - responses carry CRC-32s end to end: a mismatch on the wire is counted
//     and retried, while Status::kCorrupt (block bad at rest) throws
//     CorruptBlockError so callers can fail over to a parity path.
// Counters expose how often each of those happened.

#ifndef CAROUSEL_NET_CLIENT_H
#define CAROUSEL_NET_CLIENT_H

#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/errors.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace carousel::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace carousel::obs

namespace carousel::net {

/// How one logical operation survives transport failures.
struct RetryPolicy {
  /// Total tries per operation (first attempt included).
  int max_attempts = 4;
  /// Socket-level send/recv timeout per attempt (zero = block forever).
  std::chrono::milliseconds io_timeout{1000};
  /// Backoff before retry r is base_backoff * multiplier^r, capped at
  /// max_backoff, then jittered by +/- jitter (fraction).
  std::chrono::milliseconds base_backoff{5};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds max_backoff{200};
  double jitter = 0.5;
  /// Wall-clock budget for the operation across every attempt and backoff
  /// (zero = unbounded).  Exceeding it throws DeadlineError.
  std::chrono::milliseconds op_deadline{5000};
};

/// Health of one remote block, as reported by the VERIFY op.
enum class BlockHealth { kOk, kMissing, kCorrupt };

class Client {
 public:
  /// Remembers the server's port; the connection is established lazily on
  /// the first request (so a client can outlive server restarts and even be
  /// created while its server is down).  Failure counters and per-op latency
  /// histograms are mirrored into `registry` (the process-global registry
  /// when null); tests pass their own registry for isolated numbers.
  explicit Client(std::uint16_t port, RetryPolicy policy = {},
                  obs::MetricsRegistry* registry = nullptr);

  void ping();
  /// Returns the CRC-32 of `bytes` that the request carried, so a caller
  /// auditing the upload with verify() need not checksum the bytes again.
  std::uint32_t put(const BlockKey& key, std::span<const std::uint8_t> bytes);
  /// nullopt when the server does not hold the block.
  std::optional<std::vector<std::uint8_t>> get(const BlockKey& key);
  std::optional<std::vector<std::uint8_t>> get_range(const BlockKey& key,
                                                     std::uint32_t offset,
                                                     std::uint32_t length);
  /// The same range-GET with the range landing in `dst` (its length is
  /// dst.size()): the CRC is checked over the destination bytes, so no body
  /// buffer and no copy.  False when the block is missing.
  bool get_range(const BlockKey& key, std::uint32_t offset,
                 std::span<std::uint8_t> dst);
  /// One term: (unit position, GF coefficient); one output per term list.
  using Projection = std::vector<std::vector<std::pair<std::uint32_t,
                                                       std::uint8_t>>>;
  /// nullopt when the block is missing; otherwise outputs*unit_bytes bytes.
  std::optional<std::vector<std::uint8_t>> project(const BlockKey& key,
                                                   std::uint32_t unit_bytes,
                                                   const Projection& outputs);
  /// The same PROJECT with the outputs landing in `dst`, which must hold
  /// exactly outputs.size() * unit_bytes bytes (an answer of any other
  /// length is a ProtocolError): the CRC is checked over the destination
  /// bytes, so no body buffer and no copy.  False when the block is missing.
  bool project(const BlockKey& key, std::uint32_t unit_bytes,
               const Projection& outputs, std::span<std::uint8_t> dst);
  /// Returns false when the block was not held.
  bool remove(const BlockKey& key);
  struct Stats {
    std::uint32_t blocks = 0;
    std::uint64_t bytes = 0;
  };
  Stats stats();
  /// Audits a block server-side without transferring it; `crc_out` (if
  /// given) receives the block's actual CRC-32.
  BlockHealth verify(const BlockKey& key, std::uint32_t* crc_out = nullptr);

  /// The server's Prometheus text dump (METRICS op): its own registry
  /// followed by its process-global registry.
  std::string metrics_text();

  /// Pipelined exchanges: the send and receive halves of one GET_RANGE or
  /// PROJECT, for a caller that keeps requests to several servers in flight
  /// at once and waits on fd() with poll (CarouselStore::read_file).  The
  /// retrying call() behind every op above is built from the same two
  /// halves.  No retry here: a failure throws the typed error —
  /// TransportError (TimeoutError included) when a retry could help — and
  /// closes the connection, so the next request starts on a fresh one.
  void send_get_range(const BlockKey& key, std::uint32_t offset,
                      std::uint32_t length);
  void send_project(const BlockKey& key, std::uint32_t unit_bytes,
                    const Projection& outputs);
  /// Receives the answer to the request sent last.  A kOk body must be
  /// exactly dst.size() bytes and lands in dst, CRC checked over dst;
  /// returns false for kNotFound.
  bool receive_into(std::span<std::uint8_t> dst);
  /// True between a send_* and its receive_into.
  bool pending() const { return pending_.has_value(); }
  /// Gives up on the pending answer: the connection is closed, not drained.
  /// `timed_out` counts the give-up as a timeout (the caller's wait for the
  /// answer ran out).
  void abandon(bool timed_out = false);
  /// Counts a retry the caller runs itself after a pipelined exchange
  /// failed in a way a retry could cure (it then repeats the op through the
  /// retrying call()).
  void count_retry();
  /// The connection's descriptor (-1 before the first send_*).
  int fd() const { return conn_.fd(); }

  /// Failure-handling telemetry, cumulative over the client's life.
  struct Counters {
    std::uint64_t retries = 0;           // attempts beyond the first
    std::uint64_t reconnects = 0;        // connections after the first
    std::uint64_t timeouts = 0;          // socket timeouts observed
    std::uint64_t wire_corruptions = 0;  // checksum mismatches in flight
    std::uint64_t corrupt_blocks = 0;    // Status::kCorrupt answers

    Counters& operator+=(const Counters& o) {
      retries += o.retries;
      reconnects += o.reconnects;
      timeouts += o.timeouts;
      wire_corruptions += o.wire_corruptions;
      corrupt_blocks += o.corrupt_blocks;
      return *this;
    }
  };
  /// Consistent-enough snapshot: each field is read atomically, so another
  /// thread may observe counts mid-operation but never torn values.
  Counters counters() const {
    auto ld = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return {ld(counters_.retries), ld(counters_.reconnects),
            ld(counters_.timeouts), ld(counters_.wire_corruptions),
            ld(counters_.corrupt_blocks)};
  }
  const RetryPolicy& policy() const { return policy_; }

  std::uint64_t bytes_sent() const {
    return sent_before_.load(std::memory_order_relaxed) + conn_.bytes_sent();
  }
  std::uint64_t bytes_received() const {
    return received_before_.load(std::memory_order_relaxed) +
           conn_.bytes_received();
  }

 private:
  struct CallOpts {
    bool checksummed = false;       // response = u32 crc, data (verify/strip)
    bool corrupt_retryable = false; // kCorrupt = request mangled (PUT): retry
    bool corrupt_returns = false;   // kCorrupt is a valid answer (VERIFY)
  };
  /// Runs one operation under the retry policy; see the header comment for
  /// the full classification.  Each attempt is one send_request plus one
  /// receive.  The request payload is `head` followed by `tail`, sent
  /// without joining them (a PUT's tail is the caller's block); with `dst`
  /// set, a checksummed body lands there instead of in the returned vector.
  std::pair<Status, std::vector<std::uint8_t>> call(
      Op op, std::span<const std::uint8_t> head, CallOpts opts,
      std::span<const std::uint8_t> tail = {},
      std::span<std::uint8_t>* dst = nullptr);
  std::pair<Status, std::vector<std::uint8_t>> call(
      Op op, std::span<const std::uint8_t> head) {
    return call(op, head, CallOpts{});
  }
  /// Send half: the frame header, `head` and `tail` in one gather sendmsg
  /// on the open connection; marks the answer pending.
  void send_request(Op op, std::span<const std::uint8_t> head,
                    std::span<const std::uint8_t> tail);
  /// Receive half: the 5-byte header with one recv, then a checksummed kOk
  /// answer's CRC word and body with one scatter recvmsg — into *dst when
  /// given and the lengths match, else into `body`, which also takes every
  /// other answer's payload.  Classifies the answer: throws ServerError,
  /// BadRequestError, CorruptBlockError, ProtocolError or WireCorruption
  /// (counted) as the header comment describes; returns the status
  /// otherwise.
  Status receive(CallOpts opts, std::span<std::uint8_t>* dst,
                 std::vector<std::uint8_t>& body);
  /// Connects (if needed) and sends one pipelined request.
  void begin(Op op, std::span<const std::uint8_t> head);
  /// Runs one half of a pipelined exchange.  A failure closes the
  /// connection and surfaces typed: a timeout counted, a checksum mismatch
  /// in flight (counted by receive) as TransportError.  Defined, and only
  /// used, in client.cpp.
  template <class Half>
  void pipelined(Half&& half);
  /// Opens the connection if needed.  The connect attempt is bounded by the
  /// per-attempt io_timeout AND the remaining op deadline, whichever is
  /// tighter; throws DeadlineError when the deadline is already spent.
  void ensure_connected(std::chrono::steady_clock::time_point deadline);
  /// Closes the connection (folding its byte counts) and forgets any
  /// pending answer; the next request reconnects.
  void drop_connection();
  void count_timeout();
  /// Backoff before retry `attempt`; throws DeadlineError when it would
  /// cross `deadline`.
  void backoff(int attempt,
               std::chrono::steady_clock::time_point deadline);

  // Live counters: relaxed atomics so counters()/bytes_sent() are safe to
  // read from other threads while an operation is in flight (the old plain
  // fields raced the sent_before_ fold in drop_connection()).
  struct AtomicCounters {
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> wire_corruptions{0};
    std::atomic<std::uint64_t> corrupt_blocks{0};
  };

  std::uint16_t port_;
  RetryPolicy policy_;
  TcpConn conn_;
  // The request whose answer has not been received yet, and when it went
  // out (the op's latency histogram is charged on receipt).
  struct Pending {
    Op op;
    std::chrono::steady_clock::time_point sent;
  };
  std::optional<Pending> pending_;
  bool ever_connected_ = false;
  AtomicCounters counters_;
  std::minstd_rand jitter_rng_;
  std::atomic<std::uint64_t> sent_before_{0};  // counters of prior connections
  std::atomic<std::uint64_t> received_before_{0};

  // Registry mirrors (see constructor): per-op latency plus the same failure
  // taxonomy as Counters, shared across every client of the registry.
  std::array<obs::Histogram*, kOpCount> op_seconds_{};
  obs::Counter* retries_total_ = nullptr;
  obs::Counter* reconnects_total_ = nullptr;
  obs::Counter* timeouts_total_ = nullptr;
  obs::Counter* wire_corruptions_total_ = nullptr;
  obs::Counter* corrupt_blocks_total_ = nullptr;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_CLIENT_H
