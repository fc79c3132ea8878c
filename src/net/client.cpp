#include "net/client.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"

namespace carousel::net {

namespace {

// Internal signal: the response arrived but its payload failed the checksum.
// The frame boundary is intact, so the attempt is retryable on the same
// connection.
struct WireCorruption {};

std::uint32_t read_le32(const std::uint8_t* b) {
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

Writer range_request(const BlockKey& key, std::uint32_t offset,
                     std::uint32_t length) {
  Writer w;
  w.key(key);
  w.u32(offset);
  w.u32(length);
  return w;
}

Writer project_request(const BlockKey& key, std::uint32_t unit_bytes,
                       const Client::Projection& outputs) {
  Writer w;
  w.key(key);
  w.u32(unit_bytes);
  w.u16(static_cast<std::uint16_t>(outputs.size()));
  for (const auto& terms : outputs) {
    w.u16(static_cast<std::uint16_t>(terms.size()));
    for (auto [pos, coeff] : terms) {
      w.u32(pos);
      w.u8(coeff);
    }
  }
  return w;
}

}  // namespace

Client::Client(std::uint16_t port, RetryPolicy policy,
               obs::MetricsRegistry* registry)
    : port_(port),
      policy_(policy),
      jitter_rng_(0x9e3779b97f4a7c15ull ^ port) {
  auto& reg = registry ? *registry : obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < kOpCount; ++i)
    op_seconds_[i] = &reg.histogram(obs::labeled(
        "carousel_client_op_seconds", "op", op_name(op_from_index(i))));
  retries_total_ = &reg.counter("carousel_client_retries_total");
  reconnects_total_ = &reg.counter("carousel_client_reconnects_total");
  timeouts_total_ = &reg.counter("carousel_client_timeouts_total");
  wire_corruptions_total_ =
      &reg.counter("carousel_client_wire_corruptions_total");
  corrupt_blocks_total_ = &reg.counter("carousel_client_corrupt_blocks_total");
}

void Client::ensure_connected(std::chrono::steady_clock::time_point deadline) {
  if (conn_.valid()) return;
  // The handshake is charged against both budgets: it never outlives the
  // per-attempt io_timeout, and never outlives what remains of the op
  // deadline — a peer that stalls in SYN purgatory used to eat the whole
  // kernel retry cycle without the deadline noticing.
  auto timeout = policy_.io_timeout;
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0)
      throw DeadlineError("op deadline exhausted before connect");
    if (timeout.count() <= 0 || remaining < timeout) timeout = remaining;
  }
  conn_ = TcpConn::connect(port_, timeout);
  conn_.set_io_timeout(policy_.io_timeout);
  if (ever_connected_) {
    counters_.reconnects.fetch_add(1, std::memory_order_relaxed);
    reconnects_total_->inc();
  }
  ever_connected_ = true;
}

void Client::drop_connection() {
  // Fold first, reset second: a concurrent bytes_sent() reader may briefly
  // see the folded total plus the old connection's count (a transient
  // over-read) but never loses bytes once the reset lands.
  sent_before_.fetch_add(conn_.bytes_sent(), std::memory_order_relaxed);
  received_before_.fetch_add(conn_.bytes_received(),
                             std::memory_order_relaxed);
  conn_ = TcpConn();
  pending_.reset();
}

void Client::backoff(int attempt,
                     std::chrono::steady_clock::time_point deadline) {
  using namespace std::chrono;
  double ms = static_cast<double>(policy_.base_backoff.count());
  for (int i = 0; i < attempt; ++i) ms *= policy_.backoff_multiplier;
  ms = std::min(ms, static_cast<double>(policy_.max_backoff.count()));
  if (policy_.jitter > 0.0) {
    double u = std::uniform_real_distribution<double>(-1.0, 1.0)(jitter_rng_);
    ms *= 1.0 + policy_.jitter * u;
  }
  auto wait = milliseconds(static_cast<milliseconds::rep>(std::max(ms, 0.0)));
  if (steady_clock::now() + wait > deadline)
    throw DeadlineError("op deadline exhausted while backing off");
  std::this_thread::sleep_for(wait);
}

std::pair<Status, std::vector<std::uint8_t>> Client::call(
    Op op, std::span<const std::uint8_t> head, CallOpts opts,
    std::span<const std::uint8_t> tail, std::span<std::uint8_t>* dst) {
  using clock = std::chrono::steady_clock;
  obs::ScopedTimer timer(*op_seconds_[static_cast<std::size_t>(op)]);
  // A pipelined request nobody received must not leave its answer in the
  // way of this one.
  if (pending_) drop_connection();
  const auto deadline = policy_.op_deadline.count() > 0
                            ? clock::now() + policy_.op_deadline
                            : clock::time_point::max();
  std::string last_failure;
  for (int attempt = 0;; ++attempt) {
    // Charge everything — connects, sends, stalls — against the deadline,
    // not just backoff sleeps: a retry loop whose every attempt times out
    // must stop at the deadline even though it never sleeps long.
    if (attempt > 0 && clock::now() >= deadline)
      throw DeadlineError("op deadline exhausted after " +
                          std::to_string(attempt) +
                          " attempts; last: " + last_failure);
    try {
      ensure_connected(deadline);
      send_request(op, head, tail);
      std::vector<std::uint8_t> body;
      const Status status = receive(opts, dst, body);
      return {status, std::move(body)};
    } catch (const TimeoutError& e) {
      count_timeout();
      last_failure = e.what();
      drop_connection();
    } catch (const TransportError& e) {
      last_failure = e.what();
      drop_connection();
    } catch (const std::system_error& e) {
      last_failure = e.what();
      drop_connection();
    } catch (const WireCorruption&) {
      last_failure = "response failed its checksum in flight";
      // Framing survived; keep the connection.
    }
    // ProtocolError / BadRequestError / ServerError / CorruptBlockError /
    // DeadlineError propagate to the caller: retrying cannot change the
    // answer.
    if (attempt + 1 >= policy_.max_attempts)
      throw TransportError("op failed after " +
                           std::to_string(policy_.max_attempts) +
                           " attempts; last: " + last_failure);
    count_retry();
    backoff(attempt, deadline);
  }
}

void Client::send_request(Op op, std::span<const std::uint8_t> head,
                          std::span<const std::uint8_t> tail) {
  // Frame: op byte, u32 payload length (host order, as the server reads
  // it), payload.
  std::uint8_t frame[5];
  frame[0] = static_cast<std::uint8_t>(op);
  const auto len = static_cast<std::uint32_t>(head.size() + tail.size());
  std::memcpy(frame + 1, &len, sizeof len);
  pending_ = Pending{op, std::chrono::steady_clock::now()};
  conn_.send_all({frame, head, tail});
}

Status Client::receive(CallOpts opts, std::span<std::uint8_t>* dst,
                       std::vector<std::uint8_t>& body) {
  pending_.reset();
  std::uint8_t header[5] = {};
  if (!conn_.recv_all(header, sizeof header))
    throw TransportError("server closed the connection");
  std::uint32_t rlen = 0;
  std::memcpy(&rlen, header + 1, sizeof rlen);
  // Check the length prefix against the frame cap *before* sizing the body
  // buffer: a garbage length must not drive an unbounded allocation.
  if (rlen > kMaxFrameBytes) throw ProtocolError("malformed response length");
  std::optional<Status> status = parse_status(header[0]);
  if (!status) throw ProtocolError("unknown response status");
  // A checksummed answer leads with the payload's CRC: it is taken apart
  // so the payload lands as it is.  A frame too short to hold the CRC is
  // still read through, so the connection stays in sync.
  const bool checked = opts.checksummed && *status == Status::kOk && rlen >= 4;
  std::uint8_t word[4] = {};
  const std::uint32_t body_len = checked ? rlen - 4 : rlen;
  const bool to_dst = checked && dst && dst->size() == body_len;
  if (!to_dst) body.resize(body_len);
  std::span<std::uint8_t> into = to_dst ? *dst : std::span<std::uint8_t>(body);
  if (!conn_.recv_all({std::span<std::uint8_t>(word, checked ? 4 : 0), into}))
    throw TransportError("truncated response");
  if (opts.checksummed && *status == Status::kOk && !checked)
    throw ProtocolError("response missing its checksum");
  if (checked && dst && !to_dst)
    throw ProtocolError("response length does not match the request");

  if (*status == Status::kError)
    throw ServerError("server error: " + std::string(body.begin(), body.end()));
  if (*status == Status::kBadRequest)
    throw BadRequestError("server rejected request as malformed: " +
                          std::string(body.begin(), body.end()));
  if (*status == Status::kCorrupt) {
    if (opts.corrupt_retryable) {
      // PUT: our request was mangled in flight; resend it.
      counters_.wire_corruptions.fetch_add(1, std::memory_order_relaxed);
      wire_corruptions_total_->inc();
      throw WireCorruption{};
    }
    if (!opts.corrupt_returns) {
      counters_.corrupt_blocks.fetch_add(1, std::memory_order_relaxed);
      corrupt_blocks_total_->inc();
      throw CorruptBlockError("block failed its checksum at rest");
    }
  }
  if (checked && util::crc32(into) != read_le32(word)) {
    counters_.wire_corruptions.fetch_add(1, std::memory_order_relaxed);
    wire_corruptions_total_->inc();
    throw WireCorruption{};
  }
  return *status;
}

template <class Half>
void Client::pipelined(Half&& half) {
  try {
    half();
  } catch (const WireCorruption&) {
    drop_connection();
    throw TransportError("response failed its checksum in flight");
  } catch (const TimeoutError&) {
    count_timeout();
    drop_connection();
    throw;
  } catch (const std::system_error& e) {
    drop_connection();
    throw TransportError(e.what());
  } catch (...) {
    drop_connection();
    throw;
  }
}

void Client::begin(Op op, std::span<const std::uint8_t> head) {
  if (pending_) drop_connection();
  const auto deadline =
      policy_.op_deadline.count() > 0
          ? std::chrono::steady_clock::now() + policy_.op_deadline
          : std::chrono::steady_clock::time_point::max();
  pipelined([&] {
    ensure_connected(deadline);
    send_request(op, head, {});
  });
}

bool Client::receive_into(std::span<std::uint8_t> dst) {
  if (!pending_) throw std::logic_error("receive_into: no request pending");
  // The op's latency runs from its send to here, whatever the outcome.
  struct Charge {
    obs::Histogram& seconds;
    std::chrono::steady_clock::time_point since;
    ~Charge() {
      seconds.observe(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - since)
                          .count());
    }
  } charge{*op_seconds_[static_cast<std::size_t>(pending_->op)],
           pending_->sent};
  bool found = false;
  pipelined([&] {
    std::vector<std::uint8_t> body;
    found = receive({.checksummed = true}, &dst, body) == Status::kOk;
  });
  return found;
}

void Client::abandon(bool timed_out) {
  if (timed_out) count_timeout();
  drop_connection();
}

void Client::count_timeout() {
  counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
  timeouts_total_->inc();
}

void Client::count_retry() {
  counters_.retries.fetch_add(1, std::memory_order_relaxed);
  retries_total_->inc();
}

void Client::ping() { call(Op::kPing, {}); }

std::uint32_t Client::put(const BlockKey& key,
                          std::span<const std::uint8_t> bytes) {
  const std::uint32_t crc = util::crc32(bytes);
  Writer w;
  w.key(key);
  w.u32(crc);
  call(Op::kPut, w.data(), {.corrupt_retryable = true}, bytes);
  return crc;
}

std::optional<std::vector<std::uint8_t>> Client::get(const BlockKey& key) {
  Writer w;
  w.key(key);
  auto [status, body] = call(Op::kGet, w.data(), {.checksummed = true});
  if (status == Status::kNotFound) return std::nullopt;
  return std::move(body);
}

std::optional<std::vector<std::uint8_t>> Client::get_range(
    const BlockKey& key, std::uint32_t offset, std::uint32_t length) {
  auto [status, body] = call(Op::kGetRange,
                             range_request(key, offset, length).data(),
                             {.checksummed = true});
  if (status == Status::kNotFound) return std::nullopt;
  return std::move(body);
}

bool Client::get_range(const BlockKey& key, std::uint32_t offset,
                       std::span<std::uint8_t> dst) {
  auto [status, body] = call(
      Op::kGetRange,
      range_request(key, offset, static_cast<std::uint32_t>(dst.size()))
          .data(),
      {.checksummed = true}, {}, &dst);
  return status == Status::kOk;
}

std::optional<std::vector<std::uint8_t>> Client::project(
    const BlockKey& key, std::uint32_t unit_bytes, const Projection& outputs) {
  auto [status, body] =
      call(Op::kProject, project_request(key, unit_bytes, outputs).data(),
           {.checksummed = true});
  if (status == Status::kNotFound) return std::nullopt;
  return std::move(body);
}

bool Client::project(const BlockKey& key, std::uint32_t unit_bytes,
                     const Projection& outputs, std::span<std::uint8_t> dst) {
  auto [status, body] =
      call(Op::kProject, project_request(key, unit_bytes, outputs).data(),
           {.checksummed = true}, {}, &dst);
  return status == Status::kOk;
}

void Client::send_get_range(const BlockKey& key, std::uint32_t offset,
                            std::uint32_t length) {
  begin(Op::kGetRange, range_request(key, offset, length).data());
}

void Client::send_project(const BlockKey& key, std::uint32_t unit_bytes,
                          const Projection& outputs) {
  begin(Op::kProject, project_request(key, unit_bytes, outputs).data());
}

bool Client::remove(const BlockKey& key) {
  Writer w;
  w.key(key);
  auto [status, body] = call(Op::kDelete, w.data());
  return status == Status::kOk;
}

Client::Stats Client::stats() {
  auto [status, body] = call(Op::kStats, {});
  Reader r(body);
  Stats s;
  s.blocks = r.u32();
  s.bytes = r.u64();
  return s;
}

std::string Client::metrics_text() {
  auto [status, body] = call(Op::kMetrics, {});
  return std::string(body.begin(), body.end());
}

BlockHealth Client::verify(const BlockKey& key, std::uint32_t* crc_out) {
  Writer w;
  w.key(key);
  auto [status, body] = call(Op::kVerify, w.data(), {.corrupt_returns = true});
  if (status == Status::kNotFound) return BlockHealth::kMissing;
  if (crc_out && body.size() >= 4) *crc_out = read_le32(body.data());
  return status == Status::kCorrupt ? BlockHealth::kCorrupt : BlockHealth::kOk;
}

}  // namespace carousel::net
