// Minimal RAII TCP sockets (POSIX, loopback-oriented).
//
// The networked block store (net/block_server.h, net/store.h) is this
// repository's analogue of the paper's Hadoop prototype: real bytes move
// over real sockets, helpers run their repair projections server-side, and
// the tests measure repair traffic on the wire.  Blocking I/O with
// full-length send/recv helpers keeps the protocol code straightforward.

#ifndef CAROUSEL_NET_SOCKET_H
#define CAROUSEL_NET_SOCKET_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

namespace carousel::net {

/// A connected TCP stream.  Move-only; closes on destruction.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd) : fd_(fd) {}
  ~TcpConn() { close(); }
  TcpConn(TcpConn&& other) noexcept
      : fd_(other.fd_),
        sent_(other.bytes_sent()),
        received_(other.bytes_received()) {
    other.fd_ = -1;
  }
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  /// Connects to 127.0.0.1:port; throws TransportError on failure.
  static TcpConn connect(std::uint16_t port);

  /// Like connect(port), but gives up after `timeout` with TimeoutError: the
  /// handshake runs non-blocking behind a poll, so a peer whose accept queue
  /// is full (SYN sent, no room) cannot hold the caller for the kernel's
  /// multi-minute retry cycle.  The socket is returned in blocking mode.
  /// A zero timeout means block indefinitely, as connect(port) does.
  static TcpConn connect(std::uint16_t port, std::chrono::milliseconds timeout);

  bool valid() const { return fd_ >= 0; }

  /// Installs SO_SNDTIMEO / SO_RCVTIMEO on the socket: a send or recv that
  /// makes no progress for this long throws TimeoutError instead of blocking
  /// forever behind a dead or stalled peer.  Zero disables the timeout.
  void set_io_timeout(std::chrono::milliseconds timeout);

  /// Sends exactly n bytes; throws TransportError (TimeoutError if the send
  /// timeout fired) on error or peer close.
  void send_all(const void* data, std::size_t n);
  /// Sends every part, back to back, with scatter-gather sendmsg calls (no
  /// copy into one buffer); at most kMaxSendParts parts.  Errors as
  /// send_all(data, n).
  static constexpr std::size_t kMaxSendParts = 4;
  void send_all(std::initializer_list<std::span<const std::uint8_t>> parts);
  /// Receives exactly n bytes; throws TransportError (TimeoutError if the
  /// recv timeout fired) on error; returns false on clean EOF at a message
  /// boundary (n bytes requested, zero received).
  bool recv_all(void* data, std::size_t n);
  /// Fills every part, in order, with scatter recvmsg calls, so bytes land
  /// where the caller wants them without a staging copy; at most
  /// kMaxSendParts parts.  Errors and the EOF result as recv_all(data, n).
  bool recv_all(std::initializer_list<std::span<std::uint8_t>> parts);

  /// The descriptor, for poll() while an answer is pending (-1 when closed).
  int fd() const { return fd_; }

  void close();

  /// Half-closes both directions without releasing the fd: any thread
  /// blocked in recv on this connection wakes with EOF.  Used by server
  /// shutdown; the owner still calls close()/destructor afterwards.
  void shutdown_both();

  /// Half-closes only the receive direction: a thread blocked in recv wakes
  /// with EOF, but bytes already queued for send still flush to the peer.
  /// Used by graceful drain — in-flight responses complete, no new requests
  /// are read.
  void shutdown_read();

  /// Bytes moved through this connection (both directions), for the
  /// traffic-accounting tests.
  std::uint64_t bytes_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  int fd_ = -1;
  // Relaxed atomics: tests and metrics read traffic totals from other
  // threads while the I/O thread is still moving bytes (and while Client
  // folds a dying connection's totals during reconnect).
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
};

/// A listening socket bound to 127.0.0.1.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { close(); }
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds to the given port (0 = ephemeral) and listens; throws
  /// TransportError on failure.
  static TcpListener bind(std::uint16_t port);

  std::uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  /// Accepts one connection; returns an invalid conn if the listener was
  /// closed concurrently (the server's shutdown path).
  TcpConn accept();

  void close();

 private:
  // Atomic: close() (server shutdown) races the accept thread's read.
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_SOCKET_H
