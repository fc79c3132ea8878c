#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "net/errors.h"

namespace carousel::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ETIMEDOUT)
    throw TimeoutError(std::string(what) + ": timed out");
  throw TransportError(std::string(what) + ": " + std::strerror(errno));
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    sent_.store(other.bytes_sent(), std::memory_order_relaxed);
    received_.store(other.bytes_received(), std::memory_order_relaxed);
    other.fd_ = -1;
  }
  return *this;
}

TcpConn TcpConn::connect(std::uint16_t port) {
  return connect(port, std::chrono::milliseconds(0));
}

TcpConn TcpConn::connect(std::uint16_t port,
                         std::chrono::milliseconds timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr = loopback(port);
  if (timeout.count() <= 0) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("connect");
    }
  } else {
    // Non-blocking handshake behind a poll: the only portable way to bound
    // connect().  SO_SNDTIMEO cannot be installed before the fd exists to
    // the caller, and the kernel's own SYN retry cycle runs minutes.
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("fcntl");
    }
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("connect");
    }
    if (rc != 0) {
      pollfd pfd{fd, POLLOUT, 0};
      int ready;
      do {
        ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
      } while (ready < 0 && errno == EINTR);
      if (ready < 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("poll");
      }
      if (ready == 0) {
        ::close(fd);
        throw TimeoutError("connect: timed out");
      }
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        if (err != 0) errno = err;
        int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("connect");
      }
    }
    if (::fcntl(fd, F_SETFL, flags) < 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("fcntl");
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpConn(fd);
}

void TcpConn::send_all(const void* data, std::size_t n) {
  send_all({{static_cast<const std::uint8_t*>(data), n}});
}

namespace {

/// Steps an iovec array past `done` bytes: whole parts first, then into a
/// partial one.  Returns the new count of parts still to move.
std::size_t advance(iovec*& next, std::size_t count, std::size_t done) {
  while (count > 0 && done >= next->iov_len) {
    done -= next->iov_len;
    ++next;
    --count;
  }
  if (count > 0) {
    next->iov_base = static_cast<std::uint8_t*>(next->iov_base) + done;
    next->iov_len -= done;
  }
  return count;
}

}  // namespace

void TcpConn::send_all(
    std::initializer_list<std::span<const std::uint8_t>> parts) {
  if (parts.size() > kMaxSendParts)
    throw std::invalid_argument("send_all: too many parts");
  iovec iov[kMaxSendParts];
  std::size_t count = 0;
  for (std::span<const std::uint8_t> part : parts)
    if (!part.empty())
      // sendmsg only reads through iov_base; iovec just lacks the const.
      iov[count++] = {const_cast<std::uint8_t*>(part.data()), part.size()};  // NOLINT(cppcoreguidelines-pro-type-const-cast)
  iovec* next = iov;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    if (w == 0) throw TransportError("send: peer closed");
    sent_.fetch_add(static_cast<std::uint64_t>(w), std::memory_order_relaxed);
    count = advance(next, count, static_cast<std::size_t>(w));
  }
}

bool TcpConn::recv_all(void* data, std::size_t n) {
  return recv_all({{static_cast<std::uint8_t*>(data), n}});
}

bool TcpConn::recv_all(std::initializer_list<std::span<std::uint8_t>> parts) {
  if (parts.size() > kMaxSendParts)
    throw std::invalid_argument("recv_all: too many parts");
  iovec iov[kMaxSendParts];
  std::size_t count = 0;
  for (std::span<std::uint8_t> part : parts)
    if (!part.empty()) iov[count++] = {part.data(), part.size()};
  iovec* next = iov;
  bool started = false;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    ssize_t r = ::recvmsg(fd_, &msg, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (r == 0) {
      if (!started) return false;  // clean EOF at a message boundary
      throw TransportError("recv: connection truncated mid-message");
    }
    started = true;
    received_.fetch_add(static_cast<std::uint64_t>(r),
                        std::memory_order_relaxed);
    count = advance(next, count, static_cast<std::size_t>(r));
  }
  return true;
}

void TcpConn::set_io_timeout(std::chrono::milliseconds timeout) {
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

void TcpConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpConn::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpConn::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1)), port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_.exchange(-1);
    port_ = other.port_;
  }
  return *this;
}

TcpListener TcpListener::bind(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind");
  }
  if (::listen(fd, 64) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("getsockname");
  }
  TcpListener l;
  l.fd_ = fd;
  l.port_ = ntohs(addr.sin_port);
  return l;
}

TcpConn TcpListener::accept() {
  int fd = ::accept(fd_.load(), nullptr, nullptr);
  if (fd < 0) return TcpConn();  // listener closed or transient failure
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpConn(fd);
}

void TcpListener::close() {
  int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() wakes a blocked accept() so Server::stop can join.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace carousel::net
