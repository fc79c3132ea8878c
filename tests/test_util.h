// Shared helpers for the test suite.

#ifndef CAROUSEL_TESTS_TEST_UTIL_H
#define CAROUSEL_TESTS_TEST_UTIL_H

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace carousel::test {

/// Deterministic pseudo-random byte buffer.
inline std::vector<std::uint8_t> random_bytes(std::size_t n,
                                              std::uint32_t seed = 42) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Splits a contiguous buffer into `count` equal mutable spans.
inline std::vector<std::span<std::uint8_t>> split_spans(
    std::vector<std::uint8_t>& buf, std::size_t count) {
  std::vector<std::span<std::uint8_t>> out;
  const std::size_t each = buf.size() / count;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(buf.data() + i * each, each);
  return out;
}

/// Const view of the same split.
inline std::vector<std::span<const std::uint8_t>> split_const_spans(
    const std::vector<std::uint8_t>& buf, std::size_t count) {
  std::vector<std::span<const std::uint8_t>> out;
  const std::size_t each = buf.size() / count;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(buf.data() + i * each, each);
  return out;
}

/// All size-r subsets of {0, ..., n-1}.
inline std::vector<std::vector<std::size_t>> subsets(std::size_t n,
                                                     std::size_t r) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> cur;
  auto rec = [&](auto&& self, std::size_t start) -> void {
    if (cur.size() == r) {
      out.push_back(cur);
      return;
    }
    for (std::size_t i = start; i + (r - cur.size()) <= n; ++i) {
      cur.push_back(i);
      self(self, i + 1);
      cur.pop_back();
    }
  };
  rec(rec, 0);
  return out;
}

/// Keeps a dead server's port bound, but not listening, for the life of the
/// object: connects there are refused exactly as for a dead server, and no
/// other process (say, a test binary running beside this one) that binds
/// port 0 can take the port over and answer in the dead server's place.
class PortHold {
 public:
  explicit PortHold(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bound_ = fd_ >= 0 && ::bind(fd_, reinterpret_cast<sockaddr*>(&addr),
                                sizeof addr) == 0;
  }
  ~PortHold() {
    if (fd_ >= 0) ::close(fd_);
  }
  PortHold(const PortHold&) = delete;
  PortHold& operator=(const PortHold&) = delete;
  bool bound() const { return bound_; }

 private:
  int fd_;
  bool bound_ = false;
};

}  // namespace carousel::test

#endif  // CAROUSEL_TESTS_TEST_UTIL_H
