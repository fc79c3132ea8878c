#include "net/durable_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <system_error>

namespace carousel::net::durable {

namespace fs = std::filesystem;

namespace {

/// Opens `path` read-only with `extra` flags and fsyncs it.
void fsync_path(const fs::path& path, int extra, const char* what) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | extra);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) throw_errno(what, path);
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno(what, path);
  }
  ::close(fd);
}

}  // namespace

void throw_errno(const char* what, const fs::path& path) {
  throw std::system_error(errno, std::generic_category(),
                          std::string(what) + " " + path.string());
}

std::optional<std::vector<std::uint8_t>> read_file(const fs::path& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (r == 0) break;
    out.insert(out.end(), buf, buf + r);
  }
  ::close(fd);
  return out;
}

void write_file(const fs::path& path, std::span<const std::uint8_t> bytes) {
  write_file(path, {bytes});
}

void write_file(const fs::path& path,
                std::initializer_list<std::span<const std::uint8_t>> parts) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,  // NOLINT(cppcoreguidelines-pro-type-vararg)
                  0644);
  if (fd < 0) throw_errno("open", path);
  for (std::span<const std::uint8_t> bytes : parts) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (w < 0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        throw_errno("write", path);
      }
      off += static_cast<std::size_t>(w);
    }
  }
  if (::close(fd) != 0) throw_errno("close", path);
}

void flush_file(const fs::path& path, obs::Counter& fsyncs) {
  fsync_path(path, 0, "fsync");
  fsyncs.inc();
}

void flush_dir(const fs::path& dir, obs::Counter& fsyncs) {
  fsync_path(dir, O_DIRECTORY, "fsync dir");
  fsyncs.inc();
}

}  // namespace carousel::net::durable
