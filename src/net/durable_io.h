// Durable-file primitives shared by the block server's on-disk store
// (net/persistence.h) and the coordinator's metadata journal
// (net/meta_log.h).
//
// Every failure throws std::system_error carrying errno and the path —
// except read_file(), whose callers treat an unreadable file as absent.  In
// particular a directory flush never fails silently: a rename is durable
// only once its directory is, and a caller that goes on (truncating a
// journal behind a snapshot, acknowledging a PUT) must know when it is not.

#ifndef CAROUSEL_NET_DURABLE_IO_H
#define CAROUSEL_NET_DURABLE_IO_H

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.h"

namespace carousel::net::durable {

/// Throws std::system_error for the current errno: "<what> <path>".
[[noreturn]] void throw_errno(const char* what,
                              const std::filesystem::path& path);

/// Whole-file read; nullopt when the file cannot be opened or read.
std::optional<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path);

/// Creates or truncates `path` and writes all of `bytes` (no fsync).
void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes);
/// Same, with the file's content given as parts written back to back.
void write_file(const std::filesystem::path& path,
                std::initializer_list<std::span<const std::uint8_t>> parts);

/// fsyncs one file's bytes, then counts the fsync in `fsyncs`.
void flush_file(const std::filesystem::path& path, obs::Counter& fsyncs);

/// fsyncs a directory, making the creations and renames in it durable, then
/// counts the fsync in `fsyncs`.  Throws when `dir` does not exist or is
/// not a directory.
void flush_dir(const std::filesystem::path& dir, obs::Counter& fsyncs);

}  // namespace carousel::net::durable

#endif  // CAROUSEL_NET_DURABLE_IO_H
