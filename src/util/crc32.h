// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the integrity
// checksum used by the archive tool and the block scrubber.  Matches zlib's
// crc32() on the standard "123456789" test vector (0xCBF43926).

#ifndef CAROUSEL_UTIL_CRC32_H
#define CAROUSEL_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace carousel::util {

/// CRC of `data`; chain incrementally by passing the previous result as
/// `seed` (seed 0 starts a fresh checksum).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);

/// CRC of A followed by B, given crc1 = crc32(A), crc2 = crc32(B) and
/// len2 = |B|, without touching the bytes (zlib's x^(8n) mod P method).
std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::size_t len2);

}  // namespace carousel::util

#endif  // CAROUSEL_UTIL_CRC32_H
