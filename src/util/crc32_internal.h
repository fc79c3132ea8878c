// Internal interface between the dispatching crc32() (crc32.cpp) and its
// kernels.  Not part of the public API; tests call each kernel directly.
//
// Every kernel computes the same function as util::crc32: reflected
// polynomial 0xEDB88320, `seed` chains a previous result, seed 0 starts
// fresh.

#ifndef CAROUSEL_UTIL_CRC32_INTERNAL_H
#define CAROUSEL_UTIL_CRC32_INTERNAL_H

#include <cstddef>
#include <cstdint>

namespace carousel::util::internal {

using Crc32Kernel = std::uint32_t (*)(const std::uint8_t* p, std::size_t n,
                                      std::uint32_t seed);

/// Byte-at-a-time table loop: the portable path and the reference.
std::uint32_t crc32_table(const std::uint8_t* p, std::size_t n,
                          std::uint32_t seed);
/// 128-bit PCLMULQDQ folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction"), 64 bytes per step.
/// Only call it when cpu_has_pclmul(); on non-x86 builds it is the table
/// loop.
std::uint32_t crc32_pclmul(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed);
/// The same folding over four 512-bit VPCLMULQDQ accumulators, 256 bytes
/// per step; shorter inputs take crc32_pclmul.  Only call it when
/// cpu_has_vpclmul(); on non-x86 builds it is the table loop.
std::uint32_t crc32_vpclmul(const std::uint8_t* p, std::size_t n,
                            std::uint32_t seed);

bool cpu_has_pclmul();
/// pclmul plus avx512f, avx512vl and vpclmulqdq, with the OS saving ZMM
/// state.
bool cpu_has_vpclmul();

/// The widest kernel this CPU runs, resolved once; util::crc32 calls it.
Crc32Kernel crc32_kernel();

}  // namespace carousel::util::internal

#endif  // CAROUSEL_UTIL_CRC32_INTERNAL_H
