#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.h"
#include "util/crc32_internal.h"
#include "util/thread_pool.h"

namespace carousel::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { ++count; });
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&] {
      int now = ++inside;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --inside;
    });
  pool.wait_idle();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) pool.submit([&] { ++count; });
    pool.wait_idle();
  }
  EXPECT_EQ(count.load(), 10);
}

// ---- CRC-32 ---------------------------------------------------------------

struct NamedKernel {
  const char* name;
  internal::Crc32Kernel fn;
};

// Every kernel this CPU can run; the table loop is always among them.
std::vector<NamedKernel> supported_kernels() {
  std::vector<NamedKernel> out{{"table", internal::crc32_table}};
  if (internal::cpu_has_pclmul())
    out.push_back({"pclmul", internal::crc32_pclmul});
  if (internal::cpu_has_vpclmul())
    out.push_back({"vpclmul", internal::crc32_vpclmul});
  return out;
}

std::vector<std::uint8_t> random_buffer(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// Bit-at-a-time CRC, independent of every table and kernel under test.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit)
      c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0u);
  }
  return ~c;
}

TEST(Crc32, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(kCheck.data());
  for (const auto& k : supported_kernels())
    EXPECT_EQ(k.fn(p, kCheck.size(), 0), 0xCBF43926u) << k.name;
  EXPECT_EQ(crc32({p, kCheck.size()}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, EveryKernelMatchesBitwiseReference) {
  // Lengths cross the 16-byte single-fold and 64-byte four-lane boundaries.
  // Each input starts `offset` bytes into its allocation and ends exactly at
  // its end, so the sweep covers every start alignment and ASan sees any
  // 16-byte load that runs past the last byte.
  const auto kernels = supported_kernels();
  auto pool = random_buffer(1100 + 64, 1);
  std::mt19937 rng(2);
  for (std::size_t offset = 0; offset < 64; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      std::vector<std::uint8_t> buf(pool.begin(),
                                    pool.begin() + offset + len);
      const std::uint8_t* p = buf.data() + offset;
      const auto seed = static_cast<std::uint32_t>(rng());
      const std::uint32_t want = crc32_bitwise(p, len, seed);
      for (const auto& k : kernels)
        ASSERT_EQ(k.fn(p, len, seed), want)
            << k.name << " len=" << len << " offset=" << offset;
    }
  }
}

// The CPU features the vpclmul kernel needs that this host lacks (as
// __builtin_cpu_supports reports them, so AVX-512 state the OS does not
// save counts as missing).
std::string missing_wide_flags() {
  std::string out;
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("pclmul")) out += " pclmul";
  if (!__builtin_cpu_supports("sse4.1")) out += " sse4.1";
  if (!__builtin_cpu_supports("avx512f")) out += " avx512f";
  if (!__builtin_cpu_supports("avx512vl")) out += " avx512vl";
  if (!__builtin_cpu_supports("vpclmulqdq")) out += " vpclmulqdq";
#else
  out = " x86-64";
#endif
  return out;
}

// Checks every kernel on the last `len` bytes of a fresh allocation, so
// ASan sees any load that runs past the input's end.
void expect_kernels_match_bitwise(const std::vector<NamedKernel>& kernels,
                                  const std::vector<std::uint8_t>& pool,
                                  std::size_t len, std::uint32_t seed) {
  std::vector<std::uint8_t> buf(pool.begin(), pool.begin() + len);
  const std::uint32_t want = crc32_bitwise(buf.data(), len, seed);
  for (const auto& k : kernels)
    ASSERT_EQ(k.fn(buf.data(), len, seed), want) << k.name << " len=" << len;
}

TEST(Crc32, WideKernelTailsAndBlockSizes) {
  // 256·m + t bytes for every tail t < 256 up to 8 KiB: the 256-byte
  // four-accumulator loop, the 64-byte folds after it, the 16-byte folds
  // and the table tail all run at every count.  Then the block sizes the
  // store checksums: a 192 KiB range and a whole 320 KiB block.
  if (!internal::cpu_has_vpclmul())
    GTEST_SKIP() << "vpclmul kernel not run; missing:" << missing_wide_flags();
  const auto kernels = supported_kernels();
  const auto pool = random_buffer(320 << 10, 7);
  std::mt19937 rng(8);
  for (std::size_t len = 256; len <= (8 << 10); ++len)
    ASSERT_NO_FATAL_FAILURE(expect_kernels_match_bitwise(
        kernels, pool, len, static_cast<std::uint32_t>(rng())));
  for (std::size_t len : {std::size_t{192} << 10, std::size_t{320} << 10})
    for (std::uint32_t seed : {0u, static_cast<std::uint32_t>(rng())})
      ASSERT_NO_FATAL_FAILURE(
          expect_kernels_match_bitwise(kernels, pool, len, seed));
}

TEST(Crc32, DispatchesToWidestSupportedKernel) {
  const internal::Crc32Kernel want =
      internal::cpu_has_vpclmul()  ? internal::crc32_vpclmul
      : internal::cpu_has_pclmul() ? internal::crc32_pclmul
                                   : internal::crc32_table;
  EXPECT_EQ(internal::crc32_kernel(), want);
  EXPECT_EQ(supported_kernels().back().fn, want);
  if (!internal::cpu_has_vpclmul())
    GTEST_SKIP() << "dispatch resolved to " << supported_kernels().back().name
                 << "; vpclmul missing:" << missing_wide_flags();
}

TEST(Crc32, ChainsAtEverySplitPoint) {
  auto buf = random_buffer(300, 4);
  const std::uint32_t whole = crc32(buf);
  std::span<const std::uint8_t> all(buf);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    EXPECT_EQ(crc32(all.subspan(cut), crc32(all.first(cut))), whole)
        << "cut=" << cut;
    for (const auto& k : supported_kernels())
      EXPECT_EQ(k.fn(buf.data() + cut, buf.size() - cut,
                     k.fn(buf.data(), cut, 0)),
                whole)
          << k.name << " cut=" << cut;
  }
}

TEST(Crc32, CombineMatchesDirectCrc) {
  std::mt19937 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t n = rng() % 5000;
    auto buf = random_buffer(n, static_cast<std::uint32_t>(trial));
    std::span<const std::uint8_t> all(buf);
    // Trials 0 and 1 cut at the ends, so one part is empty.
    std::size_t cut = trial == 0 ? 0 : trial == 1 ? n : rng() % (n + 1);
    EXPECT_EQ(crc32_combine(crc32(all.first(cut)), crc32(all.subspan(cut)),
                            n - cut),
              crc32(all))
        << "n=" << n << " cut=" << cut;
  }
  EXPECT_EQ(crc32_combine(0, 0, 0), 0u);
  // Three parts, as a range read verifies prefix + range + suffix.
  auto buf = random_buffer(320 << 10, 6);
  std::span<const std::uint8_t> all(buf);
  const std::size_t off = 64 << 10, len = 192 << 10;
  std::uint32_t joined = crc32_combine(
      crc32_combine(crc32(all.first(off)), crc32(all.subspan(off, len)), len),
      crc32(all.subspan(off + len)), buf.size() - off - len);
  EXPECT_EQ(joined, crc32(all));
}

}  // namespace
}  // namespace carousel::util
