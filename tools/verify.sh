#!/usr/bin/env sh
# Tier-1 verification, mirroring the CI matrix:
#
#   1. full build + test suite (includes the seeded protocol fuzz:
#      >=10k mutated frames against a live server);
#   2. static analysis — tools/lint.sh (clang-tidy when installed, plus the
#      repo-specific invariant lints in tools/check_invariants.py);
#   3. the CRC-32 kernel sweep (16-byte loads near buffer ends) and the GF
#      kernel and codec tests (the fused dot products index across sources
#      and outputs; every region ends at its allocation's end), then the
#      networked fault-tolerance, observability, protocol-hardening,
#      crash-persistence, metadata-journal and self-healing-cluster tests
#      again under AddressSanitizer (abrupt server death, connection churn,
#      malformed frames, torn-write recovery, re-homing races — where
#      lifetime bugs hide);
#   4. the net + observability + property tests under ThreadSanitizer
#      (client counters, registry instruments and trace rings are read while
#      other threads mutate them; the parallel read fan-out, hedge races and
#      concurrent read_file overlap live here; the repair scheduler's
#      tests too, since the store calls into the scheduler under its own
#      mutex; and the cluster tests, since servers read block snapshots
#      outside their lock while repair, rehome and drain run), plus a short
#      chaos schedule
#      under TSan — the foreground hedged reader races kills, restarts and
#      heals — and the whole-rack-down acceptance scenario under TSan (a
#      3-rack fleet loses a full failure domain mid-traffic and must serve
#      every acked byte while re-protecting within the per-rack cap);
#   5. the full suite under UndefinedBehaviorSanitizer with recovery
#      disabled (GF kernels, matrix pipeline, wire decode: where silent UB
#      corrupts data without failing a test);
#   6. a bounded chaos smoke at a fixed seed (~30 s; the full suite already
#      ran the same schedule once — this repeats it against the final build
#      exactly as CI's chaos-smoke job does).  Longer schedules are opt-in:
#      sh tools/chaos.sh <seed> <events>;
#   7. a bounded recovery-storm bench against the live 12+2 fleet, exactly
#      as CI's bench-smoke job runs it: the binary exits non-zero when
#      either its single-server storm or its whole-rack-down storm fails to
#      re-protect, serves a wrong byte, blows its p99 budget, or breaks the
#      per-rack placement invariant (and writes BENCH_recovery_storm.json
#      plus BENCH_rack_down.json);
#   8. a bounded tail-latency bench against a live 12-server fleet with one
#      injected straggler, also as CI's bench-smoke job runs it: the binary
#      exits non-zero unless the hedged p99 beats the unhedged p99 with at
#      least one hedge win (and writes BENCH_tail_latency.json);
#   9. a bounded coordinator-metadata recovery bench, as CI's bench-smoke
#      job runs it: the binary exits non-zero when a cold journal replay
#      diverges from the pre-crash manifest, misses its wall-clock budget,
#      fails to load the compacted snapshot, or misses a torn tail (and
#      writes BENCH_meta_recovery.json);
#  10. the networked-throughput bench (upload, read, degraded read, repair
#      on a 12-server loopback fleet), as CI's bench-smoke job runs it: it
#      must run to completion; then the GF and CRC-32 kernel
#      microbenchmarks, briefly, as bench-smoke runs them;
#  11. when clang++ is installed: the whole tree rebuilt with Clang Thread
#      Safety Analysis promoted to errors (CAROUSEL_THREAD_SAFETY=ON),
#      verifying every GUARDED_BY/REQUIRES/EXCLUDES annotation from
#      util/sync.h statically, plus the sync_test lock-rank suite under the
#      same toolchain — the mirror of CI's thread-safety job.  Skipped
#      (with a note) on GCC-only machines; CI always runs it.
#
#   sh tools/verify.sh
set -e
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j 8

sh tools/lint.sh build

cmake -B build-asan -S . -DCAROUSEL_SANITIZE=address
cmake --build build-asan -j --target util_test gf_test gf_simd_test \
  linear_code_test net_test obs_test \
  protocol_test protocol_fuzz_test persistence_test meta_log_test \
  cluster_test repair_scheduler_test property_test
./build-asan/tests/util_test
./build-asan/tests/gf_test
./build-asan/tests/gf_simd_test
./build-asan/tests/linear_code_test
./build-asan/tests/net_test
./build-asan/tests/obs_test
./build-asan/tests/protocol_test
./build-asan/tests/protocol_fuzz_test
./build-asan/tests/persistence_test
./build-asan/tests/meta_log_test
./build-asan/tests/cluster_test
./build-asan/tests/repair_scheduler_test
./build-asan/tests/property_test

cmake -B build-tsan -S . -DCAROUSEL_SANITIZE=thread
cmake --build build-tsan -j --target net_test obs_test property_test \
  repair_scheduler_test cluster_test chaos_test
./build-tsan/tests/net_test
./build-tsan/tests/obs_test
./build-tsan/tests/property_test
./build-tsan/tests/repair_scheduler_test
./build-tsan/tests/cluster_test
CAROUSEL_CHAOS_SEED=20260805 CAROUSEL_CHAOS_EVENTS=60 \
  ./build-tsan/tests/chaos_test \
  --gtest_filter='Chaos.SeededFaultScheduleKeepsEveryInvariant'
./build-tsan/tests/chaos_test \
  --gtest_filter='Chaos.RackDownSurvivesWithZeroDataLoss'

cmake -B build-ubsan -S . -DCAROUSEL_SANITIZE=undefined
cmake --build build-ubsan -j
ctest --test-dir build-ubsan --output-on-failure -j 8

CAROUSEL_CHAOS_SEED=20260805 CAROUSEL_CHAOS_EVENTS=200 \
  ./build/tests/chaos_test --gtest_filter='Chaos.*'

cmake --build build -j --target bench_recovery_storm
(cd build/bench && \
  CAROUSEL_STORM_STRIPES=4 CAROUSEL_STORM_BLOCK_UNITS=4096 \
  CAROUSEL_STORM_P99_BUDGET_MS=500 CAROUSEL_STORM_DEADLINE_S=120 \
  ./bench_recovery_storm)

cmake --build build -j --target bench_tail_latency
(cd build/bench && \
  CAROUSEL_TAIL_STRIPES=2 CAROUSEL_TAIL_READS=100 \
  CAROUSEL_TAIL_STALL_MS=40 ./bench_tail_latency)

cmake --build build -j --target bench_meta_recovery
(cd build/bench && \
  CAROUSEL_META_FILES=100 CAROUSEL_META_MUTATIONS=1000 \
  CAROUSEL_META_BUDGET_S=10 ./bench_meta_recovery)

cmake --build build -j --target bench_net_throughput
(cd build/bench && ./bench_net_throughput)

cmake --build build -j --target bench_gf_kernels
(cd build/bench && ./bench_gf_kernels --benchmark_min_time=0.01)

if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCAROUSEL_THREAD_SAFETY=ON -DCAROUSEL_WERROR=ON
  cmake --build build-tsa -j
  ./build-tsa/tests/sync_test
else
  echo "verify: clang++ not found; skipping the thread-safety analysis" \
       "build (CI's thread-safety job still runs it)"
fi

echo "verify: OK (suite + lint + ASan/TSan suites incl. rack-down chaos" \
     "+ full suite under UBSan + bounded chaos smoke + recovery-storm," \
     "rack-down, tail-latency, meta-recovery and net-throughput bench" \
     "smokes +" \
     "thread-safety analysis when clang++ is present)"
