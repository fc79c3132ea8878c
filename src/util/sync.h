// Annotated synchronization primitives: the only sanctioned locking API in
// src/ (invariant rule 8 rejects raw std::mutex/lock_guard/unique_lock).
//
// Two enforcement layers share this header, the same "static rule + runtime
// twin" pattern as the invariant linter + metric-name validation:
//
//   1. Clang Thread Safety Analysis.  Mutex is a CAPABILITY("mutex");
//      MutexLock/ReleasableMutexLock are SCOPED_CAPABILITYs.  Members are
//      annotated GUARDED_BY(mu_), *_locked() helpers REQUIRES(mu_), public
//      entry points EXCLUDES(mu_).  The CAROUSEL_THREAD_SAFETY=ON build
//      compiles with -Wthread-safety -Wthread-safety-beta -Werror, turning
//      every "guarded by mu_" comment into a compile error when violated.
//      On non-Clang compilers the macros expand to nothing.
//
//   2. A runtime lock-rank checker.  Each Mutex carries a LockRank; a
//      thread-local held-lock stack asserts that ranked locks are acquired
//      in strictly increasing rank order and aborts on violation, so a
//      mu_ -> pool_mu inversion dies immediately in every build and every
//      sanitizer job instead of deadlocking once a year.  The per-acquisition
//      cost is a couple of thread-local vector ops on paths dominated by
//      network or disk I/O; define CAROUSEL_NO_LOCK_RANK_CHECKS to compile
//      the bookkeeping out entirely.
//
// The rank table below is the codebase's documented lock order (DESIGN.md
// §11 mirrors it with the why).  A thread may acquire a ranked mutex only if
// every ranked mutex it already holds has a strictly smaller rank.

#ifndef CAROUSEL_UTIL_SYNC_H
#define CAROUSEL_UTIL_SYNC_H

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops elsewhere).  Names
// follow the canonical set from the LLVM documentation so annotations read
// the same here as in the analysis docs.
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define CAROUSEL_TSA(x) __attribute__((x))
#else
#define CAROUSEL_TSA(x)
#endif

#define CAPABILITY(x) CAROUSEL_TSA(capability(x))
#define SCOPED_CAPABILITY CAROUSEL_TSA(scoped_lockable)
#define GUARDED_BY(x) CAROUSEL_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) CAROUSEL_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) CAROUSEL_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) CAROUSEL_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) CAROUSEL_TSA(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) CAROUSEL_TSA(acquire_capability(__VA_ARGS__))
#define RELEASE(...) CAROUSEL_TSA(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) CAROUSEL_TSA(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) CAROUSEL_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) CAROUSEL_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) CAROUSEL_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS CAROUSEL_TSA(no_thread_safety_analysis)

namespace carousel::util {

// ---------------------------------------------------------------------------
// Lock ranks.  One table for the whole codebase: a thread may only acquire a
// ranked mutex whose rank exceeds every ranked mutex it already holds.
// Gaps are deliberate — new locks slot in without renumbering.
// ---------------------------------------------------------------------------

enum class LockRank : int {
  // Participates in held-lock tracking but not in order checking.  For
  // mutexes with no interesting nesting (tests, scratch code).
  kUnranked = 0,

  // HealthMonitor::probe_serial_ — serializes probe rounds and is held
  // across store calls (and therefore across store.mu_), so it must come
  // first.
  kMonitorProbe = 10,

  // CarouselStore::meta_mu_ — serializes metadata-journal appends with
  // their in-memory publication (WAL order == apply order), so it is held
  // across store.mu_ on every manifest mutation and must rank before it.
  // Held across the journal's local append+fsync, never across network I/O.
  kMetaLog = 15,

  // CarouselStore::mu_ — placement/manifest lookups; acquires the repair
  // scheduler's mu_ (rehome enqueues) and per-server pool_mu (counters)
  // while held.
  kStore = 20,

  // RepairScheduler::mu_ — taken by the store's helper-selection and
  // traffic-observer hooks while store.mu_ is held.
  kScheduler = 30,

  // CarouselStore::Server::pool_mu — per-server connection pool; innermost
  // of the store trio (store counters nest mu_ -> pool_mu).
  kServerPool = 40,

  // BlockServer::write_mu_ — serializes block mutations across their
  // persistence I/O; takes BlockServer::mu_ for the in-memory swap.
  kBlockServerWrite = 45,

  // BlockServer::mu_ — block-map lookups and swaps + session list; never
  // held across I/O or another carousel lock.
  kBlockServer = 50,

  // HealthMonitor::mu_ — tracked-server FSM state; taken under
  // probe_serial_ during probe rounds.
  kMonitor = 55,

  // Scrubber::mu_ — pass totals and loop wakeup; never held across store
  // calls.
  kScrubber = 60,

  // util::ThreadPool::mu_ — task queue; tasks run with no pool lock held,
  // so anything may submit() while holding nothing.
  kThreadPool = 70,

  // FaultPlan::mu_ — injected-fault state, leaf under the block server.
  kFaultPlan = 80,

  // obs::TraceRing::mu_ — trace record ring, leaf.
  kTraceRing = 85,

  // obs::MetricsRegistry::mu_ — instrument maps; global leaf (instrument
  // creation happens under other subsystems' locks).
  kMetrics = 90,
};

namespace sync_internal {

#if !defined(CAROUSEL_NO_LOCK_RANK_CHECKS)

struct HeldLock {
  const void* mu;
  int rank;
};

// Per-thread stack of held carousel mutexes, outermost first.  Depth in
// practice is <= 3 (probe_serial_ -> store.mu_ -> pool_mu), so linear scans
// are cheaper than any clever structure.
inline thread_local std::vector<HeldLock> tls_held;

[[noreturn]] inline void rank_violation(int held, int acquiring) {
  std::fprintf(stderr,
               "carousel lock-rank violation: acquiring a mutex of rank %d "
               "while holding rank %d — ranked locks must be acquired in "
               "strictly increasing order (see util/sync.h LockRank and "
               "DESIGN.md §11)\n",
               acquiring, held);
  std::abort();
}

inline void note_acquired(const void* mu, LockRank rank) {
  const int r = static_cast<int>(rank);
  if (rank != LockRank::kUnranked) {
    for (const HeldLock& h : tls_held)
      if (h.rank != 0 && h.rank >= r) rank_violation(h.rank, r);
  }
  tls_held.push_back({mu, r});
}

inline void note_released(const void* mu) {
  // Release order need not mirror acquisition order; erase the newest entry.
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (it->mu == mu) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
}

inline bool is_held(const void* mu) {
  for (const HeldLock& h : tls_held)
    if (h.mu == mu) return true;
  return false;
}

#else  // CAROUSEL_NO_LOCK_RANK_CHECKS

inline void note_acquired(const void*, LockRank) {}
inline void note_released(const void*) {}
inline bool is_held(const void*) { return false; }

#endif

}  // namespace sync_internal

/// A std::mutex with a capability annotation and an optional lock rank.
/// Prefer the RAII wrappers below; lock()/unlock() exist for the wrappers
/// and for adapters (CondVar) only.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() noexcept = default;
  explicit Mutex(LockRank rank) noexcept : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    raw_.lock();
    sync_internal::note_acquired(this, rank_);
  }

  void unlock() RELEASE() {
    sync_internal::note_released(this);
    raw_.unlock();
  }

  /// True when the calling thread holds this mutex.  Compiled to `false`
  /// under CAROUSEL_NO_LOCK_RANK_CHECKS — only assert with it, never branch
  /// program logic on it.
  bool held_by_current_thread() const {
    return sync_internal::is_held(this);
  }

  /// Runtime twin of REQUIRES(this): aborts when the caller does not hold
  /// the mutex.  The static analysis also learns the capability is held.
  void assert_held() const ASSERT_CAPABILITY(this) {
#if !defined(CAROUSEL_NO_LOCK_RANK_CHECKS)
    if (!held_by_current_thread()) {
      std::fprintf(stderr,
                   "carousel sync: assert_held() failed — calling thread "
                   "does not hold the mutex\n");
      std::abort();
    }
#endif
  }

  LockRank rank() const noexcept { return rank_; }

 private:
  friend class CondVar;
  std::mutex raw_;
  const LockRank rank_ = LockRank::kUnranked;
};

/// Scoped lock, the workhorse: acquires on construction, releases on scope
/// exit.  Drop-in for the std::lock_guard uses this codebase had.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped lock that can release early — for "mutate under the lock, then
/// notify/join/IO outside it" sequences that would otherwise need an extra
/// brace level.  release() may be called at most once.
class SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~ReleasableMutexLock() RELEASE() {
    if (held_) mu_.unlock();
  }

  void release() RELEASE() {
    held_ = false;
    mu_.unlock();
  }

  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// Condition variable over util::Mutex.  No predicate overloads on purpose:
/// the analysis treats a predicate lambda as a separate function with no
/// capabilities held, so `cv.wait(lock, [&]{ return guarded_; })` would warn
/// under -Wthread-safety.  Write the loop at the call site instead, where
/// the analysis can see the MutexLock:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `mu` and blocks; reacquires before returning.  The
  /// held-lock bookkeeping keeps `mu` on the stack across the wait — the
  /// caller still owns it from every other thread's point of view.
  void wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.raw_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& d)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.raw_, std::adopt_lock);
    std::cv_status s = cv_.wait_for(lk, d);
    lk.release();
    return s;
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.raw_, std::adopt_lock);
    std::cv_status s = cv_.wait_until(lk, deadline);
    lk.release();
    return s;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace carousel::util

#endif  // CAROUSEL_UTIL_SYNC_H
