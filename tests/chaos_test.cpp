// Seeded chaos harness for the self-healing cluster.
//
// A deterministic schedule of fault events — server kills, whole-rack
// outages, restarts (with crash-recovery scans), at-rest corruption,
// injected stalls, crash-injected PUTs, coordinator crashes (the store
// itself dies mid-mutation and is rebuilt from its metadata journal) —
// runs against a live persistent multi-server store wired to a
// HealthMonitor and a Scrubber.  The fleet
// spans three failure domains (rack = id % 3) so the storm exercises the
// per-domain placement cap for real.  Throughout, the harness asserts the
// three invariants the paper's deployment story rests on:
//
//   1. Reads are bit-exact whenever every stripe still has >= k healthy
//      blocks (the schedule's guards keep total erasures <= n-k, so in this
//      harness that is *always*).
//   2. No acknowledged PUT is ever lost: everything put_file returned
//      successfully for must read back byte-for-byte, including after
//      crash-injected PUTs whose first attempt died mid-write.
//   3. Every heal moves exactly the paper's optimal traffic: d/(d-k+1)
//      block sizes over the wire when d helpers survive, k block sizes on
//      the whole-block fallback — asserted per explicit heal event AND for
//      every scrubber sweep against an independent simulation of the sweep.
//
// The schedule is a pure function of its seed (ChaosSchedule test), so any
// failure reproduces exactly:
//   CAROUSEL_CHAOS_SEED=<seed> CAROUSEL_CHAOS_EVENTS=<n> ./chaos_test

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <shared_mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/cluster.h"
#include "net/errors.h"
#include "net/fault.h"
#include "net/meta_log.h"
#include "net/repair_scheduler.h"
#include "net/scrubber.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace carousel::net {
namespace {

namespace fs = std::filesystem;
using codes::Byte;
using test::PortHold;
using test::random_bytes;

std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::strtoull(v, nullptr, 10) : dflt;
}

// ---- The schedule: a pure function of the seed ----------------------------

enum class ChaosKind : std::uint8_t {
  kKill,            // destroy a live base server
  kCorrelatedKill,  // destroy up to two live base servers in one window
  kRackDown,  // destroy every server in one failure domain at once
  kRackUp,    // restart whatever remains down of the lost rack
  kRestart,   // recreate a down server on its old port + data dir
  kCorrupt,   // flip a stored byte (in memory and at rest)
  kStall,     // install a short kDelay fault plan on a live server
  kCrashPut,  // PUT a new file through a crash-injected first attempt
  kCoordCrash,  // kill the coordinator mid-mutation; rebuild from its WAL
  kPut,       // PUT a new file
  kHeal,      // repair one broken block, asserting exact wire traffic
};

struct ChaosEvent {
  ChaosKind kind;
  // Abstract draws; apply() maps them onto the current cluster state, so
  // the schedule stays seed-pure while the run remains deterministic.
  std::uint32_t a = 0, b = 0, c = 0;

  bool operator==(const ChaosEvent&) const = default;
};

std::vector<ChaosEvent> make_schedule(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<ChaosEvent> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto roll = static_cast<std::uint32_t>(rng() % 100);
    ChaosKind kind;
    if (roll < 10) kind = ChaosKind::kKill;
    else if (roll < 14) kind = ChaosKind::kCorrelatedKill;
    else if (roll < 17) kind = ChaosKind::kRackDown;
    else if (roll < 21) kind = ChaosKind::kRackUp;
    else if (roll < 33) kind = ChaosKind::kRestart;
    else if (roll < 51) kind = ChaosKind::kCorrupt;
    else if (roll < 60) kind = ChaosKind::kStall;
    else if (roll < 66) kind = ChaosKind::kCrashPut;
    else if (roll < 72) kind = ChaosKind::kCoordCrash;
    else if (roll < 82) kind = ChaosKind::kPut;
    else kind = ChaosKind::kHeal;
    out.push_back(ChaosEvent{kind, static_cast<std::uint32_t>(rng()),
                             static_cast<std::uint32_t>(rng()),
                             static_cast<std::uint32_t>(rng())});
  }
  return out;
}

TEST(ChaosSchedule, IsAPureFunctionOfTheSeed) {
  auto a = make_schedule(42, 500);
  auto b = make_schedule(42, 500);
  EXPECT_EQ(a, b);
  auto c = make_schedule(43, 500);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 500u);
}

// ---- The harness ----------------------------------------------------------

using BlockId = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class ChaosHarness {
 public:
  static constexpr std::size_t kBase = 12;   // n servers, one block each
  static constexpr std::size_t kSpares = 2;  // rehoming targets, rack 0 and 1
  static constexpr std::size_t kRacks = 3;   // failure domain = id % kRacks
  static constexpr std::size_t kMaxDown = 4;
  static constexpr std::size_t kMaxBrokenPerStripe = 2;
  // Every kill (and whole-rack outage) is additionally guarded by
  // survivable(): the servers down afterwards may hold at most
  // n - k - kMaxBrokenPerStripe blocks of any stripe, so even after the
  // corruption cap fills up, total erasures stay <= n - k and every stripe
  // keeps at least k healthy blocks — invariant 1 applies to every read
  // check.  (Domain-capped stacking can place two blocks of a stripe on
  // one survivor, so counting down *servers* alone is not enough.)

  // p = 10 < n leaves blocks 10 and 11 as parity, so hedged reads have
  // stand-in candidates; heal-traffic expectations depend only on d and k.
  ChaosHarness()
      : code_(12, 6, 10, 10), block_(code_.s() * 4) {
    root_ = fs::temp_directory_path() /
            ("carousel_chaos_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    popts_.fsync = false;  // keep the write path's shape, not its latency
    for (std::size_t i = 0; i < kBase + kSpares; ++i) {
      servers_.push_back(std::make_unique<BlockServer>(0, dir(i), popts_));
      ports_.push_back(servers_.back()->port());
    }
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.io_timeout = std::chrono::milliseconds(250);
    policy.base_backoff = std::chrono::milliseconds(2);
    policy.max_backoff = std::chrono::milliseconds(20);
    policy.op_deadline = std::chrono::milliseconds(3000);
    sopts_.policy = policy;
    sopts_.registry = &registry_;
    // Hedging on throughout: kills and stalls push slot latencies past the
    // budget, so the storm exercises the speculative parity path for real.
    sopts_.hedge.enabled = true;
    sopts_.hedge.floor = std::chrono::milliseconds(5);
    sopts_.hedge.initial = std::chrono::milliseconds(15);
    // Three racks, id % kRacks: 12 base servers spread 4-4-4, and the
    // spares land in racks 0 and 1.  With n == base fleet the domain-aware
    // seed degenerates to the paper's verbatim block-i-on-server-i rule, so
    // the heal-traffic audits below see the same placements as ever.
    for (std::size_t i = 0; i < kBase; ++i)
      sopts_.domains.push_back(rack_of(i));
    // Durable coordinator metadata: kCoordCrash kills the store object and
    // rebuilds it from this journal alone.  fsync off for the same reason
    // as the block stores': the write path keeps its shape, not its
    // latency (the storm's "crash" keeps the page cache).
    sopts_.meta_dir = root_ / "meta";
    sopts_.meta_fsync = false;
    base_ports_.assign(ports_.begin(), ports_.begin() + kBase);
    store_ =
        std::make_unique<CarouselStore>(code_, base_ports_, block_, sopts_);
    for (std::size_t i = kBase; i < kBase + kSpares; ++i)
      store_->add_server(ports_[i], rack_of(i));

    mopts_.suspect_after = 1;
    mopts_.dead_after = 2;
    mopts_.revive_after = 2;
    mopts_.probe_policy = policy;
    mopts_.probe_policy.max_attempts = 2;
    mopts_.probe_policy.op_deadline = std::chrono::milliseconds(1000);
    monitor_ = std::make_unique<HealthMonitor>(*store_, mopts_);
    Scrubber::Options scrub_opts;
    scrub_opts.monitor = monitor_.get();
    scrubber_ = std::make_unique<Scrubber>(*store_, scrub_opts);

    // Two seed files so every event kind has something to chew on.
    put_new_file(2);
    put_new_file(1);
  }

  ~ChaosHarness() {
    scrubber_.reset();
    monitor_.reset();
    store_.reset();
    servers_.clear();
    fs::remove_all(root_);
  }

  void apply(const ChaosEvent& e) {
    switch (e.kind) {
      case ChaosKind::kKill: {
        std::vector<std::size_t> up;
        for (std::size_t i = 0; i < kBase; ++i)
          if (!down_.contains(i)) up.push_back(i);
        if (up.empty() || down_.size() >= kMaxDown) return;
        const std::size_t id = up[e.a % up.size()];
        if (!survivable({id})) return;
        servers_[id].reset();
        down_.insert(id);
        return;
      }
      case ChaosKind::kCorrelatedKill: {
        // Correlated failure — a switch or PDU takes two servers out inside
        // one window.  Each death is guarded by kMaxDown and survivable(),
        // so total erasures per stripe never exceed n - k.
        for (const std::uint32_t draw : {e.a, e.b}) {
          std::vector<std::size_t> up;
          for (std::size_t i = 0; i < kBase; ++i)
            if (!down_.contains(i)) up.push_back(i);
          if (up.empty() || down_.size() >= kMaxDown) return;
          const std::size_t id = up[draw % up.size()];
          if (!survivable({id})) continue;
          servers_[id].reset();
          down_.insert(id);
        }
        return;
      }
      case ChaosKind::kRackDown: {
        // An entire failure domain — base servers and its spare alike —
        // vanishes in one instant.  Fires only from a fully-up fleet whose
        // placement keeps the outage survivable: the per-domain cap bounds
        // any rack at n - k blocks per stripe, and survivable() demands the
        // kMaxBrokenPerStripe headroom on top.  Afterwards down_.size() >=
        // kMaxDown, so kKill/kCorrelatedKill stay blocked until recovery.
        if (!down_.empty()) return;
        const std::size_t rack = e.a % kRacks;
        std::set<std::size_t> members;
        for (std::size_t i = 0; i < servers_.size(); ++i)
          if (rack_of(i) == rack) members.insert(i);
        if (!survivable(members)) return;
        for (std::size_t id : members) {
          servers_[id].reset();
          down_.insert(id);
        }
        rack_down_ = rack;
        return;
      }
      case ChaosKind::kRackUp: {
        // Power returns to the lost rack: restart every member still down.
        // (Individual kRestart events may have revived some already.)
        if (!rack_down_.has_value()) return;
        for (std::size_t id :
             std::vector<std::size_t>(down_.begin(), down_.end()))
          if (rack_of(id) == *rack_down_) {
            servers_[id] =
                std::make_unique<BlockServer>(ports_[id], dir(id), popts_);
            down_.erase(id);
          }
        rack_down_.reset();
        return;
      }
      case ChaosKind::kRestart: {
        if (down_.empty()) return;
        auto it = down_.begin();
        std::advance(it, e.a % down_.size());
        const std::size_t id = *it;
        // Restart runs the crash-recovery scan: at-rest rot the run
        // injected earlier is quarantined, never silently served.
        servers_[id] = std::make_unique<BlockServer>(ports_[id], dir(id),
                                                     popts_);
        down_.erase(id);
        return;
      }
      case ChaosKind::kCorrupt: {
        if (reference_.empty()) return;
        const std::uint32_t fid = pick_file(e.a);
        const auto stripes = stripes_of(fid);
        const auto s = e.b % stripes;
        const auto i = e.c % static_cast<std::uint32_t>(code_.n());
        const std::size_t home = store_->placement_of(fid, s, i);
        if (down_.contains(home)) return;
        if (!broken_.contains({fid, s, i}) &&
            stripe_broken(fid, s) >= kMaxBrokenPerStripe)
          return;
        if (servers_[home]->corrupt_block(BlockKey{fid, s, i}, e.c))
          broken_.insert({fid, s, i});
        return;
      }
      case ChaosKind::kStall: {
        std::vector<std::size_t> up = up_servers();
        if (up.empty()) return;
        const std::size_t id = up[e.a % up.size()];
        auto plan = std::make_shared<FaultPlan>(e.b);
        FaultRule rule;
        rule.action = FaultAction::kDelay;
        rule.delay_ms = 10 + e.b % 40;  // well under the 250 ms io_timeout
        rule.max_hits = 1 + e.b % 3;
        plan->add(rule);
        servers_[id]->set_fault_plan(plan);
        return;
      }
      case ChaosKind::kCrashPut: {
        std::vector<std::size_t> up;
        for (std::size_t i = 0; i < kBase; ++i)
          if (!down_.contains(i)) up.push_back(i);
        if (up.empty()) return;
        const std::size_t id = up[e.a % up.size()];
        static constexpr FaultAction kCrashes[] = {
            FaultAction::kCrashBeforeFsync, FaultAction::kCrashBeforeRename,
            FaultAction::kTornWrite};
        auto plan = std::make_shared<FaultPlan>(e.b);
        FaultRule rule;
        rule.op = Op::kPut;
        rule.action = kCrashes[e.b % 3];
        rule.max_hits = 1;  // the client's automatic retry must then land
        plan->add(rule);
        servers_[id]->set_fault_plan(plan);
        put_new_file(1 + e.c % 2);
        servers_[id]->set_fault_plan(nullptr);
        return;
      }
      case ChaosKind::kCoordCrash: {
        // The coordinator itself dies mid-mutation: arm a one-shot crash
        // point inside the metadata journal (countdown 1 = the PUT's intent
        // append, 2 = its commit append), drive a PUT into it, then rebuild
        // the store from the journal alone and reconcile.  The crashed PUT
        // is never acked (put_new_file swallows the error) so read_check
        // demands nothing of it — but every file acked *before* the crash
        // must read back bit-exact through the rebuilt coordinator.
        static constexpr MetaCrashPoint kPoints[] = {
            MetaCrashPoint::kBeforeFsync, MetaCrashPoint::kAfterAppend,
            MetaCrashPoint::kTornRecord};
        store_->set_meta_crash_point(kPoints[e.a % 3], 1 + e.b % 2);
        put_new_file(1 + e.c % 2);
        rebuild_coordinator();  // always: also disarms an untripped point
        return;
      }
      case ChaosKind::kPut:
        put_new_file(1 + e.a % 2);
        return;
      case ChaosKind::kHeal: {
        if (broken_.empty()) return;
        auto it = broken_.begin();
        std::advance(it, e.a % broken_.size());
        const auto [fid, s, i] = *it;
        if (down_.contains(store_->placement_of(fid, s, i))) return;
        clear_fault_plans();  // a pending stall must not skew the audit
        const std::uint64_t expected = expected_heal_traffic(fid, s, i);
        const std::uint64_t traffic = store_->repair_block(fid, s, i);
        EXPECT_EQ(traffic, expected)
            << "heal of (" << fid << "," << s << "," << i
            << ") missed the paper's optimum";
        broken_.erase({fid, s, i});
        return;
      }
    }
  }

  /// Invariants 1 and 2: every acknowledged file reads back bit-exact.
  /// The schedule guards keep every stripe's erasures <= n-k, so this holds
  /// unconditionally — a read that fails IS a violation.
  void read_check() {
    for (const auto& [fid, data] : reference_) {
      auto got = store_->read_file(fid, data.size());
      ASSERT_EQ(got == data, true)
          << "acknowledged file " << fid << " did not read back bit-exact";
    }
  }

  /// Invariant 3 for the background loop: convict the dead, sweep, and
  /// check the sweep's heal traffic against an independent simulation.
  void scrub_phase() {
    clear_fault_plans();
    monitor_->probe_once();
    monitor_->probe_once();  // dead_after = revive_after = 2: converged
    for (int round = 0; round < 2; ++round) {
      const SweepSim sim = simulate_sweep();
      const auto sweep = scrubber_->run_once();
      EXPECT_EQ(sweep.repair_bytes, sim.bytes)
          << "sweep heal traffic diverged from the paper's optimum";
      EXPECT_EQ(sweep.rehomes, sim.rehomes);
      EXPECT_EQ(sweep.repairs, sim.repairs);
      EXPECT_EQ(sweep.rehome_failures, sim.rehome_failures);
      for (const BlockId& healed : sim.healed) broken_.erase(healed);
    }
  }

  /// Restart everything, let the detector and scrubber converge, then
  /// demand a fully healthy cluster and bit-exact reads of every file.
  void final_verify() {
    clear_fault_plans();
    for (std::size_t id : std::vector<std::size_t>(down_.begin(), down_.end())) {
      servers_[id] =
          std::make_unique<BlockServer>(ports_[id], dir(id), popts_);
      down_.erase(id);
    }
    rack_down_.reset();
    monitor_->probe_once();
    monitor_->probe_once();
    for (const auto& st : monitor_->statuses())
      EXPECT_EQ(st.state, ServerState::kAlive) << "server " << st.id;
    // Restarted servers quarantined their rotted blocks; sweeps heal them.
    Scrubber::Stats sweep;
    for (int round = 0; round < 4; ++round) {
      const SweepSim sim = simulate_sweep();
      sweep = scrubber_->run_once();
      EXPECT_EQ(sweep.repair_bytes, sim.bytes);
      for (const BlockId& healed : sim.healed) broken_.erase(healed);
      if (sweep.ok == sweep.blocks_checked) break;
    }
    EXPECT_EQ(sweep.ok, sweep.blocks_checked)
        << "cluster did not scrub clean after all servers returned";
    EXPECT_TRUE(broken_.empty());
    read_check();
  }

  std::size_t files() const { return reference_.size(); }

  CarouselStore& store() { return *store_; }
  obs::MetricsRegistry& registry() { return registry_; }

  /// Reads `fid` through the store under a shared lock, safe against a
  /// concurrent kCoordCrash rebuild swapping the store out underneath.
  std::vector<Byte> locked_read(std::uint32_t fid, std::size_t bytes) {
    std::shared_lock<std::shared_mutex> lock(store_mu_);
    return store_->read_file(fid, bytes);
  }

  /// Tears the coordinator down — scrubber, monitor, store, in dependency
  /// order — and rebuilds it from the metadata journal, exactly as a
  /// process restart would.  Spares replay from their add_server records,
  /// so they are not re-added here.  Reconciliation then adopts or aborts
  /// whatever intents the crash left pending.
  void rebuild_coordinator() {
    std::unique_lock<std::shared_mutex> lock(store_mu_);
    scrubber_.reset();
    monitor_.reset();
    store_.reset();
    store_ =
        std::make_unique<CarouselStore>(code_, base_ports_, block_, sopts_);
    monitor_ = std::make_unique<HealthMonitor>(*store_, mopts_);
    Scrubber::Options scrub_opts;
    scrub_opts.monitor = monitor_.get();
    scrubber_ = std::make_unique<Scrubber>(*store_, scrub_opts);
    try {
      store_->reconcile();
    } catch (const Error&) {
      // Unresolved intents stay journaled; the next replay recovers them.
    }
  }

  /// Copy of the acked files at call time.  The storm's foreground reader
  /// works from its own snapshot so it never races put_new_file's inserts.
  std::map<std::uint32_t, std::vector<Byte>> reference_snapshot() const {
    return reference_;
  }

 private:
  static constexpr std::size_t rack_of(std::size_t id) { return id % kRacks; }

  fs::path dir(std::size_t i) const {
    return root_ / ("srv" + std::to_string(i));
  }

  /// True when additionally killing every server in `extra` still leaves
  /// each stripe at least k healthy blocks with kMaxBrokenPerStripe
  /// corruption headroom to spare: blocks homed on down-or-dying servers
  /// must not exceed n - k - kMaxBrokenPerStripe.  Necessary because
  /// domain-capped stacking can concentrate two blocks of a stripe on one
  /// survivor — a head count of down servers no longer bounds erasures.
  bool survivable(const std::set<std::size_t>& extra) const {
    for (const auto& [fid, info] : store_->files()) {
      for (std::size_t s = 0; s < info.stripes; ++s) {
        std::size_t erased = 0;
        for (std::size_t i = 0; i < code_.n(); ++i) {
          const std::size_t home = info.placement[s][i];
          if (down_.contains(home) || extra.contains(home)) ++erased;
        }
        if (erased + kMaxBrokenPerStripe > code_.n() - code_.k())
          return false;
      }
    }
    return true;
  }

  std::vector<std::size_t> up_servers() const {
    std::vector<std::size_t> up;
    for (std::size_t i = 0; i < servers_.size(); ++i)
      if (!down_.contains(i)) up.push_back(i);
    return up;
  }

  void clear_fault_plans() {
    for (std::size_t i = 0; i < servers_.size(); ++i)
      if (!down_.contains(i)) servers_[i]->set_fault_plan(nullptr);
  }

  std::uint32_t pick_file(std::uint32_t draw) const {
    auto it = reference_.begin();
    std::advance(it, draw % reference_.size());
    return it->first;
  }

  std::uint32_t stripes_of(std::uint32_t fid) const {
    return static_cast<std::uint32_t>(store_->files().at(fid).stripes);
  }

  std::size_t stripe_broken(std::uint32_t fid, std::uint32_t s) const {
    std::size_t count = 0;
    for (std::uint32_t i = 0; i < code_.n(); ++i)
      count += broken_.contains({fid, s, i});
    return count;
  }

  void put_new_file(std::uint32_t stripes) {
    if (reference_.size() >= 24) return;  // bound the sweep and read load
    const std::uint32_t fid = next_file_id_++;
    auto data = random_bytes(stripes * code_.k() * block_ - fid % 17,
                             1000 + fid);
    try {
      store_->put_file(fid, data);
    } catch (const Error&) {
      return;  // a down server refused a block: the PUT was never acked
    }
    reference_[fid] = std::move(data);  // acked: must survive everything
  }

  /// Wire bytes one heal of (fid, s, i) must fetch right now: the MSR
  /// optimum d/(d-k+1) blocks when d helpers are healthy, k blocks on the
  /// whole-block fallback.  (d-k+1) divides block_ for every supported
  /// code, so the division is exact.
  std::uint64_t expected_heal_traffic(std::uint32_t fid, std::uint32_t s,
                                      std::uint32_t i) const {
    std::size_t survivors = 0;
    for (std::uint32_t h = 0; h < code_.n(); ++h) {
      if (h == i) continue;
      if (down_.contains(store_->placement_of(fid, s, h))) continue;
      if (broken_.contains({fid, s, h})) continue;
      ++survivors;
    }
    if (!code_.params().trivial_repair() && survivors >= code_.d())
      return std::uint64_t{code_.d()} * (block_ / (code_.d() - code_.k() + 1));
    return std::uint64_t{code_.k()} * block_;
  }

  /// Independent model of one scrubber sweep over the current cluster:
  /// which blocks it will heal, in manifest order, and exactly how many
  /// helper bytes each heal moves.  Mirrors Scrubber::run_once + the
  /// store's re-homing candidate order (spares first, ascending id).
  struct SweepSim {
    std::uint64_t bytes = 0;
    std::uint64_t rehomes = 0;
    std::uint64_t repairs = 0;
    std::uint64_t rehome_failures = 0;
    std::vector<BlockId> healed;
  };

  SweepSim simulate_sweep() const {
    SweepSim sim;
    auto manifest = store_->files();
    // Mutable copies: each simulated heal changes the survivor set and the
    // placement the *next* heal sees, exactly as the real sweep does.
    std::set<BlockId> broken = broken_;
    std::map<std::uint32_t, std::vector<std::vector<std::uint32_t>>> placement;
    for (const auto& [fid, info] : manifest) placement[fid] = info.placement;

    auto survivors_of = [&](std::uint32_t fid, std::uint32_t s,
                            std::uint32_t i) {
      std::size_t survivors = 0;
      for (std::uint32_t h = 0; h < code_.n(); ++h) {
        if (h == i) continue;
        if (down_.contains(placement[fid][s][h])) continue;
        if (broken.contains({fid, s, h})) continue;
        ++survivors;
      }
      return survivors;
    };
    auto traffic_of = [&](std::size_t survivors) -> std::uint64_t {
      if (!code_.params().trivial_repair() && survivors >= code_.d())
        return std::uint64_t{code_.d()} *
               (block_ / (code_.d() - code_.k() + 1));
      return std::uint64_t{code_.k()} * block_;
    };

    for (const auto& [fid, info] : manifest) {
      for (std::uint32_t s = 0; s < info.stripes; ++s) {
        for (std::uint32_t i = 0; i < code_.n(); ++i) {
          const std::size_t home = placement[fid][s][i];
          if (down_.contains(home)) {
            // The monitor has convicted the home (scrub_phase probed to
            // convergence): the sweep re-homes.  Mirror the store's tiered
            // chooser exactly — tiers 0/1 are servers hosting no block of
            // this stripe (spares first, then base, ascending), tier 2
            // stacks on a survivor already holding stripe blocks,
            // least-loaded first — every tier capped at n - k blocks per
            // failure domain, counting the stripe's homes besides this
            // slot.  The heal lands on the first candidate actually up.
            std::vector<std::size_t> held(servers_.size(), 0);
            std::vector<std::size_t> in_rack(kRacks, 0);
            for (std::uint32_t h = 0; h < code_.n(); ++h) {
              if (h == i) continue;
              const std::size_t hm = placement[fid][s][h];
              ++held[hm];
              ++in_rack[rack_of(hm)];
            }
            const std::size_t cap = code_.n() - code_.k();
            auto fits = [&](std::size_t id) {
              return in_rack[rack_of(id)] < cap;
            };
            std::vector<std::size_t> cands;
            for (bool want_spare : {true, false})
              for (std::size_t id = 0; id < servers_.size(); ++id)
                if ((id >= kBase) == want_spare && held[id] == 0 &&
                    id != home && fits(id))
                  cands.push_back(id);
            std::vector<std::size_t> stacked;
            for (std::size_t id = 0; id < servers_.size(); ++id)
              if (held[id] > 0 && id != home && fits(id))
                stacked.push_back(id);
            std::stable_sort(stacked.begin(), stacked.end(),
                             [&held](std::size_t a, std::size_t b) {
                               return held[a] < held[b];
                             });
            cands.insert(cands.end(), stacked.begin(), stacked.end());
            std::size_t target = servers_.size();
            for (std::size_t c : cands)
              if (!down_.contains(c)) {
                target = c;
                break;
              }
            if (target == servers_.size()) {
              // No *reachable* candidate.  With none at all the store
              // throws before fetching; with only-down candidates it
              // fetches, fails every re-upload, and counts no bytes.
              ++sim.rehome_failures;
            } else {
              sim.bytes += traffic_of(survivors_of(fid, s, i));
              ++sim.rehomes;
              placement[fid][s][i] = static_cast<std::uint32_t>(target);
              broken.erase({fid, s, i});
              sim.healed.push_back({fid, s, i});
            }
          } else if (broken.contains({fid, s, i})) {
            sim.bytes += traffic_of(survivors_of(fid, s, i));
            ++sim.repairs;
            broken.erase({fid, s, i});
            sim.healed.push_back({fid, s, i});
          }
        }
      }
    }
    return sim;
  }

  codes::Carousel code_;
  std::size_t block_;
  fs::path root_;
  PersistentBlockStore::Options popts_;
  obs::MetricsRegistry registry_;
  std::vector<std::unique_ptr<BlockServer>> servers_;
  std::vector<std::uint16_t> ports_;
  StoreOptions sopts_;                    // reused by rebuild_coordinator
  HealthMonitor::Options mopts_;
  std::vector<std::uint16_t> base_ports_;
  std::shared_mutex store_mu_;  // exclusive during coordinator rebuilds
  std::unique_ptr<CarouselStore> store_;
  std::unique_ptr<HealthMonitor> monitor_;
  std::unique_ptr<Scrubber> scrubber_;
  std::map<std::uint32_t, std::vector<Byte>> reference_;  // acked PUTs
  std::set<std::size_t> down_;
  std::optional<std::size_t> rack_down_;  // set while a whole rack is out
  std::set<BlockId> broken_;  // corrupted and not yet healed
  std::uint32_t next_file_id_ = 1;
};

// ---- Correlated-failure storm through the RepairScheduler -----------------
//
// Two simultaneous server deaths (2 erasures per stripe, well under
// n - k = 6) on a live 12+2 fleet with foreground reads running.  All
// healing flows through a RepairScheduler; the test asserts from metrics
// that the scheduler never exceeded its concurrent-repair cap or its
// per-server byte budgets, that no acknowledged PUT was ever lost, and
// that every stripe returns to full protection.
TEST(Chaos, CorrelatedFailureStormReprotectsEveryStripe) {
  const std::uint64_t seed = env_u64("CAROUSEL_CHAOS_SEED", 20260805);
  std::mt19937_64 rng(seed);

  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  std::vector<std::unique_ptr<BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < 14; ++i) {
    servers.push_back(std::make_unique<BlockServer>());
    ports.push_back(servers.back()->port());
  }
  obs::MetricsRegistry registry;
  StoreOptions sopts;
  sopts.registry = &registry;
  sopts.policy.max_attempts = 3;
  sopts.policy.io_timeout = std::chrono::milliseconds(250);
  sopts.policy.base_backoff = std::chrono::milliseconds(2);
  sopts.policy.max_backoff = std::chrono::milliseconds(20);
  sopts.policy.op_deadline = std::chrono::milliseconds(3000);
  std::vector<std::uint16_t> base_ports(ports.begin(), ports.begin() + 12);
  CarouselStore store(code, base_ports, block, sopts);
  store.add_server(ports[12]);
  store.add_server(ports[13]);

  std::map<std::uint32_t, std::vector<Byte>> reference;
  for (std::uint32_t fid = 1; fid <= 3; ++fid) {
    auto data = random_bytes(2 * code.k() * block, 500 + fid);  // two stripes
    store.put_file(fid, data);
    reference[fid] = std::move(data);
  }

  HealthMonitor::Options mopts;
  mopts.suspect_after = 1;
  mopts.dead_after = 2;
  mopts.revive_after = 2;
  mopts.probe_policy = sopts.policy;
  mopts.probe_policy.max_attempts = 2;
  mopts.probe_policy.op_deadline = std::chrono::milliseconds(1000);
  HealthMonitor monitor(store, mopts);

  RepairScheduler::Options ropts;
  ropts.max_concurrent = 2;
  ropts.workers = 2;
  ropts.server_egress_budget = std::uint64_t{64} * block;
  ropts.server_ingress_budget = std::uint64_t{64} * block;
  ropts.budget_window = std::chrono::milliseconds(250);
  ropts.monitor = &monitor;
  RepairScheduler sched(store, ropts);

  Scrubber::Options scrub_opts;
  scrub_opts.monitor = &monitor;
  scrub_opts.scheduler = &sched;
  Scrubber scrubber(store, scrub_opts);

  // The storm: two distinct base servers die inside one window.
  const std::size_t victim_a = rng() % 12;
  std::size_t victim_b = rng() % 12;
  while (victim_b == victim_a) victim_b = rng() % 12;
  servers[victim_a].reset();
  servers[victim_b].reset();
  monitor.probe_once();
  monitor.probe_once();
  ASSERT_EQ(monitor.state_of(victim_a), ServerState::kDead);
  ASSERT_EQ(monitor.state_of(victim_b), ServerState::kDead);

  // Foreground traffic runs throughout; gtest assertions are not
  // thread-safe off the main thread, so mismatches are only counted here.
  std::atomic<bool> stop_reads{false};
  std::atomic<std::uint64_t> reads{0}, mismatches{0};
  std::thread foreground([&] {
    while (!stop_reads.load()) {
      for (const auto& [fid, data] : reference) {
        try {
          if (store.read_file(fid, data.size()) != data) ++mismatches;
        } catch (const std::exception&) {
          ++mismatches;
        }
        ++reads;
      }
    }
  });

  sched.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool reprotected = false;
  while (std::chrono::steady_clock::now() < deadline) {
    scrubber.run_once();  // feeds the queue; heals nothing inline
    sched.wait_idle(std::chrono::seconds(5));
    if (store.blocks_on(victim_a).empty() &&
        store.blocks_on(victim_b).empty()) {
      reprotected = true;
      break;
    }
  }
  stop_reads = true;
  foreground.join();
  sched.stop();

  EXPECT_TRUE(reprotected) << "storm did not re-protect within the deadline";
  EXPECT_EQ(mismatches.load(), 0u) << "an acknowledged PUT was lost";
  EXPECT_GT(reads.load(), 0u);

  // Every stripe is back at full protection: a sweep finds nothing wrong.
  auto quiet = scrubber.run_once();
  EXPECT_EQ(quiet.ok, quiet.blocks_checked);
  EXPECT_EQ(quiet.enqueued, 0u);
  for (const auto& [fid, data] : reference)
    EXPECT_EQ(store.read_file(fid, data.size()), data);

  // The scheduler kept its promises, asserted from its own telemetry: the
  // cap and the per-server budgets were never exceeded.
  const auto stats = sched.stats();
  EXPECT_GT(stats.completed, 0u);
  // Conservation: every accepted item was dispatched exactly once.
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.completed + stats.failed, stats.enqueued);
  EXPECT_LE(stats.peak_running, ropts.max_concurrent);
  EXPECT_LE(stats.max_window_egress, ropts.server_egress_budget);
  EXPECT_LE(stats.max_window_ingress, ropts.server_ingress_budget);
  const auto snap = registry.snapshot();
  EXPECT_LE(snap.gauges.at("carousel_repair_peak_running"),
            static_cast<double>(ropts.max_concurrent));
  EXPECT_LE(snap.gauges.at("carousel_repair_max_window_egress_bytes"),
            static_cast<double>(ropts.server_egress_budget));
  EXPECT_LE(snap.gauges.at("carousel_repair_max_window_ingress_bytes"),
            static_cast<double>(ropts.server_ingress_budget));
}

// ---- Whole-rack outage: the failure-domain acceptance scenario ------------
//
// A 12+2 fleet spread over three racks (domain = id % 3, spares in racks 0
// and 1) loses rack 0 — four base servers AND the rack's spare — in one
// instant, mid-traffic.  Because placement is seeded and maintained under
// the per-domain cap, the outage erases at most n - k = 6 blocks per
// stripe, so every acknowledged PUT must stay readable bit-exact through
// the whole outage (degraded §VII reads, within the op budget).  All
// healing flows through the RepairScheduler: its domain boost must fire
// (five dead servers share one rack), re-protection must complete without
// ever stacking more than n - k blocks of a stripe on one rack, and the
// domain gauges must see both the outage and the recovery.
TEST(Chaos, RackDownSurvivesWithZeroDataLoss) {
  constexpr std::size_t kRacks = 3;
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 8;
  const std::size_t cap = code.n() - code.k();
  std::vector<std::unique_ptr<BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < 14; ++i) {
    servers.push_back(std::make_unique<BlockServer>());
    ports.push_back(servers.back()->port());
  }
  obs::MetricsRegistry registry;
  StoreOptions sopts;
  sopts.registry = &registry;
  sopts.policy.max_attempts = 3;
  sopts.policy.io_timeout = std::chrono::milliseconds(250);
  sopts.policy.base_backoff = std::chrono::milliseconds(2);
  sopts.policy.max_backoff = std::chrono::milliseconds(20);
  sopts.policy.op_deadline = std::chrono::milliseconds(3000);
  // Degraded reads across five dead servers must land inside one op
  // budget; generous so sanitizer builds never flake on it.
  sopts.op_budget = std::chrono::milliseconds(15000);
  for (std::size_t i = 0; i < 12; ++i) sopts.domains.push_back(i % kRacks);
  std::vector<std::uint16_t> base_ports(ports.begin(), ports.begin() + 12);
  CarouselStore store(code, base_ports, block, sopts);
  store.add_server(ports[12], 12 % kRacks);  // spare in rack 0
  store.add_server(ports[13], 13 % kRacks);  // spare in rack 1

  std::map<std::uint32_t, std::vector<Byte>> reference;
  for (std::uint32_t fid = 1; fid <= 3; ++fid) {
    auto data = random_bytes(2 * code.k() * block, 900 + fid);  // two stripes
    store.put_file(fid, data);
    reference[fid] = std::move(data);
  }

  // No rack holds more than n - k blocks of any stripe, seeded or healed.
  auto max_blocks_per_rack = [&store, &code] {
    std::size_t worst = 0;
    for (const auto& [fid, info] : store.files())
      for (std::size_t s = 0; s < info.stripes; ++s) {
        std::vector<std::size_t> per(kRacks, 0);
        for (std::size_t i = 0; i < code.n(); ++i)
          worst = std::max(worst, ++per[store.domain_of(info.placement[s][i])]);
      }
    return worst;
  };
  ASSERT_LE(max_blocks_per_rack(), cap);

  HealthMonitor::Options mopts;
  mopts.suspect_after = 1;
  mopts.dead_after = 2;
  mopts.revive_after = 2;
  mopts.probe_policy = sopts.policy;
  mopts.probe_policy.max_attempts = 2;
  mopts.probe_policy.op_deadline = std::chrono::milliseconds(1000);
  HealthMonitor monitor(store, mopts);

  RepairScheduler::Options ropts;
  ropts.max_concurrent = 2;
  ropts.workers = 2;
  ropts.server_egress_budget = std::uint64_t{64} * block;
  ropts.server_ingress_budget = std::uint64_t{64} * block;
  ropts.budget_window = std::chrono::milliseconds(250);
  ropts.monitor = &monitor;
  RepairScheduler sched(store, ropts);

  Scrubber::Options scrub_opts;
  scrub_opts.monitor = &monitor;
  scrub_opts.scheduler = &sched;
  Scrubber scrubber(store, scrub_opts);

  // The outage: every server in rack 0 dies at once.
  std::vector<std::size_t> rack0;
  for (std::size_t i = 0; i < servers.size(); ++i)
    if (i % kRacks == 0) rack0.push_back(i);
  ASSERT_EQ(rack0.size(), 5u);
  std::vector<std::unique_ptr<PortHold>> holds;
  for (std::size_t id : rack0) {
    servers[id].reset();
    holds.push_back(std::make_unique<PortHold>(ports[id]));
    ASSERT_TRUE(holds.back()->bound()) << "port of dead server " << id;
  }
  monitor.probe_once();
  monitor.probe_once();
  for (std::size_t id : rack0)
    ASSERT_EQ(monitor.state_of(id), ServerState::kDead) << "server " << id;

  // The rollup sees exactly one domain down, none merely degraded.
  std::size_t down_domains = 0;
  for (const auto& d : monitor.domain_statuses()) down_domains += d.down();
  EXPECT_EQ(down_domains, 1u);
  {
    const auto snap = registry.snapshot();
    EXPECT_EQ(snap.gauges.at("carousel_cluster_domain_count"),
              static_cast<double>(kRacks));
    EXPECT_EQ(snap.gauges.at("carousel_cluster_domain_down"), 1.0);
  }

  // Foreground traffic runs through the whole outage; gtest assertions are
  // not thread-safe off the main thread, so mismatches are only counted.
  std::atomic<bool> stop_reads{false};
  std::atomic<std::uint64_t> reads{0}, mismatches{0};
  std::thread foreground([&] {
    while (!stop_reads.load()) {
      for (const auto& [fid, data] : reference) {
        try {
          if (store.read_file(fid, data.size()) != data) ++mismatches;
        } catch (const std::exception&) {
          ++mismatches;
        }
        ++reads;
      }
    }
  });

  sched.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool reprotected = false;
  while (std::chrono::steady_clock::now() < deadline) {
    scrubber.run_once();  // feeds the queue; heals nothing inline
    sched.wait_idle(std::chrono::seconds(5));
    // The invariant holds after every drain, not just at the end: healing
    // never stacks a rack past n - k blocks of one stripe.
    EXPECT_LE(max_blocks_per_rack(), cap);
    bool clear = true;
    for (std::size_t id : rack0) clear = clear && store.blocks_on(id).empty();
    if (clear) {
      reprotected = true;
      break;
    }
  }
  stop_reads = true;
  foreground.join();
  sched.stop();

  EXPECT_TRUE(reprotected) << "rack outage was not re-protected in time";
  EXPECT_EQ(mismatches.load(), 0u)
      << "an acknowledged PUT was lost during the rack outage";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_LE(max_blocks_per_rack(), cap);

  // The scheduler recognized the correlated losses: five dead servers in
  // one rack boost every rehome of their blocks ahead of scattered noise.
  const auto stats = sched.stats();
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.domain_boosts, 0u);
  {
    const auto snap = registry.snapshot();
    EXPECT_GT(snap.counters.at("carousel_repair_domain_boosts_total"), 0.0);
  }

  // Power returns: the rack's servers restart (blank — their blocks all
  // re-homed), the detector revives them, and the rollup goes quiet.
  holds.clear();
  for (std::size_t id : rack0)
    servers[id] = std::make_unique<BlockServer>(ports[id]);
  monitor.probe_once();
  monitor.probe_once();
  for (const auto& st : monitor.statuses())
    EXPECT_EQ(st.state, ServerState::kAlive) << "server " << st.id;
  {
    const auto snap = registry.snapshot();
    EXPECT_EQ(snap.gauges.at("carousel_cluster_domain_down"), 0.0);
    EXPECT_EQ(snap.gauges.at("carousel_cluster_domain_degraded"), 0.0);
  }

  // Full redundancy, clean scrub, and every byte still exact.
  auto quiet = scrubber.run_once();
  EXPECT_EQ(quiet.ok, quiet.blocks_checked);
  EXPECT_EQ(quiet.enqueued, 0u);
  for (const auto& [fid, data] : reference)
    EXPECT_EQ(store.read_file(fid, data.size()), data);
}

TEST(Chaos, SeededFaultScheduleKeepsEveryInvariant) {
  const std::uint64_t seed = env_u64("CAROUSEL_CHAOS_SEED", 20260805);
  const std::size_t events =
      static_cast<std::size_t>(env_u64("CAROUSEL_CHAOS_EVENTS", 200));
  ASSERT_GE(events, 1u);
  auto schedule = make_schedule(seed, events);

  ChaosHarness harness;

  // Foreground hedged reader: pounds read_file on the seed files for the
  // whole storm.  gtest assertions are not thread-safe off the main
  // thread, so the reader only counts; the main thread asserts after join.
  const auto pinned = harness.reference_snapshot();
  ASSERT_GE(pinned.size(), 2u);
  std::atomic<bool> stop_reads{false};
  std::atomic<std::uint64_t> reads{0}, mismatches{0};
  std::thread foreground([&] {
    while (!stop_reads.load()) {
      for (const auto& [fid, data] : pinned) {
        try {
          // locked_read: kCoordCrash events rebuild the store object
          // mid-storm, so reads hold the harness's shared lock.
          if (harness.locked_read(fid, data.size()) != data) ++mismatches;
        } catch (const std::exception&) {
          ++mismatches;
        }
        ++reads;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i) + " of seed " +
                 std::to_string(seed));
    harness.apply(schedule[i]);
    if ((i + 1) % 5 == 0) harness.read_check();
    if ((i + 1) % 25 == 0) harness.scrub_phase();
    if (::testing::Test::HasFatalFailure()) break;
  }
  stop_reads = true;
  foreground.join();
  if (::testing::Test::HasFatalFailure()) return;
  harness.final_verify();
  EXPECT_GE(harness.files(), 2u);

  // The reader ran hot through every kill, stall, corruption, and heal and
  // never saw a wrong byte; the hedge telemetry obeys its accounting
  // identity (a win is a hedge, a hedge rides a primary range-GET).
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u)
      << "foreground hedged reads diverged from acked bytes";
  const auto snap = harness.registry().snapshot();
  const double hedged = snap.counters.at("carousel_store_hedged_reads_total");
  const double wins = snap.counters.at("carousel_store_hedge_wins_total");
  const double range_gets =
      snap.counters.at("carousel_store_range_gets_total");
  EXPECT_LE(wins, hedged);
  EXPECT_LE(hedged, range_gets);
}

// ---- Coordinator kill-and-restart at every crash point --------------------
//
// The acceptance matrix for the durable-metadata layer: for each of the
// three journal crash points (record lost, record durable but unapplied,
// record torn mid-write), kill the coordinator on BOTH appends of a
// mutation (its intent and its commit), rebuild the store from the journal
// alone, reconcile, and demand (a) every previously-acked file reads back
// bit-exact, (b) recovery converges to the correct verdict for the crashed
// mutation — committed iff the data had fully landed — and (c) the
// <= n-k blocks-per-rack invariant holds on every replayed placement.
// The matrix runs twice: once over put_file, once over a dead-home rehome
// driven through repair_block.
TEST(Chaos, CoordinatorCrashAtEveryPointRecoversBitExact) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 4;
  std::vector<std::unique_ptr<BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < 14; ++i) {
    servers.push_back(std::make_unique<BlockServer>());
    ports.push_back(servers.back()->port());
  }

  const fs::path root =
      fs::temp_directory_path() /
      ("carousel_coord_crash_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  obs::MetricsRegistry registry;
  StoreOptions sopts;
  sopts.registry = &registry;
  sopts.policy.max_attempts = 2;
  sopts.policy.io_timeout = std::chrono::milliseconds(250);
  sopts.policy.base_backoff = std::chrono::milliseconds(2);
  sopts.policy.max_backoff = std::chrono::milliseconds(20);
  sopts.policy.op_deadline = std::chrono::milliseconds(2000);
  for (std::size_t i = 0; i < 12; ++i) sopts.domains.push_back(i % 3);
  sopts.meta_dir = root / "meta";
  std::vector<std::uint16_t> base_ports(ports.begin(), ports.begin() + 12);

  auto make_store = [&] {
    return std::make_unique<CarouselStore>(code, base_ports, block, sopts);
  };
  auto store = make_store();
  // Spares carry their rack labels into the journal; rebuilds below must
  // get them back from replay alone, never from a re-add.
  store->add_server(ports[12], 12 % 3);
  store->add_server(ports[13], 13 % 3);

  // Blocks-per-rack <= n - k on every stripe of every replayed placement.
  auto check_rack_cap = [&](CarouselStore& st) {
    const std::size_t cap = code.n() - code.k();
    for (const auto& [fid, info] : st.files())
      for (const auto& row : info.placement) {
        std::map<std::size_t, std::size_t> per_rack;
        for (const std::uint32_t sid : row) {
          ++per_rack[sid % 3];
          EXPECT_LE(per_rack[sid % 3], cap)
              << "file " << fid << " violates the per-rack cap";
        }
      }
  };

  std::map<std::uint32_t, std::vector<Byte>> reference;
  std::uint32_t next_fid = 1;
  for (int i = 0; i < 2; ++i) {
    const std::uint32_t fid = next_fid++;
    auto data = random_bytes(2 * code.k() * block - 3 * fid, 9000 + fid);
    store->put_file(fid, data);
    reference[fid] = std::move(data);
  }

  static constexpr MetaCrashPoint kPoints[] = {MetaCrashPoint::kBeforeFsync,
                                               MetaCrashPoint::kAfterAppend,
                                               MetaCrashPoint::kTornRecord};

  // --- Matrix 1: kill the coordinator mid-put_file. ---
  // A put appends twice: intent (countdown 1, before any block is
  // uploaded) and commit (countdown 2, after every block landed).
  for (const MetaCrashPoint point : kPoints) {
    for (const std::uint64_t countdown : {1, 2}) {
      SCOPED_TRACE("put crash point " +
                   std::to_string(static_cast<int>(point)) + " countdown " +
                   std::to_string(countdown));
      const std::uint32_t fid = next_fid++;
      auto data = random_bytes(code.k() * block - 7, 9100 + fid);
      store->set_meta_crash_point(point, countdown);
      EXPECT_THROW(store->put_file(fid, data), MetaCrashError);

      store.reset();  // the crash: the old coordinator is gone
      store = make_store();
      if (point == MetaCrashPoint::kTornRecord) {
        EXPECT_TRUE(store->meta_replay_report().torn_tail)
            << "a torn tail must be detected, quarantined, and truncated";
      }
      store->reconcile();

      if (countdown == 2) {
        // Every block landed before the crash, so recovery must converge
        // on "committed": directly when the commit record was durable,
        // by adopting the fully-landed intent otherwise.
        ASSERT_TRUE(store->files().contains(fid))
            << "a fully-uploaded put was lost by recovery";
        EXPECT_EQ(store->read_file(fid, data.size()), data);
        reference[fid] = std::move(data);  // now part of the acked world
      } else {
        // The crash predates any upload: recovery must not resurrect it.
        EXPECT_FALSE(store->files().contains(fid))
            << "recovery invented a file whose data never landed";
      }
      for (const auto& [f, d] : reference)
        EXPECT_EQ(store->read_file(f, d.size()), d)
            << "acked file " << f << " lost across a coordinator crash";
      check_rack_cap(*store);
    }
  }

  // --- Matrix 2: kill the coordinator mid-rehome. ---
  // Kill one base server; each repair_block of a block homed there drives
  // the rehome path (intent at countdown 1, commit at countdown 2 — the
  // failed upload to the dead home itself appends nothing).
  const std::size_t victim = 7;
  servers[victim].reset();
  for (const MetaCrashPoint point : kPoints) {
    for (const std::uint64_t countdown : {1, 2}) {
      SCOPED_TRACE("rehome crash point " +
                   std::to_string(static_cast<int>(point)) + " countdown " +
                   std::to_string(countdown));
      const auto stranded = store->blocks_on(victim);
      ASSERT_FALSE(stranded.empty())
          << "matrix consumed every block homed on the victim";
      const auto [fid, s, i] = std::tuple{
          stranded.front().file, stranded.front().stripe,
          stranded.front().index};
      store->set_meta_crash_point(point, countdown);
      EXPECT_THROW(store->repair_block(fid, s, i), MetaCrashError);

      store.reset();
      store = make_store();
      store->reconcile();

      if (countdown == 2) {
        // The reconstructed block reached its new home before the crash:
        // recovery must keep the move (the old home is dead).
        EXPECT_NE(store->placement_of(fid, s, i), victim)
            << "a completed rehome was rolled back by recovery";
      } else {
        // Intent-only crash: the placement still names the dead home; a
        // later sweep heals it for real.
        EXPECT_EQ(store->placement_of(fid, s, i), victim);
      }
      for (const auto& [f, d] : reference)
        EXPECT_EQ(store->read_file(f, d.size()), d)
            << "acked file " << f << " lost across a mid-rehome crash";
      check_rack_cap(*store);
    }
  }

  // Epilogue: a plain scrubber sweep heals everything still stranded on
  // the dead server, and the journal-backed manifest matches what the
  // sweep produced after one more restart.
  HealthMonitor::Options mopts;
  mopts.suspect_after = 1;
  mopts.dead_after = 2;
  mopts.revive_after = 2;
  mopts.probe_policy = sopts.policy;
  HealthMonitor monitor(*store, mopts);
  monitor.probe_once();
  monitor.probe_once();
  Scrubber::Options scrub_opts;
  scrub_opts.monitor = &monitor;
  Scrubber scrubber(*store, scrub_opts);
  scrubber.run_once();
  EXPECT_TRUE(store->blocks_on(victim).empty())
      << "the sweep left blocks homed on the dead server";
  const auto healed_manifest = store->files();
  store.reset();
  store = make_store();
  store->reconcile();
  const auto replayed = store->files();
  ASSERT_EQ(replayed.size(), healed_manifest.size());
  for (const auto& [fid, info] : healed_manifest) {
    ASSERT_TRUE(replayed.contains(fid));
    EXPECT_EQ(replayed.at(fid).placement, info.placement)
        << "replayed placement diverged for file " << fid;
  }
  for (const auto& [f, d] : reference)
    EXPECT_EQ(store->read_file(f, d.size()), d);

  store.reset();
  fs::remove_all(root);
}

}  // namespace
}  // namespace carousel::net
