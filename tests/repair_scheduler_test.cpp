// RepairScheduler tests: criticality ordering and preemption, the global
// concurrent-repair cap, per-server byte budgets (deferral, helper
// spreading, window reset), AIMD admission control on a synthetic
// foreground p99, and spare registration racing an active queue drain.
//
// Most tests use a (6,4,4,6) code: d == k makes repair the whole-block
// path (cheap, deterministic) and n-k = 2 makes criticality 2 the
// emergency threshold, so both sides of the admission bypass are easy to
// reach.  The MSR budget test switches to the paper's (12,6,10,12).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/cluster.h"
#include "net/errors.h"
#include "net/repair_scheduler.h"
#include "net/scrubber.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace carousel::net {
namespace {

using codes::Byte;
using test::random_bytes;

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.io_timeout = std::chrono::milliseconds(250);
  p.base_backoff = std::chrono::milliseconds(2);
  p.max_backoff = std::chrono::milliseconds(20);
  p.op_deadline = std::chrono::milliseconds(3000);
  return p;
}

HealthMonitor::Options fast_monitor() {
  HealthMonitor::Options o;
  o.interval = std::chrono::milliseconds(20);
  o.suspect_after = 1;
  o.dead_after = 2;
  o.revive_after = 2;
  o.probe_policy = fast_policy();
  o.probe_policy.max_attempts = 2;
  o.probe_policy.op_deadline = std::chrono::milliseconds(1000);
  return o;
}

/// Fleet of RAM block servers whose members can be killed mid-test.
class RepairSchedulerTest : public ::testing::Test {
 protected:
  void make_fleet(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      servers_.push_back(std::make_unique<BlockServer>());
    for (const auto& s : servers_) ports_.push_back(s->port());
  }

  void kill(std::size_t i) { servers_[i].reset(); }

  StoreOptions opts() {
    StoreOptions o;
    o.policy = fast_policy();
    o.registry = &registry_;
    return o;
  }

  std::uint64_t counter(const std::string& name) {
    auto snap = registry_.snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  double gauge(const std::string& name) {
    auto snap = registry_.snapshot();
    auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? -1.0 : it->second;
  }

  obs::MetricsRegistry registry_;
  std::vector<std::unique_ptr<BlockServer>> servers_;
  std::vector<std::uint16_t> ports_;
};

// ---- Construction-time validation -----------------------------------------

TEST_F(RepairSchedulerTest, RejectsNonsenseOptionsAtConstruction) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  CarouselStore store(code, ports_, code.s() * 8, opts());
  RepairScheduler::Options bad;
  bad.max_concurrent = 0;  // a scheduler that may never repair
  EXPECT_THROW(RepairScheduler(store, bad), std::invalid_argument);
  bad = {};
  bad.workers = 0;  // a background drain with nobody to drain it
  EXPECT_THROW(RepairScheduler(store, bad), std::invalid_argument);
  bad = {};
  bad.budget_window = std::chrono::milliseconds(0);
  EXPECT_THROW(RepairScheduler(store, bad), std::invalid_argument);
  bad = {};
  bad.admission_interval = std::chrono::milliseconds(-1);
  EXPECT_THROW(RepairScheduler(store, bad), std::invalid_argument);
  bad = {};
  bad.tick = std::chrono::milliseconds(0);
  EXPECT_THROW(RepairScheduler(store, bad), std::invalid_argument);
  bad = {};
  bad.p99_budget = std::chrono::milliseconds(-1);
  EXPECT_THROW(RepairScheduler(store, bad), std::invalid_argument);
  RepairScheduler ok(store);  // defaults remain valid
  EXPECT_EQ(ok.stats().enqueued, 0u);
}

// ---- Queue ordering and escalation ----------------------------------------

TEST_F(RepairSchedulerTest, TwoErasureStripeJumpsAOneErasureQueue) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  for (std::uint32_t f = 1; f <= 3; ++f)
    store.put_file(f, random_bytes(code.k() * block, f));
  RepairScheduler sched(store);

  sched.enqueue({1, 0, 0}, RepairScheduler::Kind::kRepair, 1);
  sched.enqueue({2, 0, 0}, RepairScheduler::Kind::kRepair, 2);
  sched.enqueue({3, 0, 0}, RepairScheduler::Kind::kRepair, 1);

  auto head = sched.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->block.file, 2u);  // the 2-erasure stripe goes first
  EXPECT_EQ(head->criticality, 2u);
  EXPECT_EQ(sched.stats().enqueued, 3u);
  EXPECT_EQ(gauge("carousel_repair_queue_depth"), 3.0);

  // Re-enqueueing an already-queued block only ever escalates it.
  sched.enqueue({1, 0, 0}, RepairScheduler::Kind::kRepair, 1);  // no-op
  EXPECT_EQ(sched.stats().updated, 0u);
  sched.enqueue({1, 0, 0}, RepairScheduler::Kind::kRehome, 3);
  EXPECT_EQ(sched.stats().updated, 1u);
  head = sched.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->block.file, 1u);
  EXPECT_EQ(head->kind, RepairScheduler::Kind::kRehome);
  EXPECT_EQ(sched.stats().enqueued, 3u);  // still three distinct items
  EXPECT_EQ(counter("carousel_repair_updated_total"), 1u);
}

TEST_F(RepairSchedulerTest, StepHealsTheMostCriticalStripeFirst) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  auto file_a = random_bytes(code.k() * block, 7);
  auto file_b = random_bytes(code.k() * block, 8);
  store.put_file(1, file_a);
  store.put_file(2, file_b);
  RepairScheduler sched(store);
  Scrubber::Options sopts;
  sopts.scheduler = &sched;
  Scrubber scrubber(store, sopts);

  // File 1 loses two blocks (criticality 2 = n-k: the erasure limit),
  // file 2 loses one.
  store.drop_block(1, 0, 0);
  store.drop_block(1, 0, 1);
  store.drop_block(2, 0, 0);

  auto sweep = scrubber.run_once();
  EXPECT_EQ(sweep.enqueued, 3u);  // the sweep heals nothing inline
  EXPECT_EQ(sweep.repairs, 0u);
  EXPECT_EQ(sweep.missing_found, 3u);
  EXPECT_EQ(counter("carousel_scrubber_enqueued_total"), 3u);

  // First dispatch goes to the 2-erasure stripe while the 1-erasure block
  // is still broken.
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDispatched);
  EXPECT_EQ(store.verify_block(1, 0, 0), BlockState::kOk);
  EXPECT_EQ(store.verify_block(2, 0, 0), BlockState::kMissing);

  while (sched.step() == RepairScheduler::StepResult::kDispatched) {
  }
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kIdle);
  auto stats = sched.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.bytes_moved, 0u);

  auto quiet = scrubber.run_once();
  EXPECT_EQ(quiet.ok, quiet.blocks_checked);
  EXPECT_EQ(quiet.enqueued, 0u);
  EXPECT_EQ(store.read_file(1, file_a.size()), file_a);
  EXPECT_EQ(store.read_file(2, file_b.size()), file_b);
}

TEST_F(RepairSchedulerTest, DomainCorrelatedErasuresBoostCriticality) {
  // Three racks of two servers each (domain = id % 3); the whole of rack 0
  // dies.  A rehome whose dead home sits in the gutted rack must jump
  // ahead of an equally-critical rehome enqueued first, because losing a
  // rack is one event away from losing data — scattered singles are not.
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 16;
  auto o = opts();
  for (std::size_t i = 0; i < 6; ++i) o.domains.push_back(i % 3);
  CarouselStore store(code, ports_, block, o);
  store.put_file(1, random_bytes(code.k() * block, 17));
  HealthMonitor monitor(store, fast_monitor());
  RepairScheduler::Options ropts;
  ropts.monitor = &monitor;
  RepairScheduler sched(store, ropts);

  kill(0);
  kill(3);  // rack 0 is gone: two dead servers share one domain
  monitor.probe_once();
  monitor.probe_once();
  ASSERT_EQ(monitor.state_of(0), ServerState::kDead);
  ASSERT_EQ(monitor.state_of(3), ServerState::kDead);
  ASSERT_EQ(monitor.dead_in_domain(0), 2u);

  // No home hint (legacy callers), then a home in the gutted rack.
  sched.enqueue({1, 0, 1}, RepairScheduler::Kind::kRehome, 1);
  sched.enqueue({1, 0, 0}, RepairScheduler::Kind::kRehome, 1, 0);
  auto head = sched.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->block.index, 0u);  // boosted past the earlier item
  EXPECT_EQ(head->criticality, 2u);  // 1 + (dead_in_domain - 1)
  EXPECT_EQ(sched.stats().domain_boosts, 1u);
  EXPECT_EQ(counter("carousel_repair_domain_boosts_total"), 1u);

  // Its rack-mate boosts too; a home in a healthy rack does not.
  sched.enqueue({1, 0, 3}, RepairScheduler::Kind::kRehome, 1, 3);
  sched.enqueue({1, 0, 4}, RepairScheduler::Kind::kRehome, 1, 4);
  EXPECT_EQ(sched.stats().domain_boosts, 2u);
  EXPECT_EQ(counter("carousel_repair_domain_boosts_total"), 2u);
}

// ---- Byte budgets ---------------------------------------------------------

TEST_F(RepairSchedulerTest, EgressBudgetDefersUntilTheWindowRolls) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  auto file_a = random_bytes(code.k() * block, 9);
  auto file_b = random_bytes(code.k() * block, 10);
  store.put_file(1, file_a);
  store.put_file(2, file_b);

  RepairScheduler::Options ropts;
  ropts.server_egress_budget = block;  // one whole-block fetch per window
  ropts.budget_window = std::chrono::hours(1);  // never rolls on its own
  RepairScheduler sched(store, ropts);

  store.drop_block(1, 0, 0);
  store.drop_block(2, 0, 1);
  sched.enqueue({1, 0, 0}, RepairScheduler::Kind::kRepair, 1);
  sched.enqueue({2, 0, 1}, RepairScheduler::Kind::kRepair, 1);

  // The first heal charges k = 4 of the 6 servers a whole block of egress;
  // the window now has too few servers with headroom for a second heal.
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDispatched);
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDeferredBudget);
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDeferredBudget);
  auto stats = sched.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.deferred_budget, 2u);
  EXPECT_EQ(counter("carousel_repair_deferred_budget_total"), 2u);
  // The budget was enforced, never exceeded: no server shipped more than
  // its per-window allowance.
  EXPECT_EQ(stats.max_window_egress, std::uint64_t{block});
  EXPECT_LE(stats.max_window_egress, ropts.server_egress_budget);

  // A fresh window un-parks the queue.
  sched.reset_budget_window();
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDispatched);
  EXPECT_EQ(sched.stats().completed, 2u);
  EXPECT_EQ(store.read_file(1, file_a.size()), file_a);
  EXPECT_EQ(store.read_file(2, file_b.size()), file_b);
}

TEST_F(RepairSchedulerTest, MsrRepairSpreadsChunksAndHonorsTheBudget) {
  make_fleet(12);
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  const std::size_t chunk = block / code.params().alpha();  // d/(d-k+1) path
  CarouselStore store(code, ports_, block, opts());
  auto file_a = random_bytes(code.k() * block, 11);
  auto file_b = random_bytes(code.k() * block, 12);
  store.put_file(1, file_a);
  store.put_file(2, file_b);

  RepairScheduler::Options ropts;
  ropts.server_egress_budget = chunk;  // one helper chunk per window
  ropts.budget_window = std::chrono::hours(1);
  RepairScheduler sched(store, ropts);

  store.drop_block(1, 0, 0);
  store.drop_block(2, 0, 0);
  sched.enqueue({1, 0, 0}, RepairScheduler::Kind::kRepair, 1);
  sched.enqueue({2, 0, 0}, RepairScheduler::Kind::kRepair, 1);

  // The MSR heal fans one chunk out of each of d = 10 helpers; with an
  // 11-survivor stripe that saturates all but one server's window, so the
  // second heal must wait for a fresh window.
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDispatched);
  EXPECT_EQ(store.verify_block(1, 0, 0), BlockState::kOk);
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDeferredBudget);
  auto stats = sched.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.deferred_budget, 1u);
  // No helper ever shipped more than one chunk in the window, and the
  // newcomer swallowed exactly one block.
  EXPECT_EQ(stats.max_window_egress, std::uint64_t{chunk});
  EXPECT_EQ(stats.max_window_ingress, std::uint64_t{block});
  EXPECT_EQ(gauge("carousel_repair_max_window_egress_bytes"),
            static_cast<double>(chunk));

  sched.reset_budget_window();
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDispatched);
  EXPECT_EQ(sched.stats().completed, 2u);
  EXPECT_EQ(store.read_file(1, file_a.size()), file_a);
  EXPECT_EQ(store.read_file(2, file_b.size()), file_b);
}

TEST_F(RepairSchedulerTest, StoreHonorsACustomHelperChoice) {
  // The MSR fan-in takes the attached scheduler's least-charged helpers,
  // not the first d survivors.  Healing block 0 charges one chunk to each
  // of servers 1..10; block 1's survivors are then 0 and 2..11, and the
  // least-charged d are 0, 11 and 2..9 — a set the first-d default
  // (0, 2..10) would not pick.
  make_fleet(12);
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  CarouselStore store(code, ports_, block, opts());
  auto file = random_bytes(code.k() * block, 13);
  store.put_file(1, file);

  RepairScheduler::Options ropts;
  ropts.budget_window = std::chrono::hours(1);  // both heals share a window
  RepairScheduler sched(store, ropts);
  auto projections = [&](std::size_t server) {
    return servers_[server]
        ->metrics()
        .counter(obs::labeled("carousel_server_requests_total", "op",
                              "project"))
        .value();
  };

  store.drop_block(1, 0, 0);
  EXPECT_EQ(store.repair_block(1, 0, 0), std::uint64_t{2} * block);
  store.drop_block(1, 0, 1);
  // Still the paper's optimal d/(d-k+1) = 2 block sizes on the wire.
  EXPECT_EQ(store.repair_block(1, 0, 1), std::uint64_t{2} * block);

  EXPECT_EQ(projections(0), 1u);   // block 1's helper only
  EXPECT_EQ(projections(1), 1u);   // block 0's helper only
  EXPECT_EQ(projections(10), 1u);  // block 0's helper only: skipped for 11
  EXPECT_EQ(projections(11), 1u);  // block 1's helper only
  for (std::size_t sid = 2; sid <= 9; ++sid)
    EXPECT_EQ(projections(sid), 2u) << "server " << sid;
  EXPECT_EQ(store.read_file(1, file.size()), file);
}

// ---- Admission control ----------------------------------------------------

TEST_F(RepairSchedulerTest, ForegroundP99BacksRepairsOffAndRampsBack) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  auto file = random_bytes(code.k() * block, 14);
  store.put_file(1, file);

  RepairScheduler::Options ropts;
  ropts.max_concurrent = 2;
  ropts.p99_budget = std::chrono::milliseconds(50);
  RepairScheduler sched(store, ropts);
  auto& foreground = registry_.histogram("carousel_store_read_seconds");

  // Two breached windows halve the allowed concurrency 2 -> 1 -> 0.
  for (int i = 0; i < 100; ++i) foreground.observe(0.5);
  sched.poll_admission();
  EXPECT_EQ(sched.stats().allowed, 1u);
  for (int i = 0; i < 100; ++i) foreground.observe(0.5);
  sched.poll_admission();
  auto stats = sched.stats();
  EXPECT_EQ(stats.allowed, 0u);
  EXPECT_EQ(stats.backoffs, 2u);
  EXPECT_EQ(counter("carousel_repair_backoffs_total"), 2u);
  EXPECT_GT(gauge("carousel_repair_foreground_p99_ms"), 50.0);

  // Ordinary work is parked while fully backed off...
  store.drop_block(1, 0, 0);
  sched.enqueue({1, 0, 0}, RepairScheduler::Kind::kRepair, 1);
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDeferredBackoff);
  EXPECT_GE(sched.stats().deferred_backoff, 1u);

  // ...but a stripe at the erasure limit (criticality >= n-k = 2) is an
  // emergency: durability outranks politeness.
  sched.enqueue({1, 0, 0}, RepairScheduler::Kind::kRepair, 2);
  EXPECT_EQ(sched.step(), RepairScheduler::StepResult::kDispatched);
  stats = sched.stats();
  EXPECT_EQ(stats.emergencies, 1u);
  EXPECT_EQ(stats.completed, 1u);

  // Healthy windows ramp allowed concurrency back up by one each.
  for (int i = 0; i < 100; ++i) foreground.observe(0.001);
  sched.poll_admission();
  EXPECT_EQ(sched.stats().allowed, 1u);
  sched.poll_admission();  // no new observations at all is also healthy
  stats = sched.stats();
  EXPECT_EQ(stats.allowed, 2u);
  EXPECT_EQ(stats.ramps, 2u);
  EXPECT_EQ(counter("carousel_repair_ramps_total"), 2u);
}

// ---- Background drain, rehome fan-in, and the add_server race -------------

TEST_F(RepairSchedulerTest, RehomeServerEnqueuesInsteadOfHealingInline) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  const std::size_t spare_id = store.add_server(spare.port());
  auto file_a = random_bytes(code.k() * block, 15);
  auto file_b = random_bytes(code.k() * block, 16);
  store.put_file(1, file_a);
  store.put_file(2, file_b);
  RepairScheduler sched(store);

  kill(3);
  auto report = store.rehome_server(3);
  EXPECT_EQ(report.enqueued, 2u);  // block 3 of each file's stripe
  EXPECT_EQ(report.rehomed, 0u);   // nothing healed inline
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(sched.stats().queue_depth, 2u);

  while (sched.step() == RepairScheduler::StepResult::kDispatched) {
  }
  EXPECT_EQ(sched.stats().completed, 2u);
  EXPECT_EQ(store.blocks_on(3).size(), 0u);
  EXPECT_EQ(store.blocks_on(spare_id).size(), 2u);
  EXPECT_EQ(store.read_file(1, file_a.size()), file_a);
  EXPECT_EQ(store.read_file(2, file_b.size()), file_b);
}

TEST_F(RepairSchedulerTest, AddServerRacesAnActiveDrain) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  std::vector<std::vector<Byte>> files;
  for (std::uint32_t f = 1; f <= 3; ++f) {
    files.push_back(random_bytes(code.k() * block, 20 + f));
    store.put_file(f, files.back());
  }

  RepairScheduler::Options ropts;
  ropts.max_concurrent = 2;
  ropts.workers = 2;
  RepairScheduler sched(store, ropts);

  // Kill a server and start draining its rehomes *before* any spare
  // exists: the first attempts fail (no placement candidate), and spare
  // registration races the drain's store traffic.
  kill(2);
  EXPECT_EQ(sched.enqueue_server(2), 3u);
  sched.start();
  EXPECT_TRUE(sched.running());
  sched.start();  // idempotent

  BlockServer spare;
  std::thread registrar([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    store.add_server(spare.port());
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    sched.wait_idle(std::chrono::milliseconds(500));
    if (store.blocks_on(2).empty()) break;
    // Failed items left the queue; keep feeding the drain until the spare
    // has absorbed every victim (what a scrubber sweep does continuously).
    sched.enqueue_server(2);
  }
  registrar.join();
  sched.stop();
  EXPECT_FALSE(sched.running());

  EXPECT_EQ(store.blocks_on(2).size(), 0u);
  auto stats = sched.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_LE(stats.peak_running, ropts.max_concurrent);
  EXPECT_EQ(gauge("carousel_repair_running"), 0.0);
  for (std::uint32_t f = 1; f <= 3; ++f)
    EXPECT_EQ(store.read_file(f, files[f - 1].size()), files[f - 1]);
}

TEST_F(RepairSchedulerTest, ScrubberEnqueuesDeadHomesAsRehomes) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  const std::size_t spare_id = store.add_server(spare.port());
  auto file = random_bytes(code.k() * block, 31);
  store.put_file(1, file);
  HealthMonitor monitor(store, fast_monitor());
  RepairScheduler sched(store);
  Scrubber::Options sopts;
  sopts.monitor = &monitor;
  sopts.scheduler = &sched;
  Scrubber scrubber(store, sopts);

  kill(4);
  monitor.probe_once();
  monitor.probe_once();
  ASSERT_EQ(monitor.state_of(4), ServerState::kDead);

  auto sweep = scrubber.run_once();
  EXPECT_EQ(sweep.enqueued, 1u);
  EXPECT_EQ(sweep.rehomes, 0u);  // the sweep itself moved nothing
  auto head = sched.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->kind, RepairScheduler::Kind::kRehome);

  while (sched.step() == RepairScheduler::StepResult::kDispatched) {
  }
  EXPECT_EQ(store.blocks_on(4).size(), 0u);
  EXPECT_EQ(store.blocks_on(spare_id).size(), 1u);
  EXPECT_EQ(store.read_file(1, file.size()), file);

  auto quiet = scrubber.run_once();
  EXPECT_EQ(quiet.ok, quiet.blocks_checked);
  EXPECT_EQ(quiet.enqueued, 0u);
}

// A dead server's port can be bound again by any process, and whatever
// answers there would pass the PUT and its VERIFY audit.  With the monitor
// consulted, a rehome skips the spare it declared dead even though a
// stranger now answers on that spare's port, and lands on the live spare.
TEST_F(RepairSchedulerTest, RehomeSkipsServersTheMonitorDeclaredDead) {
  make_fleet(8);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 8;
  std::vector<std::uint16_t> base(ports_.begin(), ports_.begin() + 6);
  CarouselStore store(code, base, block, opts());
  const std::size_t dead_spare = store.add_server(ports_[6]);
  const std::size_t live_spare = store.add_server(ports_[7]);
  auto file = random_bytes(code.k() * block, 61);
  store.put_file(1, file);
  HealthMonitor monitor(store, fast_monitor());
  RepairScheduler::Options ropts;
  ropts.monitor = &monitor;
  RepairScheduler sched(store, ropts);

  kill(6);
  monitor.probe_once();
  monitor.probe_once();
  ASSERT_EQ(monitor.state_of(dead_spare), ServerState::kDead);
  BlockServer stranger(ports_[6]);  // the freed port, taken over

  const std::size_t home = store.placement_of(1, 0, 2);
  kill(home);
  store.rehome_block(1, 0, 2);
  EXPECT_EQ(store.placement_of(1, 0, 2), live_spare);
  EXPECT_EQ(stranger.block_count(), 0u);
  EXPECT_EQ(store.read_file(1, file.size()), file);
}

// ---- Shutdown discipline ---------------------------------------------------

// Regression: stop() used to join the dispatcher handle outside the mutex,
// so two concurrent stop() calls could both pass the dispatcher_running_
// check and join the same std::thread twice (std::terminate) — a race TSan
// sees on the handle.  The fix claims the handle under the lock; exactly
// one stopper joins it.
TEST_F(RepairSchedulerTest, ConcurrentStopsJoinTheDispatcherExactlyOnce) {
  make_fleet(6);
  codes::Carousel code(6, 4, 4, 6);
  const std::size_t block = code.s() * 8;
  CarouselStore store(code, ports_, block, opts());
  store.put_file(1, random_bytes(code.k() * block, 41));
  RepairScheduler::Options sopts;
  sopts.tick = std::chrono::milliseconds(1);
  for (int round = 0; round < 5; ++round) {
    RepairScheduler sched(store, sopts);
    sched.start();
    sched.start();  // idempotent
    EXPECT_TRUE(sched.running());
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t)
      stoppers.emplace_back([&sched] { sched.stop(); });
    for (auto& s : stoppers) s.join();
    EXPECT_FALSE(sched.running());
    sched.stop();  // idempotent after the storm
  }
}

}  // namespace
}  // namespace carousel::net
