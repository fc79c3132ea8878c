#include "net/repair_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "net/cluster.h"

namespace carousel::net {

namespace {

/// The one place the carousel_repair_ metric family prefix exists (lint
/// rule 6 in tools/check_invariants.py): every instrument in the family is
/// named through this helper, so the family cannot fork on a typo.
std::string repair_metric(const char* what) {
  return std::string("carousel_repair_") + what;
}

std::uint64_t charge_of(const std::map<std::size_t, std::uint64_t>& window,
                        std::size_t server) {
  auto it = window.find(server);
  return it == window.end() ? 0 : it->second;
}

}  // namespace

RepairScheduler::RepairScheduler(CarouselStore& store, Options options)
    : store_(store), options_(options), registry_(&store.metrics()) {
  if (options_.max_concurrent == 0)
    throw std::invalid_argument(
        "RepairScheduler max_concurrent must be >= 1 (zero can never "
        "dispatch)");
  if (options_.workers == 0)
    throw std::invalid_argument(
        "RepairScheduler workers must be >= 1 (zero starves background "
        "mode)");
  if (options_.budget_window.count() <= 0)
    throw std::invalid_argument("RepairScheduler budget_window must be > 0");
  if (options_.admission_interval.count() <= 0)
    throw std::invalid_argument(
        "RepairScheduler admission_interval must be > 0");
  if (options_.tick.count() <= 0)
    throw std::invalid_argument("RepairScheduler tick must be > 0");
  if (options_.p99_budget.count() < 0)
    throw std::invalid_argument(
        "RepairScheduler p99_budget must be >= 0 (zero = admission control "
        "off)");
  allowed_ = options_.max_concurrent;
  stats_.allowed = allowed_;
  window_start_ = std::chrono::steady_clock::now();

  auto repair_counter = [&](const char* what) {
    return &registry_->counter(repair_metric(what));
  };
  auto repair_gauge = [&](const char* what) {
    return &registry_->gauge(repair_metric(what));
  };
  enqueued_total_ = repair_counter("enqueued_total");
  updated_total_ = repair_counter("updated_total");
  completed_total_ = repair_counter("completed_total");
  failed_total_ = repair_counter("failed_total");
  deferred_budget_total_ = repair_counter("deferred_budget_total");
  deferred_backoff_total_ = repair_counter("deferred_backoff_total");
  backoffs_total_ = repair_counter("backoffs_total");
  ramps_total_ = repair_counter("ramps_total");
  emergencies_total_ = repair_counter("emergencies_total");
  domain_boosts_total_ = repair_counter("domain_boosts_total");
  bytes_moved_total_ = repair_counter("bytes_moved_total");
  queue_depth_gauge_ = repair_gauge("queue_depth");
  running_gauge_ = repair_gauge("running");
  allowed_gauge_ = repair_gauge("allowed_concurrency");
  peak_running_gauge_ = repair_gauge("peak_running");
  max_window_egress_gauge_ = repair_gauge("max_window_egress_bytes");
  max_window_ingress_gauge_ = repair_gauge("max_window_ingress_bytes");
  foreground_p99_gauge_ = repair_gauge("foreground_p99_ms");
  allowed_gauge_->set(static_cast<double>(allowed_));

  // All healing flows through this scheduler from here on: rehome_server
  // fans into the queue, the MSR fan-in spreads over least-charged helpers,
  // and budgets charge the repair path's actual wire bytes.
  store_.attach_scheduler(this);
}

RepairScheduler::~RepairScheduler() {
  // Detach first: attach_scheduler takes the store mutex, so once it
  // returns no in-flight store operation can still call into this object.
  store_.attach_scheduler(nullptr);
  stop();
}

std::uint32_t RepairScheduler::emergency_threshold() const {
  const auto& p = store_.code().params();
  return static_cast<std::uint32_t>(std::max<std::size_t>(1, p.n - p.k));
}

void RepairScheduler::enqueue(const CarouselStore::BlockRef& block, Kind kind,
                              std::uint32_t criticality,
                              std::optional<std::size_t> home) {
  // Domain-correlated escalation: when the victim's home shares a failure
  // domain with other kDead servers, the stripe's loss is correlated, not
  // scattered — rank it ahead.  The monitor is consulted *before* taking
  // mu_ (its mutex outranks the store's, and ours must come after any
  // store mutex a caller already holds, never after the monitor's).
  std::uint32_t boost = 0;
  if (home.has_value() && options_.monitor != nullptr) {
    const std::size_t dead = options_.monitor->dead_in_domain(*home);
    if (dead > 1) boost = static_cast<std::uint32_t>(dead - 1);
  }
  criticality += boost;
  // Releasable so the dispatcher wakes to an uncontended mutex: the notify
  // below happens after the lock is dropped.
  util::ReleasableMutexLock lock(mu_);
  if (boost > 0) {
    ++stats_.domain_boosts;
    domain_boosts_total_->inc();
  }
  const BlockId id = id_of(block);
  if (running_items_.contains(id)) return;  // already being healed
  auto idx = index_.find(id);
  if (idx != index_.end()) {
    WorkItem cur = *idx->second;
    const bool escalates = criticality > cur.criticality ||
                           (kind == Kind::kRehome && cur.kind == Kind::kRepair);
    if (!escalates) return;
    queue_.erase(idx->second);
    cur.criticality = std::max(cur.criticality, criticality);
    if (kind == Kind::kRehome) cur.kind = Kind::kRehome;
    idx->second = queue_.insert(cur).first;
    ++stats_.updated;
    updated_total_->inc();
  } else {
    WorkItem item{block, kind, criticality, next_seq_++};
    index_[id] = queue_.insert(item).first;
    ++stats_.enqueued;
    enqueued_total_->inc();
  }
  export_queue_gauges_locked();
  lock.release();
  work_cv_.notify_all();
}

std::size_t RepairScheduler::enqueue_server(std::size_t server_id) {
  // Read the placement under the store's mutex *before* touching our own:
  // lock order is store -> scheduler, never the reverse.
  const auto victims = store_.blocks_on(server_id);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> per_stripe;
  for (const auto& v : victims) ++per_stripe[{v.file, v.stripe}];
  for (const auto& v : victims)
    enqueue(v, Kind::kRehome, per_stripe[{v.file, v.stripe}], server_id);
  return victims.size();
}

std::optional<RepairScheduler::WorkItem> RepairScheduler::peek() const {
  util::MutexLock lock(mu_);
  if (queue_.empty()) return std::nullopt;
  return *queue_.begin();
}

RepairScheduler::Dispatch RepairScheduler::plan_dispatch() {
  // Cluster facts come from the store and monitor without holding mu_.
  const std::size_t servers = store_.server_count();
  std::vector<bool> dead(servers, false);
  if (options_.monitor != nullptr)
    for (std::size_t id = 0; id < servers; ++id)
      dead[id] = options_.monitor->state_of(id) == ServerState::kDead;

  util::MutexLock lock(mu_);
  known_servers_ = servers;
  if (queue_.empty()) return {StepResult::kIdle, {}};
  if (running_ >= options_.max_concurrent) return {StepResult::kAtCap, {}};
  const WorkItem top = *queue_.begin();
  if (top.criticality >= emergency_threshold()) {
    // At the erasure limit durability outranks politeness: emergencies skip
    // admission and budget gates (never the global cap).
    ++stats_.emergencies;
    emergencies_total_->inc();
  } else {
    if (running_ >= allowed_) {
      ++stats_.deferred_backoff;
      deferred_backoff_total_->inc();
      return {StepResult::kDeferredBackoff, {}};
    }
    if (!budget_ok_locked(dead)) {
      ++stats_.deferred_budget;
      deferred_budget_total_->inc();
      return {StepResult::kDeferredBudget, {}};
    }
  }
  index_.erase(id_of(top.block));
  queue_.erase(queue_.begin());
  running_items_.insert(id_of(top.block));
  ++running_;
  stats_.peak_running = std::max(stats_.peak_running, running_);
  peak_running_gauge_->set(static_cast<double>(stats_.peak_running));
  export_queue_gauges_locked();
  return {StepResult::kDispatched, top};
}

bool RepairScheduler::budget_ok_locked(const std::vector<bool>& dead) {
  if (options_.server_egress_budget == 0 &&
      options_.server_ingress_budget == 0)
    return true;
  roll_window_locked(std::chrono::steady_clock::now());
  // Price the next heal from the code: the MSR path fans d chunks of
  // block/(d-k+1) out of d helpers, the RS fallback k whole blocks out of k;
  // either way the newcomer swallows one whole block.
  const auto& params = store_.code().params();
  const std::uint64_t block = store_.block_bytes();
  const bool msr = !params.trivial_repair();
  const std::uint64_t per_helper = msr ? block / params.alpha() : block;
  const std::size_t need = msr ? params.d : params.k;
  std::size_t with_egress = 0;
  bool ingress_ok = options_.server_ingress_budget == 0;
  for (std::size_t id = 0; id < known_servers_; ++id) {
    if (id < dead.size() && dead[id]) continue;
    if (options_.server_egress_budget == 0 ||
        charge_of(window_egress_, id) + per_helper <=
            options_.server_egress_budget)
      ++with_egress;
    if (!ingress_ok && charge_of(window_ingress_, id) + block <=
                           options_.server_ingress_budget)
      ingress_ok = true;
  }
  const bool egress_ok =
      options_.server_egress_budget == 0 || with_egress >= need;
  return egress_ok && ingress_ok;
}

RepairScheduler::StepResult RepairScheduler::step() {
  Dispatch d = plan_dispatch();
  if (d.result == StepResult::kDispatched) execute(d.item);
  return d.result;
}

void RepairScheduler::execute(const WorkItem& item) {
  bool ok = true;
  std::uint64_t bytes = 0;
  try {
    bytes = item.kind == Kind::kRehome
                ? store_.rehome_block(item.block.file, item.block.stripe,
                                      item.block.index)
                : store_.repair_block(item.block.file, item.block.stripe,
                                      item.block.index);
  } catch (const std::exception&) {
    // A failed heal is counted, not retried here: the next scrubber sweep
    // (or rehome_server call) re-enqueues whatever is still broken.
    ok = false;
  }
  finish(item, ok, bytes);
}

void RepairScheduler::finish(const WorkItem& item, bool ok,
                             std::uint64_t bytes) {
  util::MutexLock lock(mu_);
  running_items_.erase(id_of(item.block));
  --running_;
  if (ok) {
    ++stats_.completed;
    completed_total_->inc();
    stats_.bytes_moved += bytes;
    bytes_moved_total_->inc(bytes);
  } else {
    ++stats_.failed;
    failed_total_->inc();
  }
  export_queue_gauges_locked();
  idle_cv_.notify_all();
  work_cv_.notify_all();
}

bool RepairScheduler::server_dead(std::size_t server) const {
  return options_.monitor != nullptr &&
         options_.monitor->state_of(server) == ServerState::kDead;
}

std::vector<std::size_t> RepairScheduler::select_helpers(
    const std::vector<CarouselStore::HelperCandidate>& candidates,
    std::size_t want, std::size_t bytes_per_helper) {
  // Called under the store's mutex: touch scheduler state only.
  util::MutexLock lock(mu_);
  roll_window_locked(std::chrono::steady_clock::now());
  const std::uint64_t budget = options_.server_egress_budget;
  auto over_budget = [&](std::size_t server) {
    return budget != 0 &&
           charge_of(window_egress_, server) + bytes_per_helper > budget;
  };
  std::vector<CarouselStore::HelperCandidate> order(candidates);
  std::stable_sort(order.begin(), order.end(),
                   [&](const CarouselStore::HelperCandidate& a,
                       const CarouselStore::HelperCandidate& b) {
                     const bool ao = over_budget(a.server);
                     const bool bo = over_budget(b.server);
                     if (ao != bo) return bo;  // within-budget first
                     const auto ac = charge_of(window_egress_, a.server);
                     const auto bc = charge_of(window_egress_, b.server);
                     if (ac != bc) return ac < bc;  // least-charged first
                     return a.server < b.server;
                   });
  std::vector<std::size_t> out;
  out.reserve(std::min(want, order.size()));
  for (const auto& c : order) {
    if (out.size() == want) break;
    out.push_back(c.index);
  }
  return out;
}

void RepairScheduler::observe_traffic(std::size_t server,
                                      std::uint64_t egress_bytes,
                                      std::uint64_t ingress_bytes) {
  // Called under the store's mutex: touch scheduler state only.
  util::MutexLock lock(mu_);
  roll_window_locked(std::chrono::steady_clock::now());
  charge_locked(server, egress_bytes, ingress_bytes);
}

void RepairScheduler::charge_locked(std::size_t server, std::uint64_t egress,
                                    std::uint64_t ingress) {
  if (egress > 0) {
    const std::uint64_t now_at = window_egress_[server] += egress;
    if (now_at > stats_.max_window_egress) {
      stats_.max_window_egress = now_at;
      max_window_egress_gauge_->set(static_cast<double>(now_at));
    }
  }
  if (ingress > 0) {
    const std::uint64_t now_at = window_ingress_[server] += ingress;
    if (now_at > stats_.max_window_ingress) {
      stats_.max_window_ingress = now_at;
      max_window_ingress_gauge_->set(static_cast<double>(now_at));
    }
  }
}

void RepairScheduler::roll_window_locked(
    std::chrono::steady_clock::time_point now) {
  if (now - window_start_ < options_.budget_window) return;
  window_egress_.clear();
  window_ingress_.clear();
  window_start_ = now;
}

void RepairScheduler::reset_budget_window() {
  util::MutexLock lock(mu_);
  window_egress_.clear();
  window_ingress_.clear();
  window_start_ = std::chrono::steady_clock::now();
}

void RepairScheduler::poll_admission() {
  if (options_.p99_budget.count() <= 0) return;
  const auto snap = registry_->snapshot();  // registry lock only, never mu_
  util::MutexLock lock(mu_);
  double p99_s = 0.0;
  bool breach = false;
  auto it = snap.histograms.find(options_.foreground_metric);
  if (it != snap.histograms.end()) {
    const auto& h = it->second;
    // Windowed p99: only observations since the last poll count, so a past
    // latency spike cannot pin the scheduler down forever.
    std::uint64_t total = 0;
    std::vector<std::uint64_t> delta(h.buckets.size(), 0);
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const std::uint64_t prev =
          i < last_foreground_buckets_.size() ? last_foreground_buckets_[i]
                                              : 0;
      delta[i] = h.buckets[i] - prev;
      total += delta[i];
    }
    last_foreground_buckets_ = h.buckets;
    if (total > 0) {
      const std::uint64_t need = (total * 99 + 99) / 100;  // ceil(.99 total)
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < delta.size(); ++i) {
        cum += delta[i];
        if (cum < need) continue;
        // The bucket's upper bound estimates the quantile; the +inf bucket
        // has none, so score it far beyond any sane budget.
        p99_s = i < h.bounds.size()
                    ? h.bounds[i]
                    : (h.bounds.empty() ? 0.0 : h.bounds.back() * 10.0);
        break;
      }
      breach =
          p99_s * 1000.0 > static_cast<double>(options_.p99_budget.count());
    }
    // No foreground traffic since the last poll reads as healthy: an idle
    // cluster is exactly when repairs should ramp back up.
  }
  foreground_p99_gauge_->set(p99_s * 1000.0);
  if (breach) {
    if (allowed_ > 0) {
      allowed_ /= 2;  // multiplicative decrease; emergencies still dispatch
      ++stats_.backoffs;
      backoffs_total_->inc();
    }
  } else if (allowed_ < options_.max_concurrent) {
    ++allowed_;  // additive recovery
    ++stats_.ramps;
    ramps_total_->inc();
  }
  stats_.allowed = allowed_;
  allowed_gauge_->set(static_cast<double>(allowed_));
}

void RepairScheduler::start() {
  util::MutexLock lock(mu_);
  if (dispatcher_running_) return;
  stop_requested_ = false;
  dispatcher_running_ = true;
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  dispatcher_ = std::thread([this] { loop(); });
}

void RepairScheduler::stop() {
  // Claim the dispatcher thread under the lock so concurrent stop() calls
  // never join the same std::thread twice: the loser finds an empty handle.
  std::thread claimed;
  util::ThreadPool* pool = nullptr;
  {
    util::MutexLock lock(mu_);
    if (!dispatcher_running_) return;
    stop_requested_ = true;
    dispatcher_running_ = false;
    claimed = std::move(dispatcher_);
    pool = pool_.get();
  }
  work_cv_.notify_all();
  if (claimed.joinable()) claimed.join();
  if (pool) pool->wait_idle();  // execute() swallows store exceptions
}

bool RepairScheduler::running() const {
  util::MutexLock lock(mu_);
  return dispatcher_running_;
}

void RepairScheduler::loop() {
  auto last_admission = std::chrono::steady_clock::now();
  for (;;) {
    {
      util::MutexLock lock(mu_);
      if (stop_requested_) return;
    }
    const auto now = std::chrono::steady_clock::now();
    if (options_.p99_budget.count() > 0 &&
        now - last_admission >= options_.admission_interval) {
      poll_admission();
      last_admission = now;
    }
    Dispatch d = plan_dispatch();
    if (d.result == StepResult::kDispatched) {
      pool_->submit([this, item = d.item] { execute(item); });
      continue;  // keep dispatching while slots and budgets allow
    }
    // Sleep out the tick; only a stop request ends it early (a work notify
    // re-checks the predicate and keeps waiting for the remainder).
    const auto deadline = std::chrono::steady_clock::now() + options_.tick;
    util::MutexLock lock(mu_);
    while (!stop_requested_ &&
           work_cv_.wait_until(mu_, deadline) != std::cv_status::timeout) {
    }
  }
}

bool RepairScheduler::wait_idle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  util::MutexLock lock(mu_);
  while (!queue_.empty() || running_ != 0) {
    if (idle_cv_.wait_until(mu_, deadline) == std::cv_status::timeout)
      return queue_.empty() && running_ == 0;
  }
  return true;
}

void RepairScheduler::export_queue_gauges_locked() {
  stats_.queue_depth = queue_.size();
  stats_.running = running_;
  queue_depth_gauge_->set(static_cast<double>(queue_.size()));
  running_gauge_->set(static_cast<double>(running_));
}

RepairScheduler::Stats RepairScheduler::stats() const {
  util::MutexLock lock(mu_);
  Stats out = stats_;
  out.queue_depth = queue_.size();
  out.running = running_;
  out.allowed = allowed_;
  return out;
}

}  // namespace carousel::net
