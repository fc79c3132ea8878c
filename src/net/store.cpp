#include "net/store.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>

#include "net/repair_scheduler.h"
#include "obs/trace.h"
#include "util/crc32.h"

namespace carousel::net {

using codes::Byte;

namespace {

/// Construction-time validation shared by the constructor and
/// set_hedge_policy(): nonsense knobs throw instead of degenerating into a
/// policy that silently hedges every read (or none).
void validate_hedge_policy(const HedgePolicy& policy) {
  if (policy.percentile < 0.5 || policy.percentile >= 1.0)
    throw std::invalid_argument(
        "HedgePolicy::percentile must lie in [0.5, 1.0)");
  if (policy.min_samples == 0)
    throw std::invalid_argument(
        "HedgePolicy::min_samples must be > 0 (a zero-sample quantile is "
        "undefined)");
  if (policy.floor.count() < 0 || policy.initial.count() < 0)
    throw std::invalid_argument(
        "HedgePolicy budgets (floor, initial) must be >= 0");
}

/// CRC-32 fingerprint of the configuration a metadata journal belongs to:
/// code geometry, block size, construction fleet and its domain labels.
/// Reopening a journal under a different fingerprint throws MetaReplayError
/// — replaying placements into a differently shaped store would be silent
/// corruption.
std::uint32_t meta_config_fingerprint(const codes::Carousel& code,
                                      std::size_t block_bytes,
                                      const std::vector<std::uint16_t>& ports,
                                      const std::vector<std::size_t>& domains) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(code.n()));
  w.u32(static_cast<std::uint32_t>(code.k()));
  w.u64(block_bytes);
  w.u32(static_cast<std::uint32_t>(ports.size()));
  for (std::uint16_t p : ports) w.u16(p);
  w.u32(static_cast<std::uint32_t>(domains.size()));
  for (std::size_t d : domains) w.u64(d);
  return util::crc32(w.data());
}

MetaLog::HedgeRecord to_hedge_record(const HedgePolicy& policy) {
  MetaLog::HedgeRecord rec;
  rec.enabled = policy.enabled;
  rec.percentile = policy.percentile;
  rec.floor_ms = policy.floor.count();
  rec.initial_ms = policy.initial.count();
  rec.min_samples = policy.min_samples;
  return rec;
}

}  // namespace

CarouselStore::Lease::Lease(Server& server, const RetryPolicy& policy,
                            obs::MetricsRegistry* registry)
    : server_(&server) {
  {
    util::MutexLock lock(server.pool_mu);
    if (!server.idle.empty()) {
      client_ = std::move(server.idle.back());
      server.idle.pop_back();
    }
  }
  if (!client_)
    client_ = std::make_unique<Client>(server.port, policy, registry);
}

CarouselStore::Lease::~Lease() {
  if (!client_) return;  // moved from
  // An answer nobody read must not greet the next user of the connection.
  if (client_->pending()) client_->abandon();
  // Cap the pool so a burst of hedges does not pin file descriptors forever;
  // an over-cap client folds its telemetry into the server's retired totals
  // so bytes_received()/counters() stay exact.
  static constexpr std::size_t kMaxIdleClients = 8;
  std::unique_ptr<Client> discard;
  {
    util::MutexLock lock(server_->pool_mu);
    if (server_->idle.size() < kMaxIdleClients) {
      server_->idle.push_back(std::move(client_));
    } else {
      server_->retired += client_->counters();
      server_->retired_bytes += client_->bytes_received();
      discard = std::move(client_);  // socket closes outside the lock
    }
  }
}

CarouselStore::CarouselStore(const codes::Carousel& code,
                             const std::vector<std::uint16_t>& ports,
                             std::size_t block_bytes, StoreOptions options)
    : code_(&code),
      block_bytes_(block_bytes),
      registry_(options.registry ? options.registry
                                 : &obs::MetricsRegistry::global()),
      op_budget_(options.op_budget),
      policy_(options.policy),
      hedge_(options.hedge) {
  if (ports.empty()) throw std::invalid_argument("need at least one server");
  if (block_bytes == 0 || block_bytes % code.s() != 0)
    throw std::invalid_argument(
        "block_bytes must be a positive multiple of the subpacketization");
  if (options.op_budget.count() < 0)
    throw std::invalid_argument(
        "StoreOptions::op_budget must be >= 0 (zero = unbounded)");
  validate_hedge_policy(options.hedge);
  if (!options.domains.empty() && options.domains.size() != ports.size())
    throw std::invalid_argument(
        "StoreOptions::domains must label every construction server "
        "(domains.size() == ports.size())");
  base_fleet_ = ports.size();
  servers_.reserve(ports.size());
  explicit_domains_ = !options.domains.empty();
  for (std::size_t i = 0; i < ports.size(); ++i) {
    auto server = std::make_unique<Server>();
    server->port = ports[i];
    server->domain = explicit_domains_ ? options.domains[i] : i;
    servers_.push_back(std::move(server));
  }
  if (explicit_domains_) {
    // Satisfiability: with D distinct domains and at most n-k blocks of a
    // stripe per domain, a stripe's n blocks fit only when D*(n-k) >= n.
    const std::set<std::size_t> distinct(options.domains.begin(),
                                         options.domains.end());
    if (distinct.size() * max_blocks_per_domain() < code.n())
      throw std::invalid_argument(
          "StoreOptions::domains unsatisfiable: need distinct domains * "
          "(n-k) >= n to place a stripe under the per-domain cap");
  }
  put_seconds_ = &registry_->histogram("carousel_store_put_seconds");
  read_seconds_ = &registry_->histogram("carousel_store_read_seconds");
  range_get_seconds_ =
      &registry_->histogram("carousel_store_range_get_seconds");
  repair_seconds_ = &registry_->histogram("carousel_store_repair_seconds");
  put_bytes_ = &registry_->counter("carousel_store_put_bytes_total");
  read_bytes_ = &registry_->counter("carousel_store_read_bytes_total");
  range_gets_ = &registry_->counter("carousel_store_range_gets_total");
  hedged_reads_ = &hedge_metric("d_reads_total");
  hedge_wins_ = &hedge_metric("_wins_total");
  repairs_ = &registry_->counter("carousel_store_repairs_total");
  repair_bytes_read_ =
      &registry_->counter("carousel_store_repair_bytes_read_total");
  degraded_reads_ =
      &registry_->counter("carousel_store_degraded_stripe_reads_total");
  decode_fallbacks_ =
      &registry_->counter("carousel_store_decode_fallback_stripes_total");
  rehomes_ = &registry_->counter("carousel_cluster_rehomes_total");
  rehome_failures_ =
      &registry_->counter("carousel_cluster_rehome_failures_total");
  rehome_bytes_read_ =
      &registry_->counter("carousel_cluster_rehome_bytes_read_total");
  budget_exhausted_ =
      &registry_->counter("carousel_store_budget_exhausted_total");
  spare_servers_ = &registry_->gauge("carousel_cluster_spare_servers");
  if (!options.meta_dir.empty()) {
    MetaLog::Options mopts;
    mopts.fsync = options.meta_fsync;
    mopts.registry = registry_;
    util::MutexLock mlock(meta_mu_);
    meta_ = std::make_unique<MetaLog>(
        options.meta_dir,
        meta_config_fingerprint(code, block_bytes, ports, options.domains),
        mopts);
    adopt_replayed_state();
  }
}

void CarouselStore::adopt_replayed_state() {
  const MetaLog::State& state = meta_->state();
  {
    util::MutexLock lock(mu_);
    // Spares first: replayed placements may name them.  Domains were
    // resolved at append time, so the journaled label is the truth.
    for (const MetaLog::SpareServer& sp : state.spares)
      add_server_locked(sp.port, static_cast<std::size_t>(sp.domain),
                        sp.labeled);
    for (const auto& [file_id, rec] : state.manifest) {
      if (rec.placement.size() != rec.stripes)
        throw MetaReplayError("replayed file " + std::to_string(file_id) +
                              " has a malformed placement table");
      for (const auto& row : rec.placement) {
        if (row.size() != code_->n())
          throw MetaReplayError("replayed file " + std::to_string(file_id) +
                                " has a placement row of the wrong width");
        // A journal must not resurrect a layout a live store would never
        // have produced.
        if (!row_fits_fleet_locked(row))
          throw MetaReplayError(
              "replayed placement for file " + std::to_string(file_id) +
              " names a server outside the fleet or violates the "
              "per-domain <= n-k invariant");
      }
      manifest_[file_id] =
          FileInfo{static_cast<std::size_t>(rec.file_bytes), rec.stripes,
                   rec.placement};
    }
    if (state.hedge) {
      HedgePolicy hp;
      hp.enabled = state.hedge->enabled;
      hp.percentile = state.hedge->percentile;
      hp.floor = std::chrono::milliseconds(state.hedge->floor_ms);
      hp.initial = std::chrono::milliseconds(state.hedge->initial_ms);
      hp.min_samples = state.hedge->min_samples;
      try {
        validate_hedge_policy(hp);
      } catch (const std::invalid_argument& e) {
        throw MetaReplayError(std::string("replayed hedge policy invalid: ") +
                              e.what());
      }
      hedge_ = hp;
    }
  }
  // Intents a crashed coordinator left pending: reconcile() probes them.
  for (const auto& [file_id, rec] : state.pending_puts)
    recovered_puts_.emplace_back(file_id, rec);
  recovered_rehomes_ = state.pending_rehomes;
}

CarouselStore::~CarouselStore() = default;

obs::Counter& CarouselStore::hedge_metric(const char* suffix) {
  return registry_->counter(std::string("carousel_store_hedge") + suffix);
}

std::chrono::steady_clock::time_point CarouselStore::budget_deadline() const {
  return op_budget_.count() > 0
             ? std::chrono::steady_clock::now() + op_budget_
             : std::chrono::steady_clock::time_point::max();
}

namespace {

/// Throws StoreDeadlineError once `deadline` has passed — called between
/// failover steps, so a chain of sick servers costs at most the budget plus
/// the one client op already in flight.
void check_budget(std::chrono::steady_clock::time_point deadline,
                  obs::Counter* exhausted, const char* what) {
  if (std::chrono::steady_clock::now() < deadline) return;
  exhausted->inc();
  throw StoreDeadlineError(std::string(what) +
                           ": whole-operation budget exhausted");
}

}  // namespace

CarouselStore::Server& CarouselStore::server_at(std::size_t server_id) const {
  util::MutexLock lock(mu_);
  return *servers_[server_id];
}

CarouselStore::Lease CarouselStore::lease(std::size_t server_id) const {
  return Lease(server_at(server_id), policy_, registry_);
}

std::size_t CarouselStore::add_server(std::uint16_t port) {
  // meta_mu_ serializes the whole [resolve domain -> journal -> publish]
  // window against every other mutation, so the domain read under mu_
  // cannot go stale between the append and the registration.
  util::MutexLock mlock(meta_mu_);
  std::size_t domain = 0;
  {
    util::MutexLock lock(mu_);
    // A fresh domain of its own: its id is unique, so the spare never
    // shares a failure domain unless the caller says so via the labeled
    // overload.
    domain = servers_.size();
  }
  if (meta_) meta_->add_server(port, domain, false);
  util::MutexLock lock(mu_);
  return add_server_locked(port, domain, false);
}

std::size_t CarouselStore::add_server(std::uint16_t port, std::size_t domain) {
  util::MutexLock mlock(meta_mu_);
  if (meta_) meta_->add_server(port, domain, true);
  util::MutexLock lock(mu_);
  return add_server_locked(port, domain, true);
}

std::size_t CarouselStore::add_server_locked(std::uint16_t port,
                                             std::size_t domain,
                                             bool labeled) {
  auto server = std::make_unique<Server>();
  server->port = port;
  server->spare = true;
  server->domain = domain;
  servers_.push_back(std::move(server));
  if (labeled) explicit_domains_ = true;
  std::size_t spares = 0;
  for (const auto& s : servers_) spares += s->spare;
  spare_servers_->set(static_cast<double>(spares));
  return servers_.size() - 1;
}

std::vector<CarouselStore::ServerEndpoint> CarouselStore::servers() const {
  util::MutexLock lock(mu_);
  std::vector<ServerEndpoint> out;
  out.reserve(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i)
    out.push_back(ServerEndpoint{i, servers_[i]->port, servers_[i]->spare,
                                 servers_[i]->domain});
  return out;
}

std::size_t CarouselStore::domain_of(std::size_t server_id) const {
  util::MutexLock lock(mu_);
  if (server_id >= servers_.size())
    throw std::out_of_range("domain_of: unknown server id");
  return servers_[server_id]->domain;
}

std::size_t CarouselStore::server_count() const {
  util::MutexLock lock(mu_);
  return servers_.size();
}

std::size_t CarouselStore::home_of_locked(std::uint32_t file_id,
                                          std::uint32_t stripe,
                                          std::uint32_t index) const {
  auto it = manifest_.find(file_id);
  if (it != manifest_.end() && stripe < it->second.placement.size() &&
      index < it->second.placement[stripe].size())
    return it->second.placement[stripe][index];
  return server_of(index);
}

std::size_t CarouselStore::placement_of(std::uint32_t file_id,
                                        std::uint32_t stripe,
                                        std::uint32_t index) const {
  util::MutexLock lock(mu_);
  return home_of_locked(file_id, stripe, index);
}

std::vector<CarouselStore::BlockRef> CarouselStore::blocks_on(
    std::size_t server_id) const {
  util::MutexLock lock(mu_);
  return blocks_on_locked(server_id);
}

std::vector<CarouselStore::BlockRef> CarouselStore::blocks_on_locked(
    std::size_t server_id) const {
  std::vector<BlockRef> out;
  for (const auto& [file_id, info] : manifest_)
    for (std::size_t s = 0; s < info.stripes; ++s)
      for (std::size_t i = 0; i < code_->n(); ++i)
        if (home_of_locked(file_id, static_cast<std::uint32_t>(s),
                           static_cast<std::uint32_t>(i)) == server_id)
          out.push_back(BlockRef{file_id, static_cast<std::uint32_t>(s),
                                 static_cast<std::uint32_t>(i)});
  return out;
}

bool CarouselStore::row_fits_fleet_locked(
    const std::vector<std::uint32_t>& row) const {
  std::map<std::size_t, std::size_t> in_domain;
  for (std::uint32_t sid : row)
    if (sid >= servers_.size() ||
        ++in_domain[servers_[sid]->domain] > max_blocks_per_domain())
      return false;
  return true;
}

bool CarouselStore::domain_fits_locked(std::size_t server_id,
                                       std::uint32_t file_id,
                                       std::uint32_t stripe,
                                       std::uint32_t index) const {
  // Count the stripe's blocks already homed in the candidate's domain,
  // excluding the slot being (re-)placed: the question is what the domain
  // would hold once this block lands there.
  const std::size_t domain = servers_[server_id]->domain;
  std::size_t held = 0;
  for (std::size_t i = 0; i < code_->n(); ++i) {
    if (i == index) continue;
    const std::size_t home =
        home_of_locked(file_id, stripe, static_cast<std::uint32_t>(i));
    if (home < servers_.size() && servers_[home]->domain == domain) ++held;
  }
  return held < max_blocks_per_domain();
}

std::vector<std::size_t> CarouselStore::placement_candidates_locked(
    std::uint32_t file_id, std::uint32_t stripe, std::uint32_t index) const {
  // Per-server stripe-block counts excluding the block being moved: a
  // candidate is judged by what it would hold *besides* this block.
  std::vector<std::size_t> held(servers_.size(), 0);
  for (std::size_t i = 0; i < code_->n(); ++i) {
    if (i == index) continue;
    const std::size_t home =
        home_of_locked(file_id, stripe, static_cast<std::uint32_t>(i));
    if (home < servers_.size()) ++held[home];
  }
  const std::size_t current = home_of_locked(file_id, stripe, index);
  // The monitor's dead verdicts; the scheduler reads them under the
  // monitor's own mutex, which ranks after mu_.
  std::vector<bool> dead(servers_.size(), false);
  if (scheduler_ != nullptr)
    for (std::size_t id = 0; id < servers_.size(); ++id)
      dead[id] = scheduler_->server_dead(id);
  // Tiers 0/1: servers free of the stripe (or MDS durability would
  // concentrate two erasure domains on one box), spares first — that is
  // what they were registered for — and never past the domain cap.
  std::vector<std::size_t> out;
  for (bool want_spare : {true, false})
    for (std::size_t id = 0; id < servers_.size(); ++id)
      if (servers_[id]->spare == want_spare && held[id] == 0 &&
          id != current && !dead[id] &&
          domain_fits_locked(id, file_id, stripe, index))
        out.push_back(id);
  if (!explicit_domains_) return out;
  // Tier 2, explicit domains only: stack on a survivor already holding
  // stripe blocks, least-loaded first.  A whole-rack loss can leave more
  // victims than stripe-free survivors; the domain — not the box — is the
  // failure unit being priced, so stacking is sound while the candidate's
  // domain stays within n-k.
  std::vector<std::size_t> stacked;
  for (std::size_t id = 0; id < servers_.size(); ++id)
    if (held[id] > 0 && id != current && !dead[id] &&
        domain_fits_locked(id, file_id, stripe, index))
      stacked.push_back(id);
  std::stable_sort(
      stacked.begin(), stacked.end(),
      [&held](std::size_t a, std::size_t b) { return held[a] < held[b]; });
  out.insert(out.end(), stacked.begin(), stacked.end());
  return out;
}

std::vector<std::size_t> CarouselStore::placement_candidates(
    std::uint32_t file_id, std::uint32_t stripe, std::uint32_t index) const {
  util::MutexLock lock(mu_);
  return placement_candidates_locked(file_id, stripe, index);
}

void CarouselStore::set_placement_locked(std::uint32_t file_id,
                                         std::uint32_t stripe,
                                         std::uint32_t index,
                                         std::size_t server_id) {
  auto it = manifest_.find(file_id);
  if (it == manifest_.end())
    throw std::invalid_argument("placement update for unknown file");
  auto& table = it->second.placement;
  if (stripe >= table.size() || index >= table[stripe].size())
    throw std::invalid_argument("placement update out of range");
  // Backstop for the invariant: every legitimate caller already chose
  // server_id through the domain-checked chooser (and re-checked under
  // mu_), so tripping this means a placement path bypassed it.
  if (!domain_fits_locked(server_id, file_id, stripe, index))
    throw RehomeError(
        "placement rejected: the target's failure domain would hold more "
        "than n-k blocks of the stripe");
  table[stripe][index] = static_cast<std::uint32_t>(server_id);
}

void CarouselStore::observe_traffic(std::size_t server, std::uint64_t egress,
                                    std::uint64_t ingress) {
  util::MutexLock lock(mu_);
  if (scheduler_ != nullptr)
    scheduler_->observe_traffic(server, egress, ingress);
}

void CarouselStore::set_hedge_policy(HedgePolicy policy) {
  validate_hedge_policy(policy);
  util::MutexLock mlock(meta_mu_);
  if (meta_) meta_->set_hedge(to_hedge_record(policy));
  util::MutexLock lock(mu_);
  hedge_ = policy;
}

HedgePolicy CarouselStore::hedge_policy() const {
  util::MutexLock lock(mu_);
  return hedge_;
}

std::chrono::milliseconds CarouselStore::hedge_budget(
    const HedgePolicy& policy) const {
  const obs::Histogram& h = *range_get_seconds_;
  if (h.count() < policy.min_samples)
    return std::max(policy.floor, policy.initial);
  // Walk the cumulative histogram to the bucket holding the requested
  // quantile and budget its *upper* bound — hedging should fire past the
  // quantile, never inside it.  The +inf bucket has no bound; use 10x the
  // ladder top (anything there is a straggler by definition).
  const auto& bounds = h.bounds();
  std::vector<std::uint64_t> buckets(bounds.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = h.bucket(i);
    total += buckets[i];
  }
  if (total == 0) return std::max(policy.floor, policy.initial);
  const double target = policy.percentile * static_cast<double>(total);
  const std::uint64_t need = std::min<std::uint64_t>(
      total, std::max<std::uint64_t>(
                 1, static_cast<std::uint64_t>(std::ceil(target))));
  double budget_s = bounds.empty() ? 0.0 : bounds.back() * 10.0;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= need) {
      budget_s = i < bounds.size() ? bounds[i] : bounds.back() * 10.0;
      break;
    }
  }
  const auto ms = std::chrono::milliseconds(
      static_cast<std::int64_t>(std::ceil(budget_s * 1000.0)));
  return std::max(policy.floor, ms);
}

std::vector<std::vector<std::uint32_t>> CarouselStore::seed_placement(
    std::size_t stripes) const {
  std::vector<std::vector<std::uint32_t>> placement(
      stripes, std::vector<std::uint32_t>(code_->n()));
  util::MutexLock lock(mu_);
  if (!explicit_domains_) {
    // The paper's verbatim rule: block i of every stripe on server
    // i mod base fleet.
    for (auto& row : placement)
      for (std::size_t i = 0; i < code_->n(); ++i)
        row[i] = static_cast<std::uint32_t>(server_of(i));
    return placement;
  }
  // Greedy rotation over the base fleet: block i prefers server i mod F
  // (the paper's rule) and walks forward from it to the least-loaded
  // eligible server, skipping any whose domain already holds n-k blocks of
  // the stripe.  When every domain is a singleton wide enough, this lands
  // exactly on the verbatim rule.  The constructor's satisfiability check
  // (distinct domains * (n-k) >= n) makes the walk total by pigeonhole.
  const std::size_t F = base_fleet_;
  for (auto& row : placement) {
    std::vector<std::size_t> count(F, 0);
    std::map<std::size_t, std::size_t> in_domain;
    for (std::size_t i = 0; i < code_->n(); ++i) {
      const std::size_t pref = i % F;
      std::size_t best = F;  // sentinel: none eligible yet
      for (std::size_t off = 0; off < F; ++off) {
        const std::size_t id = (pref + off) % F;
        if (in_domain[servers_[id]->domain] >= max_blocks_per_domain())
          continue;
        if (best == F || count[id] < count[best]) best = id;
      }
      if (best == F)
        throw RehomeError(
            "seed impossible: no server's domain can take another block of "
            "this stripe");
      row[i] = static_cast<std::uint32_t>(best);
      ++count[best];
      ++in_domain[servers_[best]->domain];
    }
  }
  return placement;
}

std::size_t CarouselStore::put_file(std::uint32_t file_id,
                                    std::span<const Byte> bytes) {
  obs::ScopedTimer timer(*put_seconds_);
  const std::size_t n = code_->n();
  const std::size_t stripe_data = code_->k() * block_bytes_;
  // An empty file still occupies one (all-zero) stripe.
  const std::size_t stripes =
      std::max<std::size_t>(1, (bytes.size() + stripe_data - 1) / stripe_data);
  // Seed the placement table (the domain-aware rotation; the paper's
  // verbatim rule for default stores); re-homing rewrites individual
  // entries later.  Uploads run on leased connections and the manifest
  // commits last, after every block is stored.
  std::vector<std::vector<std::uint32_t>> placement = seed_placement(stripes);
  // A reused file id is rejected, never overwritten: overwriting the
  // manifest entry would strand the old stripes' blocks on their servers
  // forever.  The inflight set extends the check to two puts racing the
  // same id.  With a journal, the intent (the full placement) is durable
  // before the first block byte leaves the coordinator, so a crash
  // mid-upload leaves a replayable record of exactly which servers may
  // hold orphans.
  {
    util::MutexLock mlock(meta_mu_);
    {
      util::MutexLock lock(mu_);
      if (manifest_.contains(file_id) ||
          !inflight_puts_.insert(file_id).second)
        throw DuplicateFileError("put_file: file id " +
                                 std::to_string(file_id) +
                                 " already exists in the manifest");
    }
    if (meta_) {
      try {
        meta_->put_intent(file_id, bytes.size(),
                          static_cast<std::uint32_t>(stripes), placement);
      } catch (...) {
        util::MutexLock lock(mu_);
        inflight_puts_.erase(file_id);
        throw;
      }
    }
  }
  put_bytes_->inc(bytes.size());
  // One stripe at a time: encode straight from the caller's bytes into one
  // reused n-block scratch, then PUT its blocks before encoding the next.
  // Only a short tail stripe is copied, to zero-pad it.
  std::vector<Byte> scratch(n * block_bytes_);
  std::vector<std::span<Byte>> blocks;
  for (std::size_t i = 0; i < n; ++i)
    blocks.emplace_back(scratch.data() + i * block_bytes_, block_bytes_);
  std::vector<Byte> tail;
  std::size_t uploaded = 0;
  try {
    for (std::size_t s = 0; s < stripes; ++s) {
      std::span<const Byte> data =
          bytes.subspan(std::min(s * stripe_data, bytes.size()));
      if (data.size() >= stripe_data) {
        data = data.first(stripe_data);
      } else {
        tail.assign(stripe_data, 0);
        std::copy(data.begin(), data.end(), tail.begin());
        data = tail;
      }
      code_->encode(data, blocks);
      for (std::size_t i = 0; i < n; ++i) {
        Lease c = lease(placement[s][i]);
        c->put(key(file_id, static_cast<std::uint32_t>(s),
                   static_cast<std::uint32_t>(i)),
               blocks[i]);
        ++uploaded;
      }
    }
  } catch (...) {
    // The put failed mid-upload: best-effort-delete what already landed,
    // then journal the abandonment so nothing stays pending.
    for (std::size_t b = 0; b < uploaded; ++b) {
      const std::size_t s = b / n;
      const std::size_t i = b % n;
      try {
        Lease c = lease(placement[s][i]);
        c->remove(key(file_id, static_cast<std::uint32_t>(s),
                      static_cast<std::uint32_t>(i)));
      } catch (const Error&) {
      }
    }
    {
      util::MutexLock mlock(meta_mu_);
      if (meta_) {
        try {
          meta_->put_abort(file_id);
        } catch (const Error&) {
        }
      }
      util::MutexLock lock(mu_);
      inflight_puts_.erase(file_id);
    }
    throw;
  }
  {
    util::MutexLock mlock(meta_mu_);
    // The commit record is durable before the manifest entry becomes
    // visible; a crash in between leaves a pending intent whose every
    // block verifies, which reconcile() adopts.
    if (meta_) meta_->put_commit(file_id);
    util::MutexLock lock(mu_);
    inflight_puts_.erase(file_id);
    manifest_[file_id] = FileInfo{bytes.size(), stripes, std::move(placement)};
  }
  return stripes;
}

std::vector<Byte> CarouselStore::read_file(std::uint32_t file_id,
                                           std::size_t file_bytes) {
  obs::ScopedTimer timer(*read_seconds_);
  read_bytes_->inc(file_bytes);
  const auto deadline = budget_deadline();
  const std::size_t stripe_data = code_->k() * block_bytes_;
  const std::size_t stripes =
      std::max<std::size_t>(1, (file_bytes + stripe_data - 1) / stripe_data);

  HedgePolicy hedge;
  {
    util::MutexLock lock(mu_);
    hedge = hedge_;
  }
  // A hedge needs a parity block to stand in for the slot; with p == n
  // every block carries data and there is no candidate to race.
  std::optional<std::chrono::milliseconds> hedge_after;
  if (hedge.enabled && code_->p() < code_->n())
    hedge_after = hedge_budget(hedge);

  std::vector<Byte> out(stripes * stripe_data);
  for (std::size_t s = 0; s < stripes; ++s) {
    check_budget(deadline, budget_exhausted_, "read_file");
    read_stripe(file_id, static_cast<std::uint32_t>(s),
                {out.data() + s * stripe_data, stripe_data}, hedge_after,
                deadline);
  }
  out.resize(file_bytes);
  return out;
}

void CarouselStore::read_stripe(
    std::uint32_t file_id, std::uint32_t stripe, std::span<Byte> dst,
    std::optional<std::chrono::milliseconds> hedge_after,
    std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  const std::size_t ub = block_bytes_ / code_->s();
  const std::size_t K = code_->data_units_per_block();
  const std::size_t p = code_->p();
  const std::size_t n = code_->n();
  const std::size_t extent = K * ub;
  constexpr std::size_t kPrimary = std::numeric_limits<std::size_t>::max();

  // Snapshot the slots' homes under mu_; all I/O below runs with no lock.
  // The snapshot may go stale mid-read (a concurrent re-home): that slot
  // surfaces as an erasure and fails over like any other.
  std::vector<Server*> homes(p);
  {
    util::MutexLock lock(mu_);
    for (std::size_t slot = 0; slot < p; ++slot)
      homes[slot] = servers_[home_of_locked(file_id, stripe,
                                            static_cast<std::uint32_t>(slot))]
                        .get();
  }
  // Parity candidates for stand-ins, consumed at most once per stripe so
  // the decode never sees two unit sets from the same block.
  std::vector<std::size_t> candidates;
  for (std::size_t c = p; c < n; ++c) candidates.push_back(c);

  // How each slot's data arrived: its verbatim extent, already in place in
  // dst, or a §VII parity stand-in's selection pattern.
  enum class Got { kNothing, kExtent, kStandIn };
  struct Slot {
    Got got = Got::kNothing;
    std::size_t outstanding = 0;  // exchanges in flight for it
    // Set by a failure a retry could cure (a stale connection, a timeout,
    // a checksum mismatch in flight): the request (kPrimary or the
    // stand-in's parity block) to repeat once through try_fetch.
    std::optional<std::size_t> retry;
    std::size_t stand_in_from = 0;
    std::unique_ptr<Byte[]> stand_in;  // stand_in_bytes(slot), uninitialized
  };
  std::vector<Slot> slots(p);
  auto settled = [&](std::size_t slot) {
    return slots[slot].got != Got::kNothing;
  };

  // One request in flight on a leased connection: a slot's primary
  // range-GET, or a stand-in PROJECT (a hedge when it races a primary).
  struct Exchange {
    std::size_t slot;
    std::size_t from;  // kPrimary or the stand-in's parity block
    bool hedge;
    Lease lease;
    Clock::time_point sent;
    std::unique_ptr<Byte[]> body;  // a stand-in's answer; a primary's is in dst
    bool done = false;
  };
  std::vector<Exchange> live;

  auto block_key = [&](std::size_t index) {
    return key(file_id, stripe, static_cast<std::uint32_t>(index));
  };
  auto projection = [&](std::size_t slot) {
    Client::Projection proj;
    for (std::size_t pos : code_->selection_pattern(slot))
      proj.push_back({{static_cast<std::uint32_t>(pos), Byte{1}}});
    return proj;
  };
  auto extent_of = [&](std::size_t slot) {
    return dst.subspan(slot * extent, extent);
  };
  // A stand-in's answer: the slot's selection pattern, k/p of a block.  The
  // receive overwrites every byte, so it is allocated uninitialized.
  auto stand_in_bytes = [&](std::size_t slot) {
    return code_->selection_pattern(slot).size() * ub;
  };
  auto send = [&](std::size_t slot, std::size_t from, bool hedge) {
    Server& srv = from == kPrimary
                      ? *homes[slot]
                      : home_server(file_id, stripe,
                                    static_cast<std::uint32_t>(from));
    Exchange ex{slot, from, hedge, Lease(srv, policy_, registry_),
                Clock::now(), {}, false};
    try {
      if (from == kPrimary) {
        range_gets_->inc();
        ex.lease->send_get_range(block_key(slot), 0,
                                 static_cast<std::uint32_t>(extent));
      } else {
        ex.body = std::make_unique_for_overwrite<Byte[]>(stand_in_bytes(slot));
        ex.lease->send_project(block_key(from), static_cast<std::uint32_t>(ub),
                               projection(slot));
      }
    } catch (const TransportError&) {
      if (!hedge) slots[slot].retry = from;
      return;
    } catch (const BadRequestError&) {
      throw;  // a malformed frame is a local bug, not a dead server
    } catch (const Error&) {
      return;
    }
    ++slots[slot].outstanding;
    live.push_back(std::move(ex));
  };
  // Closes an exchange without reading its answer; false when it was
  // already done.
  auto close = [&](Exchange& ex, bool timed_out) {
    if (ex.done) return false;
    ex.done = true;
    --slots[ex.slot].outstanding;
    ex.lease->abandon(timed_out);
    return true;
  };
  auto receive = [&](Exchange& ex) {
    ex.done = true;
    Slot& sl = slots[ex.slot];
    --sl.outstanding;
    const bool primary = ex.from == kPrimary;
    bool found = false;
    try {
      found = ex.lease->receive_into(
          primary ? extent_of(ex.slot)
                  : std::span<Byte>(ex.body.get(), stand_in_bytes(ex.slot)));
      if (primary)
        range_get_seconds_->observe(
            std::chrono::duration<double>(Clock::now() - ex.sent).count());
    } catch (const TransportError&) {
      if (!ex.hedge) sl.retry = ex.from;
      return;
    } catch (const BadRequestError&) {
      throw;
    } catch (const Error&) {
      return;  // missing, corrupt at rest or refused: an erasure
    }
    if (!found) return;
    if (primary) {
      sl.got = Got::kExtent;
    } else {
      sl.got = Got::kStandIn;
      sl.stand_in_from = ex.from;
      sl.stand_in = std::move(ex.body);
      if (ex.hedge) hedge_wins_->inc();
    }
    sl.retry.reset();
    // First answer wins: the slot's other exchange is closed, not drained.
    for (Exchange& other : live)
      if (other.slot == ex.slot) close(other, false);
  };

  // Waits with poll on every exchange in flight until each has answered,
  // failed or run out of time (its io_timeout, or the op budget).  With
  // `hedge_at` set, every slot whose primary is still out at that time
  // gets a speculative stand-in racing it.
  const auto io_timeout = policy_.io_timeout;
  auto expiry = [&](const Exchange& ex) {
    return io_timeout.count() > 0 ? std::min(ex.sent + io_timeout, deadline)
                                  : deadline;
  };
  auto wait = [&](std::optional<Clock::time_point> hedge_at) {
    std::vector<pollfd> fds;
    std::vector<Exchange*> polled;
    for (;;) {
      const auto now = Clock::now();
      if (hedge_at && now >= *hedge_at) {
        hedge_at.reset();
        for (std::size_t slot = 0; slot < p && !candidates.empty(); ++slot) {
          if (settled(slot) || slots[slot].outstanding == 0) continue;
          const std::size_t cand = candidates.front();
          candidates.erase(candidates.begin());
          hedged_reads_->inc();
          send(slot, cand, true);
        }
      }
      fds.clear();
      polled.clear();
      auto wake = hedge_at.value_or(Clock::time_point::max());
      for (Exchange& ex : live) {
        if (ex.done) continue;
        if (now >= expiry(ex)) {
          const bool timed_out = now < deadline;
          if (close(ex, timed_out) && timed_out && !ex.hedge)
            slots[ex.slot].retry = ex.from;
          continue;
        }
        wake = std::min(wake, expiry(ex));
        fds.push_back({ex.lease->fd(), POLLIN, 0});
        polled.push_back(&ex);
      }
      if (polled.empty()) break;
      int timeout_ms = -1;
      if (wake != Clock::time_point::max())
        timeout_ms = static_cast<int>(std::min<std::int64_t>(
            std::chrono::ceil<std::chrono::milliseconds>(wake - now).count(),
            std::numeric_limits<int>::max()));
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR)
        throw TransportError(std::string("poll: ") + std::strerror(errno));
      for (std::size_t i = 0; i < polled.size(); ++i)
        if (fds[i].revents != 0 && !polled[i]->done) receive(*polled[i]);
    }
    live.clear();
  };
  // Repeats every retryable failure once through try_fetch; a slot still
  // without data after that is an erasure.
  auto retry = [&] {
    for (std::size_t slot = 0; slot < p; ++slot) {
      Slot& sl = slots[slot];
      if (settled(slot) || !sl.retry) continue;
      const std::size_t from = *sl.retry;
      sl.retry.reset();
      check_budget(deadline, budget_exhausted_, "read_file");
      if (from == kPrimary) {
        range_gets_->inc();
        if (try_fetch(*homes[slot], [&](Client& c) {
              c.count_retry();
              const auto start = Clock::now();
              const bool found =
                  c.get_range(block_key(slot), 0, extent_of(slot));
              range_get_seconds_->observe(
                  std::chrono::duration<double>(Clock::now() - start).count());
              return found;
            }))
          sl.got = Got::kExtent;
        continue;
      }
      const auto proj = projection(slot);
      Server& srv =
          home_server(file_id, stripe, static_cast<std::uint32_t>(from));
      auto body = std::make_unique_for_overwrite<Byte[]>(stand_in_bytes(slot));
      if (try_fetch(srv, [&](Client& c) {
            c.count_retry();
            return c.project(block_key(from), static_cast<std::uint32_t>(ub),
                             proj, {body.get(), stand_in_bytes(slot)});
          })) {
        sl.stand_in = std::move(body);
        sl.got = Got::kStandIn;
        sl.stand_in_from = from;
      }
    }
  };
  auto unsettled = [&] {
    std::vector<std::size_t> out;
    for (std::size_t slot = 0; slot < p; ++slot)
      if (!settled(slot)) out.push_back(slot);
    return out;
  };

  // Parallel read: all p range-GETs in flight at once, one original-data
  // extent per data-carrying block, each landing in its place in dst.
  for (std::size_t slot = 0; slot < p; ++slot) send(slot, kPrimary, false);
  std::optional<Clock::time_point> hedge_at;
  if (hedge_after) hedge_at = std::min(Clock::now() + *hedge_after, deadline);
  wait(hedge_at);
  retry();
  std::vector<std::size_t> failed = unsettled();
  const bool any_stand_in =
      std::any_of(slots.begin(), slots.end(),
                  [](const Slot& sl) { return sl.got == Got::kStandIn; });
  if (failed.empty() && !any_stand_in) return;

  // §VII degraded read: parity blocks stand in for unreadable slots, each
  // serving that slot's selection pattern (k/p of a block over the wire),
  // every remaining slot's stand-in in flight at once per round.
  degraded_reads_->inc();
  while (!failed.empty() && !candidates.empty()) {
    check_budget(deadline, budget_exhausted_, "read_file");
    const std::size_t launch = std::min(failed.size(), candidates.size());
    for (std::size_t j = 0; j < launch; ++j)
      send(failed[j], candidates[j], false);
    candidates.erase(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(launch));
    wait(std::nullopt);
    retry();
    failed = unsettled();
  }

  if (failed.empty()) {
    // In place: the extents already sit at their output positions, so the
    // decode only solves the stand-in slots' units.
    std::vector<codes::UnitRef> units;
    units.reserve(code_->message_units());
    for (std::size_t slot = 0; slot < p; ++slot) {
      if (slots[slot].got == Got::kExtent) {
        for (std::size_t t = 0; t < K; ++t)
          units.push_back({slot, t, dst.data() + slot * extent + t * ub});
        continue;
      }
      const auto pattern = code_->selection_pattern(slot);
      for (std::size_t j = 0; j < pattern.size(); ++j)
        units.push_back({slots[slot].stand_in_from, pattern[j],
                         slots[slot].stand_in.get() + j * ub});
    }
    code_->decode_units(units, ub, dst);
    return;
  }

  // Last resort: any-k whole-block MDS decode.
  decode_fallbacks_->inc();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  AnyK got = fetch_any_k(file_id, stripe, order, deadline, "read_file");
  if (got.ids.size() < code_->k())
    throw std::runtime_error("stripe unrecoverable: fewer than k blocks");
  std::vector<std::span<const Byte>> views;
  for (const auto& b : got.blocks) views.emplace_back(b);
  code_->decode(got.ids, views, dst);
}

bool CarouselStore::try_fetch(
    Server& srv, const std::function<bool(Client&)>& op) const {
  try {
    Lease c(srv, policy_, registry_);
    return op(*c);
  } catch (const BadRequestError&) {
    throw;  // a malformed frame is a local bug, not a dead server
  } catch (const Error&) {
    return false;  // an erasure, not an error
  }
}

CarouselStore::AnyK CarouselStore::fetch_any_k(
    std::uint32_t file_id, std::uint32_t stripe,
    const std::vector<std::size_t>& order,
    std::chrono::steady_clock::time_point deadline, const char* what,
    const std::function<void(std::size_t)>& on_block) {
  AnyK got;
  for (std::size_t i : order) {
    if (got.ids.size() >= code_->k()) break;
    check_budget(deadline, budget_exhausted_, what);
    const auto i32 = static_cast<std::uint32_t>(i);
    std::optional<std::vector<Byte>> b;
    if (!try_fetch(home_server(file_id, stripe, i32), [&](Client& c) {
          b = c.get(key(file_id, stripe, i32));
          return b.has_value();
        }) ||
        !b || b->size() != block_bytes_)
      continue;
    if (on_block) on_block(i);
    got.ids.push_back(i);
    got.blocks.push_back(std::move(*b));
  }
  return got;
}

bool CarouselStore::drop_block(std::uint32_t file_id, std::uint32_t stripe,
                               std::uint32_t index) {
  Lease c = lease_for(file_id, stripe, index);
  return c->remove(key(file_id, stripe, index));
}

BlockState CarouselStore::verify_block(std::uint32_t file_id,
                                       std::uint32_t stripe,
                                       std::uint32_t index) {
  try {
    Lease c = lease_for(file_id, stripe, index);
    switch (c->verify(key(file_id, stripe, index))) {
      case BlockHealth::kOk:
        return BlockState::kOk;
      case BlockHealth::kMissing:
        return BlockState::kMissing;
      case BlockHealth::kCorrupt:
        return BlockState::kCorrupt;
    }
  } catch (const Error&) {
  }
  return BlockState::kUnreachable;
}

std::uint64_t CarouselStore::repair_block(std::uint32_t file_id,
                                          std::uint32_t stripe,
                                          std::uint32_t index) {
  return repair_block_impl(file_id, stripe, index, std::nullopt,
                           budget_deadline());
}

std::uint64_t CarouselStore::rehome_block(std::uint32_t file_id,
                                          std::uint32_t stripe,
                                          std::uint32_t index) {
  auto candidates = placement_candidates(file_id, stripe, index);
  if (candidates.empty()) {
    rehome_failures_->inc();
    throw RehomeError(
        "rehome impossible: no placement-eligible server within the "
        "per-domain n-k cap (register a spare with add_server)");
  }
  try {
    std::uint64_t fetched = repair_block_impl(
        file_id, stripe, index, candidates.front(), budget_deadline());
    rehomes_->inc();
    rehome_bytes_read_->inc(fetched);
    return fetched;
  } catch (const std::exception&) {
    rehome_failures_->inc();
    throw;
  }
}

CarouselStore::RehomeReport CarouselStore::rehome_server(
    std::size_t server_id) {
  RehomeReport report;
  std::vector<BlockRef> victims;
  {
    util::MutexLock lock(mu_);
    // Collect first: rehoming rewrites the placement rows being iterated.
    victims = blocks_on_locked(server_id);
    if (scheduler_ != nullptr) {
      // Healing becomes the scheduler's job: one kRehome item per victim,
      // prioritized by how many blocks the stripe just lost on this server.
      // enqueue() touches only scheduler state, so calling it under mu_
      // respects the store -> scheduler lock order.
      std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> losses;
      for (const BlockRef& b : victims) ++losses[{b.file, b.stripe}];
      for (const BlockRef& b : victims)
        scheduler_->enqueue(b, RepairScheduler::Kind::kRehome,
                            losses[{b.file, b.stripe}], server_id);
      report.enqueued = victims.size();
      return report;
    }
  }
  // Inline heals run with no store lock held, like any other repair.
  for (const BlockRef& b : victims) {
    try {
      report.bytes_read += rehome_block(b.file, b.stripe, b.index);
      ++report.rehomed;
    } catch (const std::exception&) {
      ++report.failed;
    }
  }
  return report;
}

void CarouselStore::attach_scheduler(RepairScheduler* scheduler) {
  util::MutexLock lock(mu_);
  scheduler_ = scheduler;
}

std::vector<std::size_t> CarouselStore::choose_helpers(
    std::uint32_t file_id, std::uint32_t stripe,
    const std::vector<std::size_t>& survivors, std::size_t want,
    std::size_t bytes_per_helper) const {
  util::MutexLock lock(mu_);
  if (scheduler_ == nullptr)
    return {survivors.begin(),
            survivors.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(want, survivors.size()))};
  std::vector<HelperCandidate> candidates;
  candidates.reserve(survivors.size());
  for (std::size_t h : survivors)
    candidates.push_back(
        {h, home_of_locked(file_id, stripe, static_cast<std::uint32_t>(h))});
  return scheduler_->select_helpers(candidates, want, bytes_per_helper);
}

std::uint64_t CarouselStore::repair_block_impl(
    std::uint32_t file_id, std::uint32_t stripe, std::uint32_t index,
    std::optional<std::size_t> target,
    std::chrono::steady_clock::time_point deadline) {
  obs::ScopedTimer timer(*repair_seconds_);
  const std::size_t ub = block_bytes_ / code_->s();
  std::uint64_t fetched = 0;

  // Probe which survivors hold a *healthy* copy (VERIFY: corruption-aware
  // and no block bytes move), so the path choice never wastes helper chunks
  // on a block that cannot serve.
  std::vector<std::size_t> survivors;
  for (std::size_t h = 0; h < code_->n(); ++h) {
    if (h == index) continue;
    check_budget(deadline, budget_exhausted_, "repair_block");
    try {
      Lease c = lease_for(file_id, stripe, static_cast<std::uint32_t>(h));
      if (c->verify(key(file_id, stripe, static_cast<std::uint32_t>(h))) ==
          BlockHealth::kOk)
        survivors.push_back(h);
    } catch (const Error&) {
      // unreachable: not a survivor
    }
  }

  // Every byte of the rebuilt block is written by the newcomer or the
  // whole-block fallback, so it starts uninitialized.
  const auto rebuilt_store = std::make_unique_for_overwrite<Byte[]>(block_bytes_);
  const std::span<Byte> rebuilt(rebuilt_store.get(), block_bytes_);
  bool have_block = false;

  if (!code_->params().trivial_repair() && survivors.size() >= code_->d()) {
    // Optimal-traffic repair: helpers project phi server-side.  A helper
    // dying mid-repair abandons this path (its traffic still counts) and
    // drops through to the whole-block decode below.  An attached scheduler
    // spreads this fan-in over the least-loaded survivors instead of always
    // the first d.
    std::vector<std::size_t> helpers = choose_helpers(
        file_id, stripe, survivors, code_->d(),
        block_bytes_ / code_->params().alpha());
    // The d chunks land side by side in one uninitialized slab.
    const std::size_t chunk_bytes = code_->helper_chunk_units() * ub;
    const auto slab =
        std::make_unique_for_overwrite<Byte[]>(helpers.size() * chunk_bytes);
    std::vector<std::span<const Byte>> chunks;
    bool complete = true;
    for (std::size_t h : helpers) {
      check_budget(deadline, budget_exhausted_, "repair_block");
      auto proj = code_->repair_projection(h, index);
      Client::Projection wire;
      for (const auto& terms : proj) {
        wire.emplace_back();
        for (auto [pos, coeff] : terms)
          wire.back().push_back({static_cast<std::uint32_t>(pos), coeff});
      }
      const auto h32 = static_cast<std::uint32_t>(h);
      const std::span<Byte> chunk(slab.get() + chunks.size() * chunk_bytes,
                                  chunk_bytes);
      if (!try_fetch(home_server(file_id, stripe, h32), [&](Client& c) {
            return c.project(key(file_id, stripe, h32),
                             static_cast<std::uint32_t>(ub), wire, chunk);
          })) {
        complete = false;
        break;
      }
      fetched += chunk_bytes;
      observe_traffic(placement_of(file_id, stripe, h32), chunk_bytes, 0);
      chunks.emplace_back(chunk);
    }
    if (complete) {
      code_->newcomer_compute(index, helpers, chunks, rebuilt);
      have_block = true;
    }
  }

  if (!have_block) {
    // Whole-block fallback (d == k, fewer than d survivors, or a helper
    // died mid-MSR-repair): any k healthy blocks decode the stripe's view
    // of the failed block.  Source order: the verified survivors first (in
    // an attached scheduler's least-loaded order, so whole-block sources
    // also spread over the fleet), then every other index ascending as a
    // stale-probe hedge.
    std::vector<std::size_t> order =
        choose_helpers(file_id, stripe, survivors, code_->k(), block_bytes_);
    const std::set<std::size_t> chosen(order.begin(), order.end());
    for (std::size_t h = 0; h < code_->n(); ++h)
      if (h != index && !chosen.contains(h)) order.push_back(h);
    AnyK got = fetch_any_k(
        file_id, stripe, order, deadline, "repair_block", [&](std::size_t h) {
          fetched += block_bytes_;
          observe_traffic(
              placement_of(file_id, stripe, static_cast<std::uint32_t>(h)),
              block_bytes_, 0);
        });
    if (got.ids.size() < code_->k())
      throw std::runtime_error("repair impossible: fewer than k blocks");
    std::vector<codes::UnitRef> sources;
    for (std::size_t j = 0; j < got.ids.size(); ++j)
      for (std::size_t t = 0; t < code_->s(); ++t)
        sources.push_back({got.ids[j], t, got.blocks[j].data() + t * ub});
    code_->project_units(sources, ub, index, rebuilt);
  }

  // Re-upload and audit: PUT carries the block's CRC end to end, and VERIFY
  // confirms the server now holds a copy whose CRC is the one PUT sent.  The
  // intended home goes first; if it is dead (or fails its audit), the block
  // re-homes onto a placement-eligible candidate — the placement table only
  // moves once a candidate passes the audit, so a failure here leaves the
  // stripe exactly as it was (the block stays an erasure, never a silent
  // partial write).  PUT and the audit share one lease so the VERIFY sees
  // the same connection's view.
  const std::size_t home = placement_of(file_id, stripe, index);
  std::vector<std::size_t> uploads{target.value_or(home)};
  for (std::size_t c : placement_candidates(file_id, stripe, index))
    if (c != uploads.front()) uploads.push_back(c);
  for (std::size_t t : uploads) {
    check_budget(deadline, budget_exhausted_, "repair_block");
    if (t != home && meta_) {
      // WAL intent before any byte lands on t: replay then knows a copy of
      // this block may exist there, and reconcile() can adopt or delete it
      // after a crash between this upload and the placement flip.
      util::MutexLock mlock(meta_mu_);
      meta_->rehome_intent(file_id, stripe, index,
                           static_cast<std::uint32_t>(t));
    }
    try {
      Lease c = lease(t);
      const std::uint32_t sent_crc =
          c->put(key(file_id, stripe, index), rebuilt);
      std::uint32_t stored_crc = 0;
      if (c->verify(key(file_id, stripe, index), &stored_crc) !=
              BlockHealth::kOk ||
          stored_crc != sent_crc)
        throw Error("repaired block failed its post-repair audit");
    } catch (const BadRequestError&) {
      if (t != home && meta_) {
        util::MutexLock mlock(meta_mu_);
        meta_->rehome_abort(file_id, stripe, index);
      }
      throw;  // a malformed frame is a local bug on any target
    } catch (const Error&) {
      if (t != home && meta_) {
        util::MutexLock mlock(meta_mu_);
        meta_->rehome_abort(file_id, stripe, index);
      }
      continue;  // this home is dead or lying: try the next candidate
    }
    if (t != home) {
      // Commit the move atomically with a re-check of the invariant: a
      // concurrent heal of a sibling block may have filled t's domain
      // since the candidate walk.  Losing the race just moves on to the
      // next candidate — the stray copy on t is garbage, not a placement.
      // meta_mu_ spans the re-check, the WAL commit and the in-memory flip;
      // every placement mutation holds it across its own window, so the
      // check cannot be invalidated between the append and the flip even
      // though mu_ is released around the (local) journal fsync.
      util::MutexLock mlock(meta_mu_);
      bool fits = false;
      {
        util::MutexLock lock(mu_);
        fits = domain_fits_locked(t, file_id, stripe, index);
      }
      if (!fits) {
        if (meta_) meta_->rehome_abort(file_id, stripe, index);
        continue;
      }
      if (meta_)
        meta_->rehome_commit(file_id, stripe, index,
                             static_cast<std::uint32_t>(t));
      util::MutexLock lock(mu_);
      set_placement_locked(file_id, stripe, index, t);
    }
    observe_traffic(t, 0, rebuilt.size());
    repairs_->inc();
    repair_bytes_read_->inc(fetched);
    return fetched;
  }
  throw RehomeError(
      "rebuilt block has no reachable home: its server and every "
      "placement-eligible candidate failed the re-upload or its audit");
}

MetaLog::ReplayReport CarouselStore::meta_replay_report() const {
  util::MutexLock mlock(meta_mu_);
  return meta_ ? meta_->replay_report() : MetaLog::ReplayReport{};
}

void CarouselStore::set_meta_crash_point(MetaCrashPoint point,
                                         std::uint64_t countdown) {
  util::MutexLock mlock(meta_mu_);
  if (meta_) meta_->arm_crash(point, countdown);
}

CarouselStore::ReconcileReport CarouselStore::reconcile() {
  ReconcileReport report;
  std::vector<std::pair<std::uint32_t, MetaLog::FileRecord>> puts;
  std::vector<MetaLog::RehomeIntent> rehomes;
  {
    util::MutexLock mlock(meta_mu_);
    if (!meta_ || (recovered_puts_.empty() && recovered_rehomes_.empty()))
      return report;
    puts.swap(recovered_puts_);
    rehomes.swap(recovered_rehomes_);
  }
  report.pending_puts = puts.size();
  report.pending_rehomes = rehomes.size();

  enum class BlockState { kHealthy, kAbsent, kUnreachable };
  // Probes whether (file, stripe, index) holds a healthy block on `sid`.
  // kUnreachable means "could not tell" — reconciliation then keeps the
  // conservative choice (abort a put, leave a rehome unadopted) rather than
  // guessing about bytes it cannot see.
  auto probe = [this](std::size_t sid, std::uint32_t f, std::uint32_t s,
                      std::uint32_t i) {
    if (sid >= server_count()) return BlockState::kAbsent;
    try {
      Lease c = lease(sid);
      return c->verify(key(f, s, i)) == BlockHealth::kOk
                 ? BlockState::kHealthy
                 : BlockState::kAbsent;
    } catch (const Error&) {
      return BlockState::kUnreachable;
    }
  };
  // Deletes the copy of (f, s, i) on `sid` if one landed there; counts it
  // as an orphan removal only when a block was actually present.
  auto scrub_copy = [this, &report](std::size_t sid, std::uint32_t f,
                                    std::uint32_t s, std::uint32_t i) {
    if (sid >= server_count()) return;
    try {
      Lease c = lease(sid);
      if (c->remove(key(f, s, i))) ++report.orphans_deleted;
    } catch (const Error&) {
      // Unreachable server: the orphan stays until a later scrub pass.
    }
  };

  for (auto& [file, rec] : puts) {
    bool adoptable = rec.placement.size() == rec.stripes;
    for (std::size_t s = 0; adoptable && s < rec.placement.size(); ++s) {
      const auto& row = rec.placement[s];
      if (row.size() != code_->n()) {
        adoptable = false;
        break;
      }
      for (std::size_t i = 0; adoptable && i < row.size(); ++i)
        if (probe(row[i], file, static_cast<std::uint32_t>(s),
                  static_cast<std::uint32_t>(i)) != BlockState::kHealthy)
          adoptable = false;
    }
    if (adoptable) {
      // Re-check the rack invariant against the live fleet before adopting:
      // the intent predates the crash and the fleet may have changed shape.
      util::MutexLock lock(mu_);
      for (const auto& row : rec.placement)
        adoptable = adoptable && row_fits_fleet_locked(row);
    }
    util::MutexLock mlock(meta_mu_);
    if (adoptable) {
      meta_->put_commit(file);
      util::MutexLock lock(mu_);
      manifest_[file] =
          FileInfo{static_cast<std::size_t>(rec.file_bytes),
                   rec.stripes, std::move(rec.placement)};
      ++report.puts_adopted;
    } else {
      for (std::size_t s = 0; s < rec.placement.size(); ++s)
        for (std::size_t i = 0; i < rec.placement[s].size(); ++i)
          scrub_copy(rec.placement[s][i], file, static_cast<std::uint32_t>(s),
                     static_cast<std::uint32_t>(i));
      meta_->put_abort(file);
      ++report.puts_aborted;
    }
  }

  for (const auto& rh : rehomes) {
    std::uint32_t current = 0;
    bool known = false;
    {
      util::MutexLock lock(mu_);
      auto it = manifest_.find(rh.file);
      if (it != manifest_.end() && rh.stripe < it->second.placement.size() &&
          rh.index < it->second.placement[rh.stripe].size()) {
        current = it->second.placement[rh.stripe][rh.index];
        known = true;
      }
    }
    if (!known || rh.target == current || rh.target >= server_count()) {
      // Unknown file (its put never committed), a no-op flip, or a target
      // that no longer exists: drop the intent.  The stray copy is only
      // deleted when the target is a real server that is not the block's
      // current home.
      if (known && rh.target != current)
        scrub_copy(rh.target, rh.file, rh.stripe, rh.index);
      util::MutexLock mlock(meta_mu_);
      meta_->rehome_abort(rh.file, rh.stripe, rh.index);
      ++report.rehomes_aborted;
      continue;
    }
    bool target_ok =
        probe(rh.target, rh.file, rh.stripe, rh.index) == BlockState::kHealthy;
    bool home_ok =
        probe(current, rh.file, rh.stripe, rh.index) == BlockState::kHealthy;
    // Adopt only when the move is both complete (target verifies) and still
    // necessary (the old home does not) — otherwise the pre-crash placement
    // is intact and the target copy is garbage.
    util::MutexLock mlock(meta_mu_);
    bool fits = false;
    if (target_ok && !home_ok) {
      util::MutexLock lock(mu_);
      fits = domain_fits_locked(rh.target, rh.file, rh.stripe, rh.index);
    }
    if (target_ok && !home_ok && fits) {
      meta_->rehome_commit(rh.file, rh.stripe, rh.index, rh.target);
      util::MutexLock lock(mu_);
      set_placement_locked(rh.file, rh.stripe, rh.index, rh.target);
      ++report.rehomes_adopted;
    } else {
      scrub_copy(rh.target, rh.file, rh.stripe, rh.index);
      meta_->rehome_abort(rh.file, rh.stripe, rh.index);
      ++report.rehomes_aborted;
    }
  }

  util::MutexLock mlock(meta_mu_);
  meta_->metric("reconciles_total").inc();
  meta_->metric("orphans_deleted_total").inc(report.orphans_deleted);
  meta_->metric("puts_adopted_total").inc(report.puts_adopted);
  meta_->metric("rehomes_adopted_total").inc(report.rehomes_adopted);
  return report;
}

std::map<std::uint32_t, CarouselStore::FileInfo> CarouselStore::files() const {
  util::MutexLock lock(mu_);
  return manifest_;
}

std::uint64_t CarouselStore::bytes_received() const {
  util::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& s : servers_) {
    util::MutexLock pool_lock(s->pool_mu);
    total += s->retired_bytes;
    for (const auto& c : s->idle) total += c->bytes_received();
  }
  return total;
}

Client::Counters CarouselStore::counters() const {
  util::MutexLock lock(mu_);
  Client::Counters total;
  for (const auto& s : servers_) {
    util::MutexLock pool_lock(s->pool_mu);
    total += s->retired;
    for (const auto& c : s->idle) total += c->counters();
  }
  return total;
}

}  // namespace carousel::net
