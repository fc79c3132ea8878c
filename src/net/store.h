// CarouselStore: the coordinator of the networked prototype.
//
// Stripes files across a fleet of block servers with a Carousel code and
// implements the paper's three data paths against real sockets:
//   - parallel read: all p original-data extents of a stripe are fetched
//     concurrently — the calling thread sends one GET_RANGE per
//     data-carrying block on leased connections, waits on them with poll,
//     and receives each answer straight into its place in the output;
//   - degraded read (§VII): parity stand-ins serve the missing slots'
//     selection patterns via PROJECT, k/p of a block each, in flight at
//     once for every failed slot, decoded in place over the extents already
//     in the output;
//   - repair: helpers run their phi-projections server-side (PROJECT), only
//     the chunks travel, the newcomer combines and re-PUTs — so the bytes on
//     the wire are exactly Fig. 7's d/(d-k+1) block sizes.
//
// Hedged reads: with StoreOptions::hedge enabled, a slot whose range-GET has
// not answered within a latency budget (a quantile of the store's own
// carousel_store_range_get_seconds histogram, floored by HedgePolicy::floor)
// gets a speculative §VII stand-in racing its primary.  Whichever answers
// first wins; the loser's connection is closed, not drained, so its answer
// is never decoded and never left half-read on a socket another request
// could pick up.  The race is
// counted by carousel_store_hedged_reads_total / carousel_store_hedge_wins_
// total (minted through one helper; check_invariants rule 7).
//
// Locking discipline: mu_ guards only in-memory lookups and mutations — the
// manifest/placement tables, the servers_ vector, and the attached
// scheduler.  It is NEVER held across network I/O.  Every wire
// operation leases a connection from a per-server client pool (Server::idle,
// guarded by the per-server pool_mu) and runs lock-free, so concurrent
// read_file calls — and a background Scrubber or RepairScheduler healing
// while a foreground reader streams — proceed in parallel.  Lock order is
// mu_ -> pool_mu, both leaf-held for pointer swaps only; a read takes
// pool_mu alone to lease.  The placement snapshot a read takes under mu_
// may go stale mid-read (a concurrent re-home): the affected block simply
// surfaces as an erasure and fails over like any other.
//
// Placement is explicit: every file's manifest entry carries a per-stripe
// placement table mapping block index -> server id.  put_file seeds it with
// the paper's rule (block i of every stripe on server i mod base fleet), but
// the table is the truth from then on — add_server() registers spare
// servers at runtime, and rehome_block()/rehome_server() drive the MSR
// repair path with the rebuilt block re-uploaded to a *new* home (still
// d/(d-k+1) block sizes of helper traffic) when a home server dies for
// good.  This is the regenerate-onto-a-newcomer maintenance loop of
// Dimakis et al.; the HealthMonitor (net/cluster.h) decides *when* a server
// is dead, the Scrubber wires the two together.
//
// Failure domains: every server carries a domain label (a rack, a power
// feed).  The placement table is seeded and *maintained* under one hard
// invariant — no domain ever holds more than n-k blocks of a stripe — so a
// whole-domain outage never exceeds the code's erasure tolerance.  All
// placement mutations flow through the one domain-checked chooser
// (placement_candidates_locked) and the one row writer
// (set_placement_locked), which rejects a violating move with RehomeError
// rather than silently concentrating risk (check_invariants rule 9).  By
// default every server is its own domain, which makes the invariant the
// pre-existing one-block-per-server rule; passing StoreOptions::domains (or
// add_server(port, domain)) opts into shared domains, where a rehome may
// stack a second stripe block on a survivor as long as its *domain* stays
// within n-k — the domain, not the box, is the failure unit being priced.
//
// Failure model: a block that times out, arrives corrupt, or whose server is
// down is an *erasure*, not an error.  read_file re-plans the stripe onto
// the §VII pattern read or the any-k MDS decode and only throws when fewer
// than k blocks of a stripe are reachable.  repair_block degrades from the
// d-helper MSR path to the k-block decode when a helper dies mid-repair,
// audits the rebuilt block (VERIFY + CRC compare) before declaring success,
// and — when the re-upload target itself is dead — retries onto a
// placement-eligible spare or throws RehomeError with the stripe untouched.
// StoreOptions::op_budget bounds a whole read_file/repair_block call across
// every failover step (StoreDeadlineError), so a read limping across many
// sick servers fails fast instead of multiplying per-op timeouts.

#ifndef CAROUSEL_NET_STORE_H
#define CAROUSEL_NET_STORE_H

#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "codes/carousel.h"
#include "net/client.h"
#include "net/meta_log.h"
#include "util/sync.h"

namespace carousel::net {

class RepairScheduler;

/// Store-level view of one block's condition.
enum class BlockState { kOk, kMissing, kCorrupt, kUnreachable };

/// When and how read_file hedges a straggling range-GET with a speculative
/// §VII stand-in.  Disabled by default: hedging trades extra wire traffic
/// for tail latency, so it is an explicit opt-in.
struct HedgePolicy {
  bool enabled = false;
  /// The latency budget is this quantile of the store's own range-GET
  /// latency histogram (carousel_store_range_get_seconds).  Must lie in
  /// [0.5, 1.0): hedging below the median means racing most reads.
  double percentile = 0.95;
  /// The budget never drops below this, however fast the histogram says the
  /// fleet is — guards against hedging every read on a quiet loopback.
  std::chrono::milliseconds floor{5};
  /// Budget used until the histogram holds min_samples observations (a cold
  /// store has no quantile worth trusting).
  std::chrono::milliseconds initial{50};
  /// Must be > 0: a zero-sample quantile is undefined.
  std::uint64_t min_samples = 32;
};

struct StoreOptions {
  /// Applied to every server connection the store owns.
  RetryPolicy policy{};
  /// Registry for the store's own metrics and those of its clients; the
  /// process-global registry when null.  Tests pass a fresh registry to make
  /// exact assertions on repair traffic.
  obs::MetricsRegistry* registry = nullptr;
  /// Wall-clock budget for one whole read_file/repair_block/rehome call
  /// across every failover step (zero = unbounded).  Exceeding it throws
  /// StoreDeadlineError — the already-running client op still finishes, so
  /// the worst case is budget + one per-op deadline, never a sum of them.
  std::chrono::milliseconds op_budget{0};
  /// Hedged-read policy; see HedgePolicy.  Runtime-adjustable via
  /// set_hedge_policy().
  HedgePolicy hedge{};
  /// Failure-domain label per construction server (domains[i] labels
  /// ports[i]).  Empty = one domain per server (today's behavior).  When
  /// set it must match ports.size() and be satisfiable: the distinct
  /// domains D must give D*(n-k) >= n, or no placement can honor the
  /// per-domain invariant.
  std::vector<std::size_t> domains;
  /// When non-empty, every manifest mutation is journaled (write-ahead,
  /// CRC-per-record, fsynced) to this directory before it is published in
  /// memory, and constructing a store over an existing journal replays it
  /// — manifest, placement, spares and hedge policy survive a coordinator
  /// crash; the journal compacts into a snapshot every
  /// MetaLog::Options::snapshot_every records.  Empty keeps the
  /// pre-existing in-memory-only coordinator.
  std::filesystem::path meta_dir;
  /// fsync the metadata journal (shape kept, durability traded for test
  /// speed when off — mirrors PersistentBlockStore::Options::fsync).
  bool meta_fsync = true;
};

class CarouselStore {
 public:
  /// One server the store knows about.
  struct ServerEndpoint {
    std::size_t id = 0;
    std::uint16_t port = 0;
    /// Registered via add_server(): receives blocks only through re-homing,
    /// never through put_file's initial placement.
    bool spare = false;
    /// Failure domain (rack) this server belongs to; its own id when the
    /// store runs with default one-domain-per-server labels.
    std::size_t domain = 0;
  };

  /// Fully-qualified name of one block.
  struct BlockRef {
    std::uint32_t file = 0;
    std::uint32_t stripe = 0;
    std::uint32_t index = 0;
  };

  /// Outcome of rehome_server(): per-block successes and failures plus the
  /// helper traffic the successful heals cost.  With a RepairScheduler
  /// attached nothing heals inline — the victims are enqueued instead and
  /// only `enqueued` is set.
  struct RehomeReport {
    std::size_t rehomed = 0;
    std::size_t failed = 0;
    std::uint64_t bytes_read = 0;
    std::size_t enqueued = 0;
  };

  /// One eligible repair helper: a surviving block index and the server the
  /// placement table currently homes it on (what an attached
  /// RepairScheduler ranks helpers by).
  struct HelperCandidate {
    std::size_t index = 0;
    std::size_t server = 0;
  };

  /// Remembers the given servers (connections are lazy).  The code must
  /// outlive the store.  Requires at least one server; one block per server
  /// when ports.size() >= n (the paper's placement), round-robin otherwise.
  CarouselStore(const codes::Carousel& code,
                const std::vector<std::uint16_t>& ports,
                std::size_t block_bytes, StoreOptions options = {});
  ~CarouselStore();

  const codes::Carousel& code() const { return *code_; }
  std::size_t block_bytes() const { return block_bytes_; }

  /// The *initial* placement rule: which server put_file homes block
  /// `index` of a new stripe on.  Re-homed blocks move away from this —
  /// placement_of() is the per-block truth.
  std::size_t server_of(std::size_t index) const {
    return index % base_fleet_;
  }

  /// Registers a spare server at runtime and returns its id.  Spares take
  /// no new writes; they become block homes through rehome_block().  The
  /// no-domain overload gives the spare its own fresh domain; the labeled
  /// one joins it to an existing (or new) failure domain, and every
  /// placement move onto it then honors the per-domain <= n-k invariant.
  std::size_t add_server(std::uint16_t port) EXCLUDES(mu_);
  std::size_t add_server(std::uint16_t port, std::size_t domain)
      EXCLUDES(mu_);

  /// Failure-domain label of one server.  Throws std::out_of_range for ids
  /// the store never registered.
  std::size_t domain_of(std::size_t server_id) const EXCLUDES(mu_);

  /// The placement invariant's cap: no domain may hold more than this many
  /// blocks of one stripe (n-k, the code's erasure tolerance).
  std::size_t max_blocks_per_domain() const {
    return code_->n() - code_->k();
  }

  /// Every server this store knows, registration order (spares last).
  std::vector<ServerEndpoint> servers() const EXCLUDES(mu_);
  std::size_t server_count() const EXCLUDES(mu_);

  /// Which server currently hosts block (stripe, index) of `file_id`,
  /// according to the manifest's placement table.  Falls back to the
  /// initial rule for files this store never uploaded.
  std::size_t placement_of(std::uint32_t file_id, std::uint32_t stripe,
                           std::uint32_t index) const EXCLUDES(mu_);

  /// Every block the placement table homes on `server_id`.
  std::vector<BlockRef> blocks_on(std::size_t server_id) const EXCLUDES(mu_);

  /// Encodes and uploads; returns the stripe count and records the file in
  /// the manifest (what the scrubber sweeps) together with its placement
  /// table.
  std::size_t put_file(std::uint32_t file_id,
                       std::span<const codes::Byte> bytes) EXCLUDES(mu_);

  /// Downloads and reassembles the file (size from put_file's input).
  /// Chooses per stripe: parallel extents, §VII pattern reads, or whole-
  /// block MDS decode, depending on which blocks are healthy — dead servers,
  /// timeouts and corrupt blocks all count as erasures.  Thread-safe and
  /// genuinely concurrent: two calls overlap on the wire, and within one
  /// call all p extents of a stripe are in flight at once.
  std::vector<codes::Byte> read_file(std::uint32_t file_id,
                                     std::size_t file_bytes) EXCLUDES(mu_);

  /// Deletes one block replica on its server (failure injection).
  /// Returns false if it was already gone.
  bool drop_block(std::uint32_t file_id, std::uint32_t stripe,
                  std::uint32_t index);

  /// Rebuilds a lost or corrupt block and re-uploads it to its current
  /// home, then audits the stored copy (VERIFY) before returning.  Prefers
  /// the d-helper MSR path (d/(d-k+1) block sizes on the wire); falls back
  /// to the k-block decode when helpers are scarce or die mid-repair.  When
  /// the home server is unreachable the rebuilt block is re-homed onto a
  /// placement-eligible spare instead (RehomeError when none accepts it).
  /// Returns bytes fetched from helpers, including any wasted by an
  /// abandoned MSR attempt.
  std::uint64_t repair_block(std::uint32_t file_id, std::uint32_t stripe,
                             std::uint32_t index) EXCLUDES(mu_);

  /// Rebuilds one block and re-homes it onto a server that holds no other
  /// block of its stripe (spares first) — the newcomer loop for a dead home
  /// server.  Updates the placement table on success; throws RehomeError
  /// (stripe untouched) when no candidate accepts the block.  Returns the
  /// helper traffic, still d/(d-k+1) block sizes when d helpers survive.
  std::uint64_t rehome_block(std::uint32_t file_id, std::uint32_t stripe,
                             std::uint32_t index) EXCLUDES(mu_);

  /// Re-homes every block currently placed on `server_id` (a server the
  /// caller has declared dead).  Per-block failures are counted, not thrown.
  RehomeReport rehome_server(std::size_t server_id) EXCLUDES(mu_);

  /// Audits one block without transferring it.
  BlockState verify_block(std::uint32_t file_id, std::uint32_t stripe,
                          std::uint32_t index);

  /// Files this store has uploaded: id -> {bytes, stripes, placement}.
  struct FileInfo {
    std::size_t file_bytes = 0;
    std::size_t stripes = 0;
    /// placement[stripe][index] == server id hosting that block.
    std::vector<std::vector<std::uint32_t>> placement;
  };
  std::map<std::uint32_t, FileInfo> files() const EXCLUDES(mu_);

  /// Total bytes received from all servers (traffic accounting).  Counts
  /// idle pooled connections plus everything folded in from retired ones;
  /// a connection leased by an op in flight is counted once it returns.
  std::uint64_t bytes_received() const EXCLUDES(mu_);

  /// Aggregated failure-handling telemetry across every server connection
  /// (same in-flight caveat as bytes_received()).
  Client::Counters counters() const EXCLUDES(mu_);

  /// The registry this store (and its clients, and any Scrubber sweeping it)
  /// reports into — StoreOptions::registry, or the process-global one.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Replaces the hedged-read policy at runtime (benches toggle hedging on
  /// one fleet to measure its tail-latency win in isolation).
  void set_hedge_policy(HedgePolicy policy) EXCLUDES(mu_);
  HedgePolicy hedge_policy() const EXCLUDES(mu_);

  /// Attaches a RepairScheduler, which then owns three decisions:
  /// rehome_server() enqueues one kRehome item per victim block
  /// (criticality = per-stripe victim count) instead of healing inline;
  /// repairs fan into the helpers its select_helpers() ranks least charged;
  /// and every repair/rehome wire transfer is charged to its per-server
  /// budgets via observe_traffic().  Both calls run under this store's
  /// mutex (store -> scheduler lock order).  Pass nullptr to detach; the
  /// scheduler does both automatically over its lifetime.
  void attach_scheduler(RepairScheduler* scheduler) EXCLUDES(mu_);

  /// Outcome of one reconcile() pass over the intents a replay recovered.
  struct ReconcileReport {
    std::size_t pending_puts = 0;     // recovered put intents examined
    std::size_t pending_rehomes = 0;  // recovered rehome intents examined
    std::size_t puts_adopted = 0;     // every block verified -> committed
    std::size_t puts_aborted = 0;     // orphan blocks deleted, put dropped
    std::size_t rehomes_adopted = 0;  // target copy verified -> flipped
    std::size_t rehomes_aborted = 0;  // stray target copy deleted
    std::size_t orphans_deleted = 0;  // blocks removed from servers
  };

  /// Resolves the pending intents a crashed coordinator left behind (the
  /// journal replay recovers them; this probes the fleet).  A pending put
  /// whose every block VERIFYs intact is adopted into the manifest — the
  /// upload finished, only the commit record was lost; otherwise its
  /// already-landed blocks are deleted as orphans.  A pending rehome whose
  /// target copy is intact while the old home is not adopts the flip
  /// (domain invariant permitting); otherwise the stray target copy is
  /// deleted.  Either way the decision is journaled (commit/abort), so a
  /// crash *during* reconciliation just reconciles again.  Idempotent and
  /// cheap when nothing is pending — the Scrubber calls it every sweep.
  ReconcileReport reconcile() EXCLUDES(mu_);

  /// True when this store journals its metadata (StoreOptions::meta_dir).
  bool durable_meta() const { return meta_ != nullptr; }

  /// Replay outcome of the journal this store was opened over (zeroes for
  /// an in-memory store).
  MetaLog::ReplayReport meta_replay_report() const;

  /// Test hook: arms a one-shot simulated coordinator crash on the
  /// `countdown`-th journal append from now (1 = the next).  No-op for
  /// in-memory stores.
  void set_meta_crash_point(MetaCrashPoint point, std::uint64_t countdown = 1)
      EXCLUDES(mu_);

 private:
  /// One server plus its client pool.  Server objects are heap-allocated
  /// and live as long as the store, so a read may hold a Server* without
  /// mu_ — add_server() only ever appends to servers_.
  struct Server {
    std::uint16_t port = 0;
    bool spare = false;
    std::size_t domain = 0;  // fixed at registration, like port
    // Guards idle/retired; never held across I/O.  Ranked after the store's
    // mu_ because bytes_received()/counters() walk the pools under mu_.
    util::Mutex pool_mu{util::LockRank::kServerPool};
    std::vector<std::unique_ptr<Client>> idle GUARDED_BY(pool_mu);
    // Telemetry of discarded clients.
    Client::Counters retired GUARDED_BY(pool_mu){};
    // bytes_received of discarded clients.
    std::uint64_t retired_bytes GUARDED_BY(pool_mu) = 0;
  };

  /// Exclusive use of one connection to a server for one operation.  A
  /// Client is a single framed TCP stream and is not safe for interleaved
  /// requests, so every wire op takes a pooled client (or opens a fresh one
  /// when all are busy) — that is what lets two reads, or a read and a
  /// repair, talk to the same server concurrently.  Release closes the
  /// connection of a client whose answer is still pending (a hedge loser),
  /// so a pooled connection is never mid-frame.
  class Lease {
   public:
    Lease(Server& server, const RetryPolicy& policy,
          obs::MetricsRegistry* registry);
    ~Lease();
    Lease(Lease&& other) noexcept
        : server_(other.server_), client_(std::move(other.client_)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    Client* operator->() { return client_.get(); }
    Client& operator*() { return *client_; }

   private:
    Server* server_;
    std::unique_ptr<Client> client_;
  };

  std::size_t add_server_locked(std::uint16_t port, std::size_t domain,
                                bool labeled) REQUIRES(mu_);
  Server& server_at(std::size_t server_id) const
      EXCLUDES(mu_);  // takes mu_ briefly
  Server& home_server(std::uint32_t file_id, std::uint32_t stripe,
                      std::uint32_t index) const EXCLUDES(mu_) {
    return server_at(placement_of(file_id, stripe, index));
  }
  Lease lease(std::size_t server_id) const EXCLUDES(mu_);
  Lease lease_for(std::uint32_t file_id, std::uint32_t stripe,
                  std::uint32_t index) const EXCLUDES(mu_) {
    return lease(placement_of(file_id, stripe, index));
  }
  /// The erasure-tolerant call every fetch-ladder step makes: leases a
  /// connection to `srv` and returns op(client), which keeps what it
  /// fetched and says whether it was usable.  BadRequestError (a frame
  /// this store composed wrongly: a local bug) propagates; any other
  /// net::Error — a dead, slow or lying server — is an erasure and yields
  /// false.
  bool try_fetch(Server& srv, const std::function<bool(Client&)>& op) const;
  /// One stripe of read_file into `dst`: the p range-GETs pipelined from
  /// the calling thread (hedged past `hedge_after` when set), one retry
  /// through try_fetch for a failure a retry could cure, the §VII
  /// stand-in ladder for the rest with an in-place decode, and the any-k
  /// whole-block decode as the last resort.
  void read_stripe(std::uint32_t file_id, std::uint32_t stripe,
                   std::span<codes::Byte> dst,
                   std::optional<std::chrono::milliseconds> hedge_after,
                   std::chrono::steady_clock::time_point deadline)
      EXCLUDES(mu_);
  /// Whole blocks of one stripe, fetched in `order` until k full-size ones
  /// are in hand (the any-k MDS fallback of both the read and the repair
  /// path); `on_block(index)`, when set, runs as each one lands.  Checks
  /// the op budget before each GET; may return fewer than k when too few
  /// answer.
  struct AnyK {
    std::vector<std::size_t> ids;
    std::vector<std::vector<codes::Byte>> blocks;
  };
  AnyK fetch_any_k(
      std::uint32_t file_id, std::uint32_t stripe,
      const std::vector<std::size_t>& order,
      std::chrono::steady_clock::time_point deadline, const char* what,
      const std::function<void(std::size_t)>& on_block = nullptr);
  BlockKey key(std::uint32_t file, std::uint32_t stripe,
               std::uint32_t index) const {
    return BlockKey{file, stripe, index};
  }
  /// The one mint point for every carousel_store_hedge* series
  /// (check_invariants rule 7).
  obs::Counter& hedge_metric(const char* suffix);
  /// Current hedge latency budget: the policy quantile of the range-GET
  /// histogram, floored, or `initial` while samples are scarce.
  std::chrono::milliseconds hedge_budget(const HedgePolicy& policy) const;
  /// Charges repair wire traffic to the attached scheduler, if any.
  void observe_traffic(std::size_t server, std::uint64_t egress,
                       std::uint64_t ingress) EXCLUDES(mu_);
  std::size_t home_of_locked(std::uint32_t file_id, std::uint32_t stripe,
                             std::uint32_t index) const REQUIRES(mu_);
  std::vector<BlockRef> blocks_on_locked(std::size_t server_id) const
      REQUIRES(mu_);
  /// True when every id in one replayed or recovered placement row names a
  /// registered server and no domain holds more than n-k of the row.
  bool row_fits_fleet_locked(const std::vector<std::uint32_t>& row) const
      REQUIRES(mu_);
  /// True when homing block (stripe, index) on `server_id` keeps its
  /// domain's stripe-block count (excluding the block's own slot) under the
  /// <= n-k invariant.  The one predicate every placement mutation
  /// consults (check_invariants rule 9).
  bool domain_fits_locked(std::size_t server_id, std::uint32_t file_id,
                          std::uint32_t stripe, std::uint32_t index) const
      REQUIRES(mu_);
  /// The one domain-checked chooser: candidate new homes for
  /// (file, stripe, index), current home excluded, every tier filtered by
  /// domain_fits_locked.  Tier 0: spares holding no block of the stripe;
  /// tier 1: non-spares holding none (both ascending id).  Tier 2 — only
  /// for stores with explicit domains — servers already holding stripe
  /// blocks, least-loaded first, so a whole-rack loss can re-protect by
  /// stacking on survivors while their domains stay within the cap.  With a
  /// RepairScheduler attached, servers its HealthMonitor has declared dead
  /// are never candidates: a dead server's port, once free, may be bound by
  /// any other process, which would then be handed the block.
  std::vector<std::size_t> placement_candidates_locked(
      std::uint32_t file_id, std::uint32_t stripe, std::uint32_t index) const
      REQUIRES(mu_);
  std::vector<std::size_t> placement_candidates(std::uint32_t file_id,
                                                std::uint32_t stripe,
                                                std::uint32_t index) const
      EXCLUDES(mu_);
  /// Records block (stripe, index) of file as now living on `server_id`.
  /// Backstop for the invariant: throws RehomeError when the move would
  /// push server_id's domain past n-k blocks of the stripe.
  void set_placement_locked(std::uint32_t file_id, std::uint32_t stripe,
                            std::uint32_t index, std::size_t server_id)
      REQUIRES(mu_);
  /// Seeds a fresh file's placement table.  Default-domain stores use the
  /// paper's verbatim rule (block i -> server i mod base fleet); explicit-
  /// domain stores run a greedy rotation that degenerates to the same rule
  /// when domains permit and never seeds a domain past the n-k cap.
  std::vector<std::vector<std::uint32_t>> seed_placement(std::size_t stripes)
      const EXCLUDES(mu_);
  /// The repair engine.  Takes mu_ only for lookups and the final placement
  /// update — all probes, projections and uploads run on leased connections
  /// with no store lock held.
  std::uint64_t repair_block_impl(std::uint32_t file_id, std::uint32_t stripe,
                                  std::uint32_t index,
                                  std::optional<std::size_t> target,
                                  std::chrono::steady_clock::time_point
                                      budget_deadline) EXCLUDES(mu_);
  std::chrono::steady_clock::time_point budget_deadline() const;
  /// Survivor ordering for the repair fan-in: the attached scheduler's
  /// least-charged `want` survivors, or the first `want` without one.
  std::vector<std::size_t> choose_helpers(
      std::uint32_t file_id, std::uint32_t stripe,
      const std::vector<std::size_t>& survivors, std::size_t want,
      std::size_t bytes_per_helper) const EXCLUDES(mu_);

  /// Adopts the replayed journal state into the live tables (constructor
  /// only): registers journaled spares, validates every replayed placement
  /// against the fleet and the per-domain <= n-k invariant (violations
  /// throw MetaReplayError — a journal must not resurrect an illegal
  /// layout), restores the hedge policy, and stashes the pending intents
  /// for reconcile().
  void adopt_replayed_state() REQUIRES(meta_mu_) EXCLUDES(mu_);

  const codes::Carousel* code_;
  std::size_t block_bytes_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::chrono::milliseconds op_budget_{0};
  RetryPolicy policy_{};
  std::size_t base_fleet_ = 0;  // servers present at construction
  // Serializes every manifest mutation's [journal append -> in-memory
  // publish] window (LockRank::kMetaLog, acquired before mu_), which pins
  // WAL order == apply order.  Held across the journal's local append +
  // fsync — never across network I/O.  Mutation paths take it even on
  // in-memory stores so the serialization argument holds everywhere.
  mutable util::Mutex meta_mu_{util::LockRank::kMetaLog};
  // Set once in the constructor, never reseated; the MetaLog object's
  // internal state is guarded by meta_mu_ by convention (it carries no
  // annotations of its own).
  std::unique_ptr<MetaLog> meta_;
  // Intents recovered by the constructor's replay, consumed by reconcile().
  std::vector<std::pair<std::uint32_t, MetaLog::FileRecord>> recovered_puts_
      GUARDED_BY(meta_mu_);
  std::vector<MetaLog::RehomeIntent> recovered_rehomes_
      GUARDED_BY(meta_mu_);
  // Lookups/mutations only; NEVER held across I/O.  First acquired of the
  // store-side locks (LockRank::kStore), so it may nest the scheduler's
  // mutex and any Server::pool_mu, never the reverse.
  mutable util::Mutex mu_{util::LockRank::kStore};
  // The vector is guarded; the heap-allocated Servers it points at live as
  // long as the store, so a read may keep a Server* with no lock.
  std::vector<std::unique_ptr<Server>> servers_ GUARDED_BY(mu_);
  // True once any server carries a caller-chosen domain label (via
  // StoreOptions::domains or add_server(port, domain)).  Default stores
  // keep one-domain-per-server semantics, where tier-2 candidate stacking
  // stays off and behavior is bit-identical to the pre-domain store.
  bool explicit_domains_ GUARDED_BY(mu_) = false;
  std::map<std::uint32_t, FileInfo> manifest_ GUARDED_BY(mu_);
  // File ids with a put_file in flight: the duplicate-id check must also
  // catch two concurrent puts racing the same id, not only committed files.
  std::set<std::uint32_t> inflight_puts_ GUARDED_BY(mu_);
  HedgePolicy hedge_ GUARDED_BY(mu_);  // snapshotted per read
  // Called under mu_; its methods touch only scheduler state.
  RepairScheduler* scheduler_ GUARDED_BY(mu_) = nullptr;

  // Cached instruments (constructor-resolved from registry_).
  obs::Histogram* put_seconds_ = nullptr;
  obs::Histogram* read_seconds_ = nullptr;
  obs::Histogram* range_get_seconds_ = nullptr;
  obs::Histogram* repair_seconds_ = nullptr;
  obs::Counter* put_bytes_ = nullptr;
  obs::Counter* read_bytes_ = nullptr;
  obs::Counter* range_gets_ = nullptr;
  obs::Counter* hedged_reads_ = nullptr;
  obs::Counter* hedge_wins_ = nullptr;
  obs::Counter* repairs_ = nullptr;
  obs::Counter* repair_bytes_read_ = nullptr;
  obs::Counter* degraded_reads_ = nullptr;
  obs::Counter* decode_fallbacks_ = nullptr;
  obs::Counter* rehomes_ = nullptr;
  obs::Counter* rehome_failures_ = nullptr;
  obs::Counter* rehome_bytes_read_ = nullptr;
  obs::Counter* budget_exhausted_ = nullptr;
  obs::Gauge* spare_servers_ = nullptr;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_STORE_H
