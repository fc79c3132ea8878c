// The fleet, the three closed-loop workloads and the traced per-layer split.
//
// Every run builds the same durable fleet: 12 BlockServers with fsync on,
// a coordinator journaling its metadata with fsync on, and a base set of
// 32 one-stripe files generated from the seed.  A workload runs in rounds:
// a main phase (its closed-loop callers, at most two threads), then three
// solo phases that each run one caller alone on the idle fleet (a reader,
// a writer, a repairer) — so every run reports the CPU cost of a read, a
// put and a repair.  Each store call is timed from this file only; the
// per-layer split reads deltas of the registries the program already
// keeps.

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "bench.h"
#include "net/block_server.h"
#include "net/store.h"
#include "obs/metrics.h"

namespace fleetbench {
namespace {

namespace fs = std::filesystem;

enum Op : std::uint8_t { kRead = 0, kPut = 1, kRepair = 2 };
constexpr std::size_t kOpKinds = 3;
constexpr const char* kOpNames[kOpKinds] = {"read", "put", "repair"};

// Fleets an untraced run sets up in turn, each running kRoundsPerFleet
// rounds.  setup_s is the median of their set-ups, and every per-call
// median pools the calls of all of them: part of what a put costs is set
// per fleet (fleets of one run differed by up to 25 %), so no one fleet
// sets the result.
constexpr int kFleets = 3;
constexpr int kRoundsPerFleet = 2;
// Reference jobs HostSpeed runs before each set-up and each phase.
constexpr int kHostJobs = 8;
// Share of --seconds each solo operation gets over all rounds; the main
// phase gets the rest.
constexpr double kSoloShare = 0.2;
// The main and solo phases alternate over the rounds, so outside load,
// which comes in bursts of seconds, falls on every operation alike.
constexpr int kRounds = kFleets * kRoundsPerFleet;
// Unmeasured closed-loop time before the main phase: opens the pooled
// connections and pages in the servers' block maps.
constexpr double kWarmupS = 0.5;
// The writer keeps this many of its newest files and drops the blocks of
// older ones, so stored bytes stay bounded however long it runs.
constexpr std::size_t kLiveWindow = 4;
// First file id the writer uses; base files are 1..kBaseFiles.
constexpr std::uint32_t kFirstWriterId = 1001;
// degraded_repair loses this data block of every base file (a lost disk).
constexpr std::uint32_t kLostIndex = 3;

struct Workload {
  const char* name;
  std::vector<Op> main;  // one caller thread per entry
  bool degraded;         // set-up drops kLostIndex of every base file
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"read_healthy", {kRead, kRead}, false},
      {"ingest_mixed", {kPut, kRead}, false},
      {"degraded_repair", {kRead, kRepair}, true},
  };
  return all;
}

// One traced store call.
struct Span {
  Op op;
  bool ok;
  std::uint32_t file;
  double start_us;
  double end_us;
};

struct OpLog {
  std::vector<double> lat_ms;  // successful calls only
  std::vector<double> cpu_ms;  // the same calls' process CPU, solo phases only
  std::uint64_t bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Everything one caller thread records; read after the phase joins.
struct Caller {
  std::array<OpLog, kOpKinds> ops;
  // Untimed store calls that keep the loop going (drop_block, verify_block).
  std::uint64_t aux_attempted = 0;
  std::uint64_t aux_failed = 0;
  std::vector<Span> spans;  // traced phases only
  std::string first_error;  // first call that threw
  std::string wrong;        // first correctness-gate failure

  void note_error(const char* what, const std::exception& e) {
    if (first_error.empty()) first_error = std::string(what) + ": " + e.what();
  }
  void note_wrong(std::string what) {
    if (wrong.empty()) wrong = std::move(what);
  }
};

class Fleet {
 public:
  Fleet(const fs::path& dir, const codes::Carousel& code,
        std::size_t block_bytes)
      : dir_(dir) {
    fs::create_directories(dir_);
    std::vector<std::uint16_t> ports;
    net::PersistentBlockStore::Options persist;
    persist.fsync = true;
    for (std::size_t i = 0; i < kServers; ++i) {
      servers_.push_back(std::make_unique<net::BlockServer>(
          0, dir_ / ("server-" + std::to_string(i)), persist));
      ports.push_back(servers_.back()->port());
    }
    net::StoreOptions options;
    options.registry = &registry_;
    options.meta_dir = dir_ / "meta";
    options.meta_fsync = true;
    store_ = std::make_unique<net::CarouselStore>(code, ports, block_bytes,
                                                  options);
  }
  ~Fleet() {
    store_.reset();
    servers_.clear();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  net::CarouselStore& store() { return *store_; }
  const std::vector<std::unique_ptr<net::BlockServer>>& servers() const {
    return servers_;
  }

 private:
  fs::path dir_;
  obs::MetricsRegistry registry_;  // the store's and its clients'
  std::vector<std::unique_ptr<net::BlockServer>> servers_;
  std::unique_ptr<net::CarouselStore> store_;
};

// Read-only state every caller shares.
struct Context {
  const codes::Carousel& code;
  const Workload& workload;
  std::uint64_t seed;
  std::size_t block_bytes;
  std::size_t file_bytes;
  std::vector<std::vector<std::uint8_t>> base;  // base[id - 1]
  fs::path work_dir;
};

// The writer's ids and retention window, kept across its phases.
struct WriterState {
  std::uint32_t next_id = kFirstWriterId;
  std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> live;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// CPU time of the whole process: callers, the store's pool and every
// server's session threads.  The kernel leaves out time a virtual CPU
// waited for its host (steal), so on a shared host this moves far less
// than wall time does.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

// How fast the host runs a fixed reference job, sampled between phases.
// Other load on a shared host (busy sibling hyperthreads, shared caches)
// slows every instruction, so CPU time per call grows with it: 20-30 %
// at 10 % host steal.  The CPU metrics are divided by the reference job's
// slowdown, which takes most of that out.  The job has the shape of the
// program's hot loops, a bytewise table CRC and large copies, but it is
// the benchmark's own code, so no change to the program moves it.
class HostSpeed {
 public:
  // Sets the unit of the scaled metrics: CPU time on a host where one job
  // takes this long, about what it takes on the reference VM (README.md).
  static constexpr double kNominalMs = 1.5;

  HostSpeed() : src_(kCopyBytes), dst_(kCopyBytes) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c >> 1) ^ ((c & 1) ? 0x82F63B78u : 0u);  // CRC-32C
      table_[i] = c;
    }
    for (std::size_t i = 0; i < src_.size(); ++i)
      src_[i] = static_cast<std::uint8_t>(mix(i, 7));
  }

  void sample(int jobs) {
    for (int j = 0; j < jobs; ++j) {
      const double t0 = thread_cpu_ms();
      std::uint32_t c = sink_;
      for (std::size_t i = 0; i < kCrcBytes; ++i)
        c = table_[(c ^ src_[i]) & 0xFF] ^ (c >> 8);
      std::memcpy(dst_.data(), src_.data(), kCopyBytes);
      sink_ = c ^ dst_[c % kCopyBytes];
      src_[c % kCopyBytes] ^= 1;  // the next job's input differs
      samples_.push_back(thread_cpu_ms() - t0);
    }
  }

  double job_ms() const { return quantile(samples_, 0.5); }
  // Multiplies a CPU time measured on this host into reference-host time.
  double scale() const { return ratio(kNominalMs, job_ms()); }
  std::size_t jobs() const { return samples_.size(); }

 private:
  static constexpr std::size_t kCrcBytes = 256 << 10;
  static constexpr std::size_t kCopyBytes = 8 << 20;
  std::array<std::uint32_t, 256> table_{};
  std::vector<std::uint8_t> src_, dst_;
  std::vector<double> samples_;
  std::uint32_t sink_ = 0;
};

struct Loop {
  Fleet& fleet;
  const Context& cx;
  Caller& caller;
  Clock::time_point until;
  Clock::time_point epoch;
  bool trace;
  bool solo;  // the only caller: the process's CPU time is this caller's
  std::uint64_t stream;
};

// Times one store call; `fn` returns the bytes it moved for the caller.
template <typename F>
bool timed(const Loop& l, Op op, std::uint32_t file, F&& fn) {
  Caller& c = l.caller;
  OpLog& log = c.ops[op];
  ++log.attempted;
  bool ok = true;
  const double cpu0 = l.solo ? process_cpu_s() : 0.0;
  const auto t0 = Clock::now();
  try {
    log.bytes += fn();
  } catch (const std::exception& e) {
    ok = false;
    ++log.failed;
    c.note_error(kOpNames[op], e);
  }
  const auto t1 = Clock::now();
  if (ok) {
    log.lat_ms.push_back(ms_between(t0, t1));
    if (l.solo) log.cpu_ms.push_back(1e3 * (process_cpu_s() - cpu0));
  }
  if (l.trace)
    c.spans.push_back({op, ok, file, 1e3 * ms_between(l.epoch, t0),
                       1e3 * ms_between(l.epoch, t1)});
  return ok;
}

// An untimed store call; false when it threw.
template <typename F>
bool aux(Caller& c, const char* what, F&& fn) {
  ++c.aux_attempted;
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    ++c.aux_failed;
    c.note_error(what, e);
    return false;
  }
}

void read_loop(const Loop& l) {
  std::mt19937_64 rng(l.stream);
  std::uniform_int_distribution<std::uint32_t> pick(1, kBaseFiles);
  std::vector<std::uint8_t> got;
  while (Clock::now() < l.until) {
    const std::uint32_t id = pick(rng);
    const bool ok = timed(l, kRead, id, [&] {
      got = l.fleet.store().read_file(id, l.cx.file_bytes);
      return got.size();
    });
    if (ok && got != l.cx.base[id - 1])
      l.caller.note_wrong("read_file(" + std::to_string(id) +
                          ") returned bytes that differ from those written");
  }
}

void put_loop(const Loop& l, WriterState& w) {
  auto& store = l.fleet.store();
  while (Clock::now() < l.until) {
    const std::uint32_t id = w.next_id++;
    std::vector<std::uint8_t> bytes =
        seeded_bytes(mix(l.cx.seed, id), l.cx.file_bytes);
    std::size_t stripes = 0;
    if (!timed(l, kPut, id, [&] {
          stripes = store.put_file(id, bytes);
          return bytes.size();
        }))
      continue;
    if (stripes != 1)
      l.caller.note_wrong("put_file(" + std::to_string(id) + ") made " +
                          std::to_string(stripes) + " stripes, expected 1");
    w.live.emplace_back(id, std::move(bytes));
    if (w.live.size() > kLiveWindow) {
      const std::uint32_t old = w.live.front().first;
      w.live.pop_front();
      for (std::uint32_t i = 0; i < l.cx.code.n(); ++i)
        aux(l.caller, "drop_block", [&] { store.drop_block(old, 0, i); });
    }
  }
}

void repair_loop(const Loop& l) {
  auto& store = l.fleet.store();
  std::mt19937_64 rng(l.stream);
  std::uniform_int_distribution<std::uint32_t> pick(1, kBaseFiles);
  // Blocks p..n-1 carry parity only, so dropping one never touches a
  // healthy read's extents.
  std::uniform_int_distribution<std::uint32_t> parity(
      static_cast<std::uint32_t>(l.cx.code.p()),
      static_cast<std::uint32_t>(l.cx.code.n() - 1));
  const std::uint64_t msr_bytes =
      l.cx.code.d() * l.cx.block_bytes / l.cx.code.alpha();
  while (Clock::now() < l.until) {
    const std::uint32_t id = pick(rng);
    const std::uint32_t index = parity(rng);
    bool dropped = false;
    if (!aux(l.caller, "drop_block",
             [&] { dropped = store.drop_block(id, 0, index); }))
      continue;
    const std::string block =
        "block " + std::to_string(index) + " of file " + std::to_string(id);
    if (!dropped) l.caller.note_wrong(block + " was already missing");
    std::uint64_t fetched = 0;
    if (!timed(l, kRepair, id, [&] {
          fetched = store.repair_block(id, 0, index);
          return l.cx.block_bytes;
        }))
      continue;
    if (fetched != msr_bytes)
      l.caller.note_wrong("repair of " + block + " fetched " +
                          std::to_string(fetched) + " bytes, expected " +
                          std::to_string(msr_bytes));
    net::BlockState state = net::BlockState::kUnreachable;
    if (aux(l.caller, "verify_block",
            [&] { state = store.verify_block(id, 0, index); }) &&
        state != net::BlockState::kOk)
      l.caller.note_wrong("repaired " + block + " does not VERIFY");
  }
}

struct Phase {
  std::vector<Caller> callers;
  std::vector<Op> roles;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // CPU time of every thread in the process
};

// Runs one caller thread per role for `seconds`, closed loop.
Phase run_phase(Fleet& fleet, const Context& cx, WriterState& writer,
                const std::vector<Op>& roles, double seconds, bool trace,
                std::uint64_t phase_no) {
  Phase ph;
  ph.roles = roles;
  ph.callers.resize(roles.size());
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const auto until =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < roles.size(); ++i)
    threads.emplace_back([&, i] {
      Caller& c = ph.callers[i];
      const Loop l{fleet, cx,    c,
                   until, t0,    trace,
                   roles.size() == 1, mix(cx.seed, 1000 * phase_no + i)};
      try {
        switch (roles[i]) {
          case kRead: read_loop(l); break;
          case kPut: put_loop(l, writer); break;
          case kRepair: repair_loop(l); break;
        }
      } catch (const std::exception& e) {
        c.note_wrong(std::string("caller stopped: ") + e.what());
      }
    });
  for (auto& t : threads) t.join();
  ph.wall_s = seconds_between(t0, Clock::now());
  ph.cpu_s = process_cpu_s() - cpu0;
  return ph;
}

std::unique_ptr<Fleet> set_up(const Context& cx, int generation) {
  auto fleet = std::make_unique<Fleet>(
      cx.work_dir / ("fleet-" + std::to_string(generation)), cx.code,
      cx.block_bytes);
  for (std::uint32_t id = 1; id <= kBaseFiles; ++id)
    fleet->store().put_file(id, cx.base[id - 1]);
  if (cx.workload.degraded)
    for (std::uint32_t id = 1; id <= kBaseFiles; ++id)
      if (!fleet->store().drop_block(id, 0, kLostIndex))
        throw std::runtime_error("set-up: lost block already missing");
  return fleet;
}

// Reads back the writer's retained files: put_file's output check.
void verify_written(Fleet& fleet, const WriterState& w, Caller& c) {
  for (const auto& [id, bytes] : w.live) {
    std::vector<std::uint8_t> got;
    if (aux(c, "read_file",
            [&] { got = fleet.store().read_file(id, bytes.size()); }) &&
        got != bytes)
      c.note_wrong("file " + std::to_string(id) +
                   " read back differs from what put_file stored");
  }
}

// Run-wide tallies over every phase's callers.
struct Tally {
  RunOutcome outcome;
  std::vector<std::string> errors;

  void absorb(const std::vector<Caller>& callers) {
    for (const Caller& c : callers) {
      for (const OpLog& log : c.ops) {
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
      }
      outcome.attempted += c.aux_attempted;
      outcome.failed += c.aux_failed;
      if (!c.first_error.empty()) errors.push_back(c.first_error);
      if (!c.wrong.empty()) {
        outcome.correct = false;
        std::fprintf(stderr, "fleetbench: correctness gate: %s\n",
                     c.wrong.c_str());
      }
    }
  }
};

OpLog merged(const Phase& ph, Op op) {
  OpLog all;
  for (const Caller& c : ph.callers) {
    const OpLog& log = c.ops[op];
    all.lat_ms.insert(all.lat_ms.end(), log.lat_ms.begin(), log.lat_ms.end());
    all.cpu_ms.insert(all.cpu_ms.end(), log.cpu_ms.begin(), log.cpu_ms.end());
    all.bytes += log.bytes;
    all.attempted += log.attempted;
    all.failed += log.failed;
  }
  return all;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Registry deltas for the traced run. ----

struct Capture {
  obs::Snapshot store;
  obs::Snapshot global;
  std::vector<obs::Snapshot> servers;
  std::uint64_t wire_bytes = 0;
};

Capture capture(Fleet& fleet) {
  Capture c;
  c.store = fleet.store().metrics().snapshot();
  c.global = obs::MetricsRegistry::global().snapshot();
  for (const auto& s : fleet.servers())
    c.servers.push_back(s->metrics().snapshot());
  c.wire_bytes = fleet.store().bytes_received();
  return c;
}

std::uint64_t counter_of(const obs::Snapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

struct HistDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean_ms() const { return count ? 1e3 * sum / count : 0.0; }
};

HistDelta hist_delta(const obs::Snapshot& a, const obs::Snapshot& b,
                     const std::string& name) {
  HistDelta d;
  auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return d;
  d.count = ib->second.count;
  d.sum = ib->second.sum;
  auto ia = a.histograms.find(name);
  if (ia != a.histograms.end()) {
    d.count -= ia->second.count;
    d.sum -= ia->second.sum;
  }
  return d;
}

std::uint64_t counter_delta(const obs::Snapshot& a, const obs::Snapshot& b,
                            const std::string& name) {
  return counter_of(b, name) - counter_of(a, name);
}

struct Deltas {
  const Capture& a;
  const Capture& b;
  // Counter deltas, as doubles: every use is a ratio or a reported value.
  double store(const std::string& name) const {
    return static_cast<double>(counter_delta(a.store, b.store, name));
  }
  double servers(const std::string& name) const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < b.servers.size(); ++i)
      sum += counter_delta(a.servers[i], b.servers[i], name);
    return static_cast<double>(sum);
  }
  HistDelta server_hist(const std::string& name) const {
    HistDelta sum;
    for (std::size_t i = 0; i < b.servers.size(); ++i) {
      HistDelta d = hist_delta(a.servers[i], b.servers[i], name);
      sum.count += d.count;
      sum.sum += d.sum;
    }
    return sum;
  }
};

std::string base_note(double num, const char* num_what, double den,
                      const char* den_what) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%.0f %s / %.0f %s", num, num_what, den,
                den_what);
  return buf;
}

void add_layer_split(const Context& cx, const Phase& traced,
                     const std::vector<const Phase*>& untraced,
                     const Capture& before, const Capture& after,
                     Report& out) {
  const Deltas d{before, after};
  std::array<std::uint64_t, kOpKinds> calls{};
  std::array<std::uint64_t, kOpKinds> ok_calls{};
  std::array<double, kOpKinds> busy{};
  for (const Caller& c : traced.callers)
    for (const Span& s : c.spans) {
      ++calls[s.op];
      ok_calls[s.op] += s.ok;
      busy[s.op] += (s.end_us - s.start_us) / 1e6;
    }
  for (std::size_t op = 0; op < kOpKinds; ++op)
    out.add(std::string("net.store.") + kOpNames[op] + ".calls",
            static_cast<double>(calls[op]), "count",
            "spans over " + std::to_string(traced.wall_s) + " s");
  for (std::size_t op = 0; op < kOpKinds; ++op)
    out.add(std::string("net.store.") + kOpNames[op] + ".busy_s", busy[op],
            "s", "sum of span durations");

  const net::Op wire_ops[] = {net::Op::kGetRange, net::Op::kPut,
                              net::Op::kProject, net::Op::kVerify};
  std::vector<HistDelta> client, server;
  for (net::Op op : wire_ops) {
    client.push_back(hist_delta(
        before.store, after.store,
        obs::labeled("carousel_client_op_seconds", "op", net::op_name(op))));
    server.push_back(d.server_hist(
        obs::labeled("carousel_server_op_seconds", "op", net::op_name(op))));
  }
  for (std::size_t i = 0; i < client.size(); ++i)
    out.add(std::string("net.client.") + net::op_name(wire_ops[i]) +
                ".mean_ms",
            client[i].mean_ms(), "ms",
            "over " + std::to_string(client[i].count) + " client calls");
  for (std::size_t i = 0; i < server.size(); ++i)
    out.add(std::string("net.block_server.") + net::op_name(wire_ops[i]) +
                ".mean_ms",
            server[i].mean_ms(), "ms",
            "over " + std::to_string(server[i].count) +
                " requests, 12 servers");
  for (std::size_t i = 0; i < client.size(); ++i)
    out.add(std::string("net.client.") + net::op_name(wire_ops[i]) +
                ".wait_ms",
            client[i].mean_ms() - server[i].mean_ms(), "ms",
            "client mean - server mean (wire, client CRC, queueing)");

  for (const char* what : {"encode", "decode", "repair"}) {
    const std::string name = obs::labeled(
        std::string("carousel_codec_") + what + "_seconds", "code",
        cx.code.kind());
    const HistDelta h = hist_delta(before.global, after.global, name);
    out.add(std::string("codes.") + what + ".busy_s", h.sum, "s",
            "over " + std::to_string(h.count) + " codec calls");
  }

  const std::uint64_t tasks = counter_delta(before.global, after.global,
                                            "carousel_threadpool_tasks_total");
  const HistDelta task_s = hist_delta(before.global, after.global,
                                      "carousel_threadpool_task_seconds");
  out.add("util.thread_pool.tasks", static_cast<double>(tasks), "count",
          "tasks run by every pool");
  out.add("util.thread_pool.task_mean_ms", task_s.mean_ms(), "ms",
          "over " + std::to_string(task_s.count) + " tasks");

  const double puts = static_cast<double>(ok_calls[kPut]);
  const double put_bytes = puts * static_cast<double>(cx.file_bytes);
  const double fsyncs = d.servers("carousel_persist_fsyncs_total");
  const double written = d.servers("carousel_persist_bytes_written_total");
  out.add("net.persistence.fsyncs_per_put", ratio(fsyncs, puts), "ratio",
          base_note(fsyncs, "server fsyncs", puts, "puts"));
  out.add("net.persistence.bytes_written_per_user_byte",
          ratio(written, put_bytes), "ratio",
          base_note(written, "bytes written", put_bytes, "user bytes put"));
  const double appends = d.store("carousel_meta_appends_total");
  out.add("net.meta_log.appends_per_put", ratio(appends, puts), "ratio",
          base_note(appends, "journal appends", puts, "puts"));

  const std::size_t stripe_data = cx.code.k() * cx.block_bytes;
  const double stripes =
      static_cast<double>(ok_calls[kRead] *
                          ((cx.file_bytes + stripe_data - 1) / stripe_data));
  const double range_gets = d.store("carousel_store_range_gets_total");
  const double degraded = d.store("carousel_store_degraded_stripe_reads_total");
  const double repair_read = d.store("carousel_store_repair_bytes_read_total");
  const double wire =
      static_cast<double>(after.wire_bytes - before.wire_bytes) - repair_read;
  const double read_bytes =
      static_cast<double>(ok_calls[kRead] * cx.file_bytes);
  out.add("net.store.range_gets_per_stripe_read", ratio(range_gets, stripes),
          "ratio",
          base_note(range_gets, "range-GETs", stripes, "stripes read"));
  out.add("net.store.degraded_stripe_read_ratio", ratio(degraded, stripes),
          "ratio",
          base_note(degraded, "degraded stripes", stripes, "stripes read"));
  out.add("net.store.wire_bytes_per_read_byte", ratio(wire, read_bytes),
          "ratio",
          base_note(wire, "bytes received less repair traffic", read_bytes,
                    "bytes returned by read_file"));
  const double repaired =
      static_cast<double>(ok_calls[kRepair] * cx.block_bytes);
  out.add("net.store.repair_bytes_per_block", ratio(repair_read, repaired),
          "ratio",
          base_note(repair_read, "helper bytes", repaired,
                    "repaired block bytes"));

  out.add("net.client.retries", d.store("carousel_client_retries_total"),
          "count");
  out.add("net.client.timeouts", d.store("carousel_client_timeouts_total"),
          "count");

  // Extra busy time the traced calls took over untraced calls of the same
  // kind, as a share of what they would have taken untraced.
  double plain_busy = 0.0, traced_busy = 0.0;
  for (Op op : {kRead, kPut, kRepair}) {
    OpLog plain;
    for (const Phase* ph : untraced) {
      const OpLog part = merged(*ph, op);
      plain.lat_ms.insert(plain.lat_ms.end(), part.lat_ms.begin(),
                          part.lat_ms.end());
    }
    const OpLog with = merged(traced, op);
    if (plain.lat_ms.empty() || with.lat_ms.empty()) continue;
    auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (double x : v) sum += x;
      return sum / static_cast<double>(v.size());
    };
    const auto n = static_cast<double>(with.lat_ms.size());
    plain_busy += n * mean(plain.lat_ms);
    traced_busy += n * mean(with.lat_ms);
  }
  out.add("trace_overhead_frac", ratio(traced_busy - plain_busy, plain_busy),
          "ratio",
          base_note(traced_busy, "ms traced", plain_busy,
                    "ms at untraced mean latency"));
}

void write_spans(const RunOptions& opt, const Phase& traced) {
  fs::create_directories(opt.out_dir);
  const fs::path path = opt.out_dir / ("spans-" + opt.workload + "-seed" +
                                       std::to_string(opt.seed) + ".jsonl");
  std::ofstream f(path);
  f << "{\"span\": 0, \"name\": \"" << opt.workload
    << ".traced_window\", \"start_us\": 0, \"end_us\": "
    << traced.wall_s * 1e6 << "}\n";
  std::uint64_t id = 0;
  for (std::size_t ci = 0; ci < traced.callers.size(); ++ci)
    for (const Span& s : traced.callers[ci].spans)
      f << "{\"span\": " << ++id << ", \"parent\": 0, \"caller\": " << ci
        << ", \"op\": \"" << kOpNames[s.op] << "\", \"file\": " << s.file
        << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << ", \"ok\": " << (s.ok ? "true" : "false") << "}\n";
  std::printf("spans written to %s\n", path.string().c_str());
}

// `phases` are the solo phases that ran `op`.  The metric is the median,
// over all their calls, of the process CPU time one call took, times the
// host scale; the unscaled value and the wall figures (medians over
// rounds) go into the note only.
void add_op_metric(const std::vector<const Phase*>& phases, Op op,
                   double scale, Report& out) {
  std::vector<double> cpu_ms, mbps, p50, p90;
  double wall = 0.0;
  for (const Phase* ph : phases) {
    const OpLog log = merged(*ph, op);
    cpu_ms.insert(cpu_ms.end(), log.cpu_ms.begin(), log.cpu_ms.end());
    mbps.push_back(ratio(static_cast<double>(log.bytes) / kMiB, ph->wall_s));
    p50.push_back(quantile(log.lat_ms, 0.5));
    p90.push_back(quantile(log.lat_ms, 0.9));
    wall += ph->wall_s;
  }
  const double median = quantile(cpu_ms, 0.5);
  char note[240];
  std::snprintf(note, sizeof note,
                "median of n=%zu solo calls over %.2f s; unscaled p50 %.4g "
                "ms, p90 %.4g ms; wall: p50 %.3g ms, p90 %.3g ms, %.4g MiB/s",
                cpu_ms.size(), wall, median, quantile(cpu_ms, 0.9),
                quantile(p50, 0.5), quantile(p90, 0.5), quantile(mbps, 0.5));
  out.add(std::string(kOpNames[op]) + "_cpu_ms", scale * median, "ms", note);
}

// CPU time per user MiB (read, put and repaired block bytes) over the
// rounds of the main phase, whatever mix of callers it runs.
void add_main_metric(const std::vector<const Phase*>& rounds, double scale,
                     Report& out) {
  std::vector<double> per_mib;
  double mib = 0.0;
  for (const Phase* ph : rounds) {
    double bytes = 0.0;
    for (Op op : {kRead, kPut, kRepair})
      bytes += static_cast<double>(merged(*ph, op).bytes);
    per_mib.push_back(ratio(1e3 * ph->cpu_s, bytes / kMiB));
    mib += bytes / kMiB;
  }
  const double median = quantile(per_mib, 0.5);
  char note[160];
  std::snprintf(note, sizeof note,
                "median of %zu rounds of the main phase; %.1f MiB moved; "
                "unscaled %.4g ms/MiB",
                rounds.size(), mib, median);
  out.add("main_cpu_ms_per_MiB", scale * median, "ms/MiB", note);
}

}  // namespace

bool known_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return true;
  return false;
}

RunOutcome run_workload(const RunOptions& opt, Report& out) {
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (opt.workload == w.name) wl = &w;
  if (!wl) throw std::invalid_argument("unknown workload " + opt.workload);

  const codes::Carousel code = make_code();
  const std::size_t block_bytes = code.s() * kUnitBytes;
  Context cx{code, *wl, opt.seed, block_bytes, code.k() * block_bytes,
             {}, opt.work_dir};
  for (std::uint32_t id = 1; id <= kBaseFiles; ++id)
    cx.base.push_back(seeded_bytes(mix(opt.seed, id), cx.file_bytes));

  // Every operation gets a solo phase, where the process's CPU time is
  // that of one call at a time.
  const Op solo[] = {kRead, kPut, kRepair};
  const double solo_s = kSoloShare * opt.seconds;
  const double main_s = opt.seconds - solo_s * std::size(solo);

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", wl->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("fleet: %zu durable BlockServers (fsync per PUT), journaled "
              "coordinator (fsync per record), (12,6,10,10) Carousel, "
              "%zu KiB blocks, %u base files of %zu KiB\n",
              kServers, block_bytes >> 10, kBaseFiles, cx.file_bytes >> 10);
  std::fflush(stdout);

  // Flush what earlier processes left dirty on this file system, so their
  // writeback does not land inside this run's measurements.
  fs::create_directories(opt.work_dir);
  if (const int fd = ::open(opt.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
      fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }

  Tally tally;
  double peak_rss = 0.0;
  Caller checks;  // untimed read-backs after the last phase

  if (opt.trace) {
    WriterState writer;
    const bool layers_ok = run_layer_suite(opt.work_dir / "layers", out);
    if (!layers_ok) tally.outcome.correct = false;
    // Untraced quarters bracket the traced half, so drift over the run
    // does not read as tracing overhead.
    auto fleet = set_up(cx, 0);
    const Phase warm = run_phase(*fleet, cx, writer, wl->main, kWarmupS,
                                 false, 0);
    const Phase before_half = run_phase(*fleet, cx, writer, wl->main,
                                        opt.seconds / 4, false, 1);
    const Capture before = capture(*fleet);
    const Phase traced = run_phase(*fleet, cx, writer, wl->main,
                                   opt.seconds / 2, true, 2);
    const Capture after = capture(*fleet);
    const Phase after_half = run_phase(*fleet, cx, writer, wl->main,
                                       opt.seconds / 4, false, 3);
    add_layer_split(cx, traced, {&before_half, &after_half}, before, after,
                    out);
    write_spans(opt, traced);
    verify_written(*fleet, writer, checks);
    for (const Phase* ph : {&warm, &before_half, &traced, &after_half})
      tally.absorb(ph->callers);
  } else {
    HostSpeed host;
    std::vector<double> setup_cpu, setup_wall;
    std::vector<Phase> phases;
    for (int g = 0; g < kFleets; ++g) {
      host.sample(kHostJobs);
      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      auto fleet = set_up(cx, g);
      setup_wall.push_back(seconds_between(t0, Clock::now()));
      setup_cpu.push_back(process_cpu_s() - cpu0);

      WriterState writer;  // this fleet's files
      tally.absorb(
          run_phase(*fleet, cx, writer, wl->main, kWarmupS, false, 0).callers);
      for (int r = 0; r < kRoundsPerFleet; ++r) {
        host.sample(kHostJobs);
        phases.push_back(run_phase(*fleet, cx, writer, wl->main,
                                   main_s / kRounds, false, phases.size() + 1));
        for (Op op : solo) {
          host.sample(kHostJobs);
          phases.push_back(run_phase(*fleet, cx, writer, {op},
                                     solo_s / kRounds, false,
                                     phases.size() + 1));
        }
      }
      verify_written(*fleet, writer, checks);
    }
    peak_rss = peak_rss_mib();

    const double scale = host.scale();
    std::printf("host: reference job %.4g ms CPU (median of %zu), %.4g ms "
                "on the reference host: scale %.4g\n",
                host.job_ms(), host.jobs(), HostSpeed::kNominalMs, scale);
    std::string note = "median of " + std::to_string(kFleets) +
                       " set-ups; unscaled CPU s:";
    for (double s : setup_cpu) note += " " + std::to_string(s);
    note += "; wall s:";
    for (double s : setup_wall) note += " " + std::to_string(s);
    out.add("setup_s", scale * quantile(setup_cpu, 0.5), "s", note);
    for (Op op : solo) {
      std::vector<const Phase*> rounds;
      for (const Phase& ph : phases)
        if (ph.roles == std::vector<Op>{op}) rounds.push_back(&ph);
      add_op_metric(rounds, op, scale, out);
    }
    std::vector<const Phase*> main_rounds;
    for (const Phase& ph : phases)
      if (ph.roles == wl->main) main_rounds.push_back(&ph);
    add_main_metric(main_rounds, scale, out);
    for (const Phase& ph : phases) tally.absorb(ph.callers);
  }
  tally.absorb({checks});
  for (const std::string& e : tally.errors)
    std::fprintf(stderr, "fleetbench: a store call threw: %s\n", e.c_str());

  if (!opt.trace) {
    const RunOutcome& o = tally.outcome;
    const double failure = ratio(static_cast<double>(o.failed),
                                 static_cast<double>(o.attempted));
    char note[128];
    std::snprintf(note, sizeof note,
                  "op_failure_ratio=%.6g (%llu of %llu store calls threw)",
                  failure, static_cast<unsigned long long>(o.failed),
                  static_cast<unsigned long long>(o.attempted));
    out.add("op_success_ratio", 1.0 - failure, "ratio", note);
    out.add("peak_rss_MiB", peak_rss, "MiB",
            "ru_maxrss over all fleets, one at a time");
  }
  return tally.outcome;
}

}  // namespace fleetbench
