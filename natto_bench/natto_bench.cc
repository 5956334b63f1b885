// natto_bench: the repository's performance ledger (see README.md here).
//
// One process measures one workload — a fixed set of paper cells, each a
// harness::RunOnce call with a fixed simulated horizon — and prints every
// metric by name and unit, then one JSON line. natto_bench/run.py builds
// this binary and runs one child process per workload, one at a time.
//
//   natto_bench --workload=W [--seed=N] [--rounds=R] [--seconds=S]
//               [--traced | --counts] [--out=PATH]
//
// Default mode times rounds of the workload's cells (at least R rounds, more
// while they fit in S seconds) and reports end-to-end metrics, with wall
// times scaled to one host speed by a reference loop timed between cells.
// --traced
// splits the same cells per layer from the outside: decorators around the
// engine and workload interfaces, the metrics registry, the parallel
// kernel's phase stats, and isolated probes of single layers. --counts runs
// shortened cells and reports the deterministic counts the ceiling gate
// checks.
//
// Every clock read here is host wall time of the benchmark itself and never
// feeds back into a simulation, hence the per-line natto-wallclock NOLINTs.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>  // NOLINT(natto-wallclock)
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/parallel_runner.h"
#include "harness/stats.h"
#include "harness/systems.h"
#include "net/delay_model.h"
#include "net/latency_matrix.h"
#include "net/transport.h"
#include "raft/group.h"
#include "sim/parallel_kernel.h"
#include "sim/simulator.h"
#include "store/kv_store.h"
#include "store/lock_table.h"
#include "store/prepared_set.h"
#include "txn/cluster.h"
#include "txn/topology.h"
#include "workload/retwis.h"
#include "workload/smallbank.h"
#include "workload/ycsbt.h"

// ---------------------------------------------------------------------------
// Allocation counting (sim.allocs_per_txn): global operator new forwards to
// malloc and bumps a per-thread shard, so the parallel kernel's workers never
// contend on one cache line and counting can stay on for every timed section.
// ---------------------------------------------------------------------------

namespace {

constexpr unsigned kAllocShards = 16;
struct alignas(64) AllocShard {
  std::atomic<uint64_t> count{0};
};
AllocShard g_alloc_shards[kAllocShards];
std::atomic<unsigned> g_next_alloc_shard{0};

void* CountedAlloc(std::size_t size) noexcept {
  thread_local const unsigned shard =
      g_next_alloc_shard.fetch_add(1, std::memory_order_relaxed) % kAllocShards;
  g_alloc_shards[shard].count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

uint64_t AllocCount() {
  uint64_t n = 0;
  for (const AllocShard& s : g_alloc_shards) {
    n += s.count.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  std::abort();  // the benchmark does not recover from OOM
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  std::abort();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace natto::bench {
namespace {

using Clock = std::chrono::steady_clock;  // NOLINT(natto-wallclock)

double NowS() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();  // NOLINT(natto-wallclock)
}

/// Simulation threads for the workloads that run the parallel kernel: the
/// reference host has 4 CPUs, and one stays free for the host itself.
constexpr int kSimThreads = 3;
/// A reported p95 needs at least this many samples below it.
constexpr size_t kMinSamplesUnderP95 = 200;
constexpr int kMaxRounds = 64;

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------------------

/// A fixed loop in the shape of a simulation step that calls no code of the
/// repository, so only the host's speed moves its cost: pop the earliest of
/// 4096 pending timestamps, read and update a random slot of a 1 MiB table,
/// allocate a small record, push a later timestamp. The reference host is a
/// VM on a shared machine whose speed moves by up to 2x within minutes as
/// other tenants load it; timing this loop next to every cell lets the
/// end-to-end wall metrics be scaled to one host speed.
class HostReference {
 public:
  /// The unit time that scaled wall times assume: about the fastest seen on
  /// the reference host (4-CPU VM, RelWithDebInfo, GCC 12).
  static constexpr double kNominalUnitS = 1.1e-3;

  HostReference() : table_(kSlots) {
    for (uint64_t& slot : table_) slot = Step();
    for (size_t i = 0; i < kPending; ++i) heap_.push(Step() % kHorizon);
  }

  /// Runs units for `budget_s`, at least three, and returns the median
  /// unit time.
  double UnitS(double budget_s) {
    std::vector<double> units;
    const double start = NowS();
    while (units.size() < 3 || NowS() - start < budget_s) {
      const double t0 = NowS();
      RunUnit();
      units.push_back(NowS() - t0);
    }
    return Median(units);
  }

 private:
  static constexpr size_t kSlots = 1 << 17;
  static constexpr size_t kPending = 4096;
  static constexpr uint64_t kHorizon = 1 << 20;
  static constexpr int kOpsPerUnit = 12'000;

  uint64_t Step() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  void RunUnit() {
    for (int i = 0; i < kOpsPerUnit; ++i) {
      const uint64_t now = heap_.top();
      heap_.pop();
      const uint64_t r = Step();
      uint64_t& slot = table_[r % kSlots];
      auto record = std::make_unique<std::array<uint64_t, 6>>();
      (*record)[0] = slot + now;
      slot = (*record)[0] ^ r;
      heap_.push(now + 1 + r % kHorizon);
    }
  }

  uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>>
      heap_;
  std::vector<uint64_t> table_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One run of one system of a workload's lineup.
struct Cell {
  size_t system;
  int repeat;
};

/// One benchmark workload: a paper cell's configuration run once per system
/// of its lineup, and kNattoRepeats times for Natto-RECSF, whose pooled
/// latencies the latency metrics read (as the paper pools its repeats).
/// Cell (system s, repeat r) runs with seed CellSeed(seed, s, 0, r).
struct BenchWorkload {
  std::string name;
  harness::ExperimentConfig config;
  harness::WorkloadFactory make_workload;
  std::vector<harness::System> systems;
  std::vector<Cell> cells;
  size_t natto = 0;       // system index of Natto-RECSF
  size_t natto_cell = 0;  // its first cell
};

/// Repeats of the Natto-RECSF cell: enough pooled samples that a p95 moves
/// by about 5-10% (interquartile range over seeds) rather than 10-25%.
constexpr int kNattoRepeats = 3;

harness::ExperimentConfig CellConfig(double rate_tps, SimDuration duration,
                                     SimDuration trim, SimDuration drain) {
  harness::ExperimentConfig c;
  c.input_rate_tps = rate_tps;
  c.duration = duration;
  c.warmup = trim;
  c.cooldown = trim;
  c.drain = drain;
  c.repeats = 1;
  return c;
}

/// Returns false for an unknown name. The four names are the benchmark's
/// public interface (BENCHMARK.json); README.md says why each exists.
bool MakeBenchWorkload(const std::string& name, BenchWorkload* w) {
  using harness::MakeSystem;
  using harness::SystemKind;
  w->name = name;
  if (name == "contention") {
    // Fig 8(b) at Zipf 0.95: abort paths, retries and 2PL lock queues.
    w->config = CellConfig(100, Seconds(36), Seconds(4), Seconds(20));
    w->make_workload = [] {
      workload::RetwisWorkload::Options o;
      o.zipf_theta = 0.95;
      return std::make_unique<workload::RetwisWorkload>(o);
    };
    w->systems = harness::FailoverSystems();
  } else if (name == "writes") {
    // Fig 7(e)'s first rate: write-heavy SmallBank transfers. Retry counts
    // swing with the seed and move wall time and memory with them: at
    // 1000 tps Natto-RECSF's attempts per commit by 15% across seeds, at
    // 500 tps by 5%. Carousel Basic stays out (its retry storm swings by
    // 20% even at 500 tps); `contention` covers its retry loop.
    w->config = CellConfig(500, Seconds(24), Seconds(4), Seconds(20));
    workload::SmallBankWorkload::Options o;
    Value initial = o.initial_balance;
    w->config.default_value = [initial](Key) { return initial; };
    w->make_workload = [o] {
      return std::make_unique<workload::SmallBankWorkload>(o);
    };
    w->systems = {MakeSystem(SystemKind::kTwoPlPreempt),
                  MakeSystem(SystemKind::kTapir),
                  MakeSystem(SystemKind::kNattoRecsf)};
  } else if (name == "site_parallel") {
    // Fig 14's cell (25 us of server CPU per message) below the capacity
    // knee, site-parallel at kSimThreads. Near and past the knee (8k-11k
    // tps) queue growth made latency, aborts and memory vary by 25% or
    // split into two modes across seeds.
    w->config = CellConfig(7000, Seconds(2), Millis(500), Seconds(1));
    w->config.matrix = net::LatencyMatrix::LocalTriangle();
    w->config.num_partitions = 6;
    w->config.cluster.transport.node_cost_per_message = Micros(25);
    w->config.cluster.sim_threads = kSimThreads;
    w->make_workload = [] {
      workload::RetwisWorkload::Options o;
      o.uniform_keys = true;
      return std::make_unique<workload::RetwisWorkload>(o);
    };
    w->systems = {MakeSystem(SystemKind::kNattoRecsf)};
  } else if (name == "jitter") {
    // Fig 11 at 40% Pareto variance: ineligible for site-parallel windows,
    // so kSimThreads runs the degenerate serial loop today.
    w->config = CellConfig(350, Seconds(24), Seconds(4), Seconds(20));
    w->config.cluster.delay_variance_ratio = 0.4;
    w->config.cluster.sim_threads = kSimThreads;
    w->make_workload = [] {
      return std::make_unique<workload::YcsbTWorkload>(
          workload::YcsbTWorkload::Options{});
    };
    w->systems = harness::FailoverSystems();
  } else {
    return false;
  }
  for (size_t s = 0; s < w->systems.size(); ++s) {
    const bool natto = w->systems[s].kind == harness::SystemKind::kNattoRecsf;
    if (natto) {
      w->natto = s;
      w->natto_cell = w->cells.size();
    }
    for (int r = 0; r < (natto ? kNattoRepeats : 1); ++r) {
      w->cells.push_back(Cell{s, r});
    }
  }
  return true;
}

/// Shortens every cell to at most `seconds` simulated (the counts gate).
void Shorten(BenchWorkload* w, SimDuration seconds) {
  harness::ExperimentConfig& c = w->config;
  if (c.duration <= seconds) return;
  c.duration = seconds;
  c.warmup = seconds / 6;
  c.cooldown = seconds / 6;
  c.drain = seconds / 3;
}

uint64_t CellSeedOf(uint64_t seed, const Cell& cell) {
  return harness::CellSeed(seed, static_cast<int>(cell.system), 0,
                           cell.repeat);
}

std::string CellName(const BenchWorkload& w, size_t cell) {
  const Cell& c = w.cells[cell];
  return w.name + "/" + w.systems[c.system].name + "#" +
         std::to_string(c.repeat);
}

// ---------------------------------------------------------------------------
// Outside-in spans
// ---------------------------------------------------------------------------

/// Self time of spans recorded around calls into the layers' public
/// interfaces. A span's self time excludes the spans nested in it (an
/// engine that reports an outcome synchronously runs the client callback,
/// which retries into the engine). Single-threaded: the span round runs the
/// serial kernel.
class Spans {
 public:
  enum Kind { kSetup, kNext, kExecute, kCallback, kTeardown, kNumKinds };
  static constexpr const char* kNames[kNumKinds] = {
      "harness.setup", "workload.next", "engine.execute", "client.callback",
      "harness.teardown"};

  void Begin() { stack_.push_back(Frame{NowS(), 0.0}); }
  void End(Kind kind) {
    Frame f = stack_.back();
    stack_.pop_back();
    double elapsed = NowS() - f.start;
    self_[kind] += elapsed - f.children;
    ++count_[kind];
    if (!stack_.empty()) stack_.back().children += elapsed;
  }
  /// Records a top-level span measured by the caller.
  void Add(Kind kind, double seconds) {
    self_[kind] += seconds;
    ++count_[kind];
  }
  double self(Kind kind) const { return self_[kind]; }
  uint64_t count(Kind kind) const { return count_[kind]; }
  double total() const {
    double t = 0;
    for (double s : self_) t += s;
    return t;
  }

 private:
  struct Frame {
    double start;
    double children;
  };
  std::vector<Frame> stack_;
  double self_[kNumKinds] = {};
  uint64_t count_[kNumKinds] = {};
};

/// What the decorators observe during one RunOnce call.
struct CellProbe {
  Spans* spans = nullptr;  // null: forward without timing
  uint64_t events = 0;     // simulator events, read at engine teardown
  double workload_built = 0;
  double teardown_begin = 0;
};

/// Engine decorator wrapped around System::make. Times Execute and the
/// completion callback when spans are attached; always reads the event
/// count before the cluster that owns the simulator is destroyed.
class TimedEngine final : public txn::TxnEngine {
 public:
  TimedEngine(std::unique_ptr<txn::TxnEngine> inner,
              const sim::Simulator* simulator, CellProbe* probe)
      : inner_(std::move(inner)), simulator_(simulator), probe_(probe) {}
  ~TimedEngine() override { probe_->events = simulator_->executed_events(); }

  void Execute(const txn::TxnRequest& request, txn::TxnCallback done) override {
    Spans* spans = probe_->spans;
    if (spans == nullptr) {
      inner_->Execute(request, std::move(done));
      return;
    }
    spans->Begin();
    inner_->Execute(request, [spans, done = std::move(done)](
                                 const txn::TxnResult& result) {
      spans->Begin();
      done(result);
      spans->End(Spans::kCallback);
    });
    spans->End(Spans::kExecute);
  }
  std::string name() const override { return inner_->name(); }
  Value DebugValue(Key key) override { return inner_->DebugValue(key); }

 private:
  std::unique_ptr<txn::TxnEngine> inner_;
  const sim::Simulator* simulator_;
  CellProbe* probe_;
};

/// Workload decorator: times Next and marks where RunOnce's teardown starts
/// (the workload is destroyed first of the three deployment parts).
class TimedWorkload final : public workload::Workload {
 public:
  TimedWorkload(std::unique_ptr<workload::Workload> inner, CellProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}
  ~TimedWorkload() override { probe_->teardown_begin = NowS(); }

  txn::TxnRequest Next(Rng& rng) override {
    Spans* spans = probe_->spans;
    if (spans == nullptr) return inner_->Next(rng);
    spans->Begin();
    txn::TxnRequest request = inner_->Next(rng);
    spans->End(Spans::kNext);
    return request;
  }
  std::string name() const override { return inner_->name(); }
  uint64_t keyspace() const override { return inner_->keyspace(); }

 private:
  std::unique_ptr<workload::Workload> inner_;
  CellProbe* probe_;
};

// ---------------------------------------------------------------------------
// Running cells
// ---------------------------------------------------------------------------

struct CellMode {
  int sim_threads = 0;    // 0: the workload's own kernel
  bool decorate = false;  // wrap engine and workload (event count, spans)
  Spans* spans = nullptr;
  bool tracer = false;    // obs::Tracer at 1-in-64
  sim::ParallelPhaseStats* phase_stats = nullptr;
};

struct CellRun {
  harness::RunStats stats;
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t allocs = 0;
};

CellRun RunCell(const BenchWorkload& w, size_t cell, uint64_t seed,
                const CellMode& mode) {
  harness::ExperimentConfig config = w.config;
  if (mode.sim_threads > 0) config.cluster.sim_threads = mode.sim_threads;
  config.cluster.parallel_phase_stats = mode.phase_stats;
  if (mode.tracer) {
    config.cluster.trace.enabled = true;
    config.cluster.trace.sample_period = 64;
  }
  const harness::System& system = w.systems[w.cells[cell].system];
  CellRun run;
  CellProbe probe;
  probe.spans = mode.spans;
  harness::System timed_system = system;
  harness::WorkloadFactory workload_factory = w.make_workload;
  if (mode.decorate) {
    timed_system.make = [&system, &probe](txn::Cluster* c) {
      return std::make_unique<TimedEngine>(system.make(c), c->simulator(),
                                           &probe);
    };
    workload_factory = [&w, &probe] {
      auto wl = std::make_unique<TimedWorkload>(w.make_workload(), &probe);
      probe.workload_built = NowS();
      return wl;
    };
  }
  const uint64_t allocs0 = AllocCount();
  const double t0 = NowS();
  run.stats = harness::RunOnce(config, timed_system, workload_factory,
                               CellSeedOf(seed, w.cells[cell]));
  const double t1 = NowS();
  run.allocs = AllocCount() - allocs0;
  run.wall_s = t1 - t0;
  run.events = probe.events;
  if (mode.spans != nullptr) {
    mode.spans->Add(Spans::kSetup, probe.workload_built - t0);
    mode.spans->Add(Spans::kTeardown, t1 - probe.teardown_begin);
  }
  return run;
}

uint64_t Fnv(uint64_t h, const std::vector<double>& v) {
  for (double d : v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

/// Every simulated output of a cell (counts, per-priority latency samples,
/// the metrics registry), so two runs compare exactly. Traces are left out:
/// the tracer-on run must match a tracer-off run on everything else.
std::string Render(const harness::RunStats& s) {
  uint64_t h = Fnv(Fnv(0xcbf29ce484222325ull, s.latencies_high_ms),
                   s.latencies_low_ms);
  char head[256];
  std::snprintf(head, sizeof(head),
                "%lld/%lld/%lld/%lld/%lld/%zu/%zu/%016llx\n",
                static_cast<long long>(s.committed_high),
                static_cast<long long>(s.committed_low),
                static_cast<long long>(s.aborted_attempts),
                static_cast<long long>(s.user_aborted),
                static_cast<long long>(s.failed), s.latencies_high_ms.size(),
                s.latencies_low_ms.size(), static_cast<unsigned long long>(h));
  return head + s.metrics.ToJson();
}

int64_t Committed(const harness::RunStats& s) {
  return s.committed_high + s.committed_low;
}

double SumCounters(const obs::MetricsSnapshot& m, const std::string& prefix,
                   const std::string& suffix) {
  double sum = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += static_cast<double>(value);
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Set-up probe
// ---------------------------------------------------------------------------

struct SetupTimes {
  double total = 0;
  double cluster = 0;
  double engine = 0;
  double workload = 0;
};

/// Every set-up probe of a run. The metrics are medians, because the cheap
/// deployments take 50-300 us and a burst of host load slows a few of them
/// several-fold.
struct SetupSamples {
  std::vector<double> total, cluster, engine, workload;
  bool site_parallel_eligible = false;
  SetupTimes Medians() const {
    return SetupTimes{Median(total), Median(cluster), Median(engine),
                      Median(workload)};
  }
};

/// Builds the Natto cell's deployment (cluster, engine, workload) as RunOnce
/// does, then destroys it; repeated until `budget_s` has passed and at least
/// `min_probes` times. Samples are recorded multiplied by `scale`.
void MeasureSetup(const BenchWorkload& w, uint64_t seed, double budget_s,
                  size_t min_probes, double scale, SetupSamples* s) {
  const double start = NowS();
  const size_t first = s->total.size();
  while (s->total.size() - first < min_probes || NowS() - start < budget_s) {
    txn::ClusterOptions copts = w.config.cluster;
    copts.seed = CellSeedOf(seed, w.cells[w.natto_cell]);
    copts.default_value = w.config.default_value;
    const double t0 = NowS();
    auto c = std::make_unique<txn::Cluster>(
        w.config.matrix,
        txn::Topology::Spread(w.config.num_partitions, w.config.num_replicas,
                              w.config.matrix.num_sites()),
        copts);
    const double t1 = NowS();
    std::unique_ptr<txn::TxnEngine> e = w.systems[w.natto].make(c.get());
    const double t2 = NowS();
    std::unique_ptr<workload::Workload> wl = w.make_workload();
    const double t3 = NowS();
    s->site_parallel_eligible = c->SiteParallelEligible();
    wl.reset();
    e.reset();
    c.reset();
    s->total.push_back((t3 - t0) * scale);
    s->cluster.push_back((t1 - t0) * scale);
    s->engine.push_back((t2 - t1) * scale);
    s->workload.push_back((t3 - t2) * scale);
  }
}

// ---------------------------------------------------------------------------
// Isolated layer probes
// ---------------------------------------------------------------------------
//
// The kernel's schedule/fire loop and the transport's send/deliver path in
// isolation are perf_kernel's schedule_fire and transport_echo suites, and
// stay there: this benchmark does not keep a second copy of them.

/// raft: one 3-replica group on the local triangle fed a proposal every
/// 100 us through RaftGroup::Propose; ns per committed entry, including the
/// AppendEntries traffic the commit needs.
double ProbeRaftCommit() {
  constexpr uint64_t kProposals = 20'000;
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    net::LatencyMatrix matrix = net::LatencyMatrix::LocalTriangle();
    net::Transport transport(&sim, &matrix, net::MakeConstantDelay(),
                             net::TransportOptions{}, /*seed=*/7);
    Rng rng(11);
    raft::RaftGroup group(&transport, {0, 1, 2}, raft::RaftReplica::Options{},
                          rng);
    struct Ctx {
      sim::Simulator* sim;
      raft::RaftGroup* group;
      uint64_t proposed = 0;
      uint64_t settled = 0;
      uint64_t committed = 0;
      std::function<void()> propose;
    } ctx{&sim, &group, 0, 0, 0, {}};
    ctx.propose = [&ctx]() {
      ctx.group->Propose(
          ++ctx.proposed,
          [c = &ctx]() {
            ++c->committed;
            if (++c->settled == kProposals) c->sim->Stop();
          },
          [c = &ctx](bool) {
            if (++c->settled == kProposals) c->sim->Stop();
          });
      if (ctx.proposed < kProposals) {
        ctx.sim->ScheduleAfter(Micros(100), [c = &ctx]() { c->propose(); });
      }
    };
    sim.ScheduleAfter(0, [&ctx]() { ctx.propose(); });
    const double t0 = NowS();
    sim.Run();
    const double t1 = NowS();
    ns.push_back(Ratio((t1 - t0) * 1e9, static_cast<double>(ctx.committed)));
  }
  return Median(ns);
}

struct StoreProbe {
  double next_ns_per_txn = 0;
  double lock_ns_per_op = 0;
  double kv_ns_per_get = 0;
  double kv_ns_per_apply = 0;
  double prepared_ns_per_op = 0;
};

/// store and workload: 100k requests drawn from the workload's own Next
/// (timed), then replayed through a LockTable, a KvStore and a PreparedSet
/// with 8 transactions in flight, so contended keys queue and conflict as
/// the workload's skew dictates.
StoreProbe ProbeStore(const BenchWorkload& w, uint64_t seed) {
  constexpr size_t kRequests = 100'000;
  constexpr size_t kInFlight = 8;
  struct Footprint {
    std::vector<Key> reads;
    std::vector<Key> writes;
  };
  std::vector<double> next_ns, lock_ns, get_ns, apply_ns, prepared_ns;
  for (int rep = 0; rep < 3; ++rep) {
    std::unique_ptr<workload::Workload> wl = w.make_workload();
    Rng rng(seed);
    std::vector<Footprint> txns(kRequests);
    double t0 = NowS();
    for (Footprint& f : txns) {
      txn::TxnRequest r = wl->Next(rng);
      f.reads = std::move(r.read_set);
      f.writes = std::move(r.write_set);
    }
    next_ns.push_back((NowS() - t0) * 1e9 / kRequests);

    uint64_t acquires = 0;
    {
      store::LockTable locks;
      t0 = NowS();
      for (size_t i = 0; i < kRequests; ++i) {
        const TxnId id = i + 1;
        const int priority = static_cast<int>(i % 10 == 0);
        for (Key k : txns[i].reads) {
          locks.Acquire(k, id, store::LockMode::kShared, priority, 0, [] {});
        }
        for (Key k : txns[i].writes) {
          locks.Acquire(k, id, store::LockMode::kExclusive, priority, 0,
                        [] {});
        }
        acquires += txns[i].reads.size() + txns[i].writes.size();
        if (i >= kInFlight) locks.ReleaseAll(id - kInFlight);
      }
      lock_ns.push_back(Ratio((NowS() - t0) * 1e9,
                              static_cast<double>(acquires)));
    }

    store::KvStore kv(w.config.default_value);
    uint64_t applies = 0, gets = 0;
    Value sink = 0;
    t0 = NowS();
    for (size_t i = 0; i < kRequests; ++i) {
      for (Key k : txns[i].writes) kv.Apply(k, static_cast<Value>(i), i + 1);
      applies += txns[i].writes.size();
    }
    apply_ns.push_back(Ratio((NowS() - t0) * 1e9, static_cast<double>(applies)));
    t0 = NowS();
    for (size_t i = 0; i < kRequests; ++i) {
      for (Key k : txns[i].reads) sink += kv.Get(k).value;
      gets += txns[i].reads.size();
    }
    get_ns.push_back(Ratio((NowS() - t0) * 1e9, static_cast<double>(gets)));
    if (sink == 0x5eed) std::fprintf(stderr, " ");  // keeps the reads live

    store::PreparedSet prepared;
    uint64_t conflicts = 0;
    t0 = NowS();
    for (size_t i = 0; i < kRequests; ++i) {
      const Footprint& f = txns[i];
      conflicts += prepared.HasConflict(f.reads, f.writes) ? 1 : 0;
      prepared.Add(i + 1, f.reads, f.writes);
      if (i >= kInFlight) prepared.Remove(i + 1 - kInFlight);
    }
    prepared_ns.push_back((NowS() - t0) * 1e9 / (3.0 * kRequests));
    if (conflicts > kRequests) std::fprintf(stderr, " ");
  }
  return StoreProbe{Median(next_ns), Median(lock_ns), Median(get_ns),
                    Median(apply_ns), Median(prepared_ns)};
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;  // the set the mode reports on stdout
  std::vector<Metric> extra;    // report-file only
  std::vector<std::string> errors;
  int attempted = 0;
  int failed_cells = 0;
  int rounds = 0;
  std::vector<std::vector<double>> cell_walls;
  std::vector<std::vector<double>> cell_ref_walls;  // at reference host speed
  std::vector<int64_t> cell_committed;  // measurement window
  std::vector<int64_t> cell_attempts;
};

void Fail(Result* r, const std::string& what) {
  std::fprintf(stderr, "natto_bench: CHECK FAILED: %s\n", what.c_str());
  r->errors.push_back(what);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

bool WriteReport(const std::string& path, const BenchWorkload& w,
                 uint64_t seed, const std::string& mode, const Result& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "natto_bench: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  auto list = [](const std::vector<std::vector<double>>& per_cell, size_t c) {
    std::string out = "[";
    if (c < per_cell.size()) {
      for (size_t i = 0; i < per_cell[c].size(); ++i) {
        out += (i ? ", " : "") + JsonNumber(per_cell[c][i]);
      }
    }
    return out + "]";
  };
  std::string cells = "[";
  for (size_t c = 0; c < w.cells.size(); ++c) {
    cells += (c ? ", " : "") + std::string("{\"system\": \"") +
             w.systems[w.cells[c].system].name +
             "\", \"repeat\": " + std::to_string(w.cells[c].repeat) +
             ", \"committed\": " + std::to_string(r.cell_committed[c]) +
             ", \"attempts\": " + std::to_string(r.cell_attempts[c]) +
             ", \"wall_s\": " + list(r.cell_walls, c) +
             ", \"ref_wall_s\": " + list(r.cell_ref_walls, c) + "}";
  }
  cells += "]";
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i ? ", \"" : "\"") + r.errors[i] + "\"";
  }
  errors += "]";
  std::fprintf(f,
               "{\"workload\": \"%s\", \"mode\": \"%s\", \"seed\": %llu, "
               "\"host_cpus\": %u, \"sim_threads\": %d, \"rounds\": %d, "
               "\"correct\": %s, \"errors\": %s,\n \"cells\": %s,\n "
               "\"metrics\": %s,\n \"extra\": %s}\n",
               w.name.c_str(), mode.c_str(),
               static_cast<unsigned long long>(seed),
               std::thread::hardware_concurrency(),
               w.config.cluster.sim_threads, r.rounds,
               r.errors.empty() ? "true" : "false", errors.c_str(),
               cells.c_str(), MetricsJson(r.metrics).c_str(),
               MetricsJson(r.extra).c_str());
  std::fclose(f);
  return true;
}

void PrintResult(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.extra) {
    std::printf("  %-40s %18.6f %s  (report only)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              r.errors.empty() ? "true" : "false", r.attempted,
              r.errors.empty() ? 0 : std::max(r.failed_cells, 1),
              MetricsJson(r.metrics).c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage ru = {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Records a cell's counts and checks the outputs that hold in any mode:
/// work was committed, and every system abort carries a cause.
void CheckCell(const BenchWorkload& w, size_t c, const harness::RunStats& s,
               Result* r) {
  r->cell_committed.resize(w.cells.size());
  r->cell_attempts.resize(w.cells.size());
  r->cell_committed[c] = Committed(s);
  r->cell_attempts[c] = Committed(s) + s.aborted_attempts;
  bool ok = true;
  if (Committed(s) <= 0) {
    Fail(r, CellName(w, c) + ": committed nothing");
    ok = false;
  }
  if (s.metrics.counter("client.abort_cause.unknown") != 0) {
    Fail(r, CellName(w, c) + ": aborts with no cause");
    ok = false;
  }
  if (!ok) ++r->failed_cells;
}

/// Totals over a set of cell runs, measurement window only.
struct Totals {
  double committed = 0;
  double aborted = 0;
  double failed = 0;
  double sim_s = 0;
  void Add(const harness::RunStats& s, const harness::ExperimentConfig& c) {
    committed += static_cast<double>(Committed(s));
    aborted += static_cast<double>(s.aborted_attempts);
    failed += static_cast<double>(s.failed);
    sim_s += ToSeconds(c.duration + c.drain);
  }
};

bool IsNattoCell(const BenchWorkload& w, size_t c) {
  return w.cells[c].system == w.natto;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 4242;
  int rounds = 3;
  double seconds = 0;
  bool traced = false;
  bool counts = false;
  std::string out;
};

/// Shares of each cell's wall time spent, right after it, on the host-speed
/// reference and on set-up probes.
constexpr double kReferenceShare = 0.02;
constexpr double kSetupProbeShare = 0.02;

/// End-to-end: at least `rounds` interleaved rounds of every cell, and more
/// while at least half of the next round fits in `seconds`. Simulated
/// metrics come from round 1, and every later round must reproduce round 1
/// exactly. Wall metrics sum the per-cell median RunOnce wall, each sample
/// scaled to the reference host speed by the HostReference units timed just
/// before and just after it. Set-up probes run in short batches after every
/// cell, scaled by the reference units just before them, so their median
/// sees the host over the whole run rather than during one burst.
Result RunEndToEnd(const BenchWorkload& w, const Args& args) {
  Result r;
  SetupSamples setup;
  std::vector<double> setup_scales;
  HostReference reference;
  std::vector<double> units = {reference.UnitS(0.02)};
  const size_t n = w.cells.size();
  std::vector<harness::RunStats> first(n);
  std::vector<std::string> rendered(n);
  r.cell_walls.assign(n, {});
  r.cell_ref_walls.assign(n, {});
  const double start = NowS();
  while (true) {
    for (size_t c = 0; c < n; ++c) {
      CellRun run = RunCell(w, c, args.seed, CellMode{});
      const double before = units.back();
      units.push_back(reference.UnitS(kReferenceShare * run.wall_s));
      const double after = units.back();
      const double scale = HostReference::kNominalUnitS / after;
      MeasureSetup(w, args.seed, kSetupProbeShare * run.wall_s, 1, scale,
                   &setup);
      setup_scales.resize(setup.total.size(), scale);
      r.cell_walls[c].push_back(run.wall_s);
      r.cell_ref_walls[c].push_back(run.wall_s * HostReference::kNominalUnitS /
                                    (0.5 * (before + after)));
      ++r.attempted;
      if (r.rounds == 0) {
        CheckCell(w, c, run.stats, &r);
        rendered[c] = Render(run.stats);
        first[c] = std::move(run.stats);
      } else if (Render(run.stats) != rendered[c]) {
        Fail(&r, CellName(w, c) + ": round " + std::to_string(r.rounds + 1) +
                     " differs from round 1");
        ++r.failed_cells;
      }
    }
    ++r.rounds;
    const double elapsed = NowS() - start;
    if (r.rounds >= kMaxRounds) break;
    if (r.rounds >= args.rounds &&
        (args.seconds <= 0 ||
         elapsed + 0.5 * elapsed / r.rounds > args.seconds)) {
      break;
    }
  }
  if (w.name == "site_parallel" && !setup.site_parallel_eligible) {
    Fail(&r, "site_parallel is not site-parallel eligible; the cell would "
             "run the degenerate serial loop");
  }
  std::vector<double> raw_setup(setup.total.size());
  for (size_t i = 0; i < raw_setup.size(); ++i) {
    raw_setup[i] = setup.total[i] / setup_scales[i];
  }

  double wall = 0, raw_wall = 0;
  Totals all, natto;
  std::vector<double> high, low;
  for (size_t c = 0; c < n; ++c) {
    wall += Median(r.cell_ref_walls[c]);
    raw_wall += Median(r.cell_walls[c]);
    all.Add(first[c], w.config);
    if (IsNattoCell(w, c)) {
      natto.Add(first[c], w.config);
      high.insert(high.end(), first[c].latencies_high_ms.begin(),
                  first[c].latencies_high_ms.end());
      low.insert(low.end(), first[c].latencies_low_ms.begin(),
                 first[c].latencies_low_ms.end());
    }
  }
  for (const std::vector<double>* v : {&high, &low}) {
    if (0.95 * static_cast<double>(v->size()) <
        static_cast<double>(kMinSamplesUnderP95)) {
      Fail(&r, w.name + ": Natto-RECSF has " + std::to_string(v->size()) +
                   " samples of one priority, too few under its p95");
    }
  }
  const double measured_s =
      kNattoRepeats * ToSeconds(w.config.duration - w.config.cooldown -
                                w.config.warmup);
  r.metrics = {
      {"txns_per_wall_s", all.committed / wall, "txn/s"},
      {"sim_s_per_wall_s", all.sim_s / wall, "s/s"},
      {"setup_s", setup.Medians().total, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"p50_high_ms", harness::Percentile(high, 0.50), "ms"},
      {"p95_high_ms", harness::Percentile(high, 0.95), "ms"},
      {"p50_low_ms", harness::Percentile(low, 0.50), "ms"},
      {"p95_low_ms", harness::Percentile(low, 0.95), "ms"},
      {"goodput_tps", natto.committed / measured_s, "txn/sim-s"},
      {"attempts_per_commit",
       Ratio(all.aborted + all.committed, all.committed), "count"},
      {"commit_fraction", Ratio(all.committed, all.committed + all.failed),
       "ratio"},
  };
  r.extra = {
      {"abort_fraction", Ratio(all.aborted, all.aborted + all.committed),
       "ratio"},
      {"failed_fraction", Ratio(all.failed, all.committed + all.failed),
       "ratio"},
      {"high_samples", static_cast<double>(high.size()), "count"},
      {"low_samples", static_cast<double>(low.size()), "count"},
      {"setup_probes", static_cast<double>(setup.total.size()), "count"},
      {"raw_setup_s", Median(raw_setup), "s"},
      {"wall_s", wall, "s"},
      {"raw_wall_s", raw_wall, "s"},
      {"host_speed", HostReference::kNominalUnitS / Median(units), "ratio"},
  };
  return r;
}

/// Per-layer split of the workload's cells, measured from the outside:
///   A  every cell as in the end-to-end run, engines wrapped only to read
///      the event count: counts per committed txn, the metrics registry;
///   P  the first Natto cell under the other kernel (serial vs
///      kSimThreads), with the parallel kernel's phase stats: par.*;
///   B  every cell on the serial kernel with spans around the engine,
///      completion-callback and workload interfaces: self times, residual;
///   T  the first Natto cell with the tracer on: obs.tracer_wall_ratio;
/// then isolated probes of single layers. A, P, B and T must produce the
/// same simulated outputs.
Result RunTraced(const BenchWorkload& w, const Args& args) {
  Result r;
  r.rounds = 1;
  SetupSamples setup_samples;
  MeasureSetup(w, args.seed, 0.5, 5, 1.0, &setup_samples);
  const SetupTimes setup = setup_samples.Medians();
  const bool eligible = setup_samples.site_parallel_eligible;
  const size_t n = w.cells.size();
  const size_t nc = w.natto_cell;
  const int own_threads = w.config.cluster.sim_threads;
  r.cell_walls.assign(n, {});

  sim::ParallelPhaseStats own_phase, other_phase;
  std::vector<CellRun> a(n);
  for (size_t c = 0; c < n; ++c) {
    CellMode mode;
    mode.decorate = true;
    if (c == nc && own_threads > 1) mode.phase_stats = &own_phase;
    a[c] = RunCell(w, c, args.seed, mode);
    r.cell_walls[c].push_back(a[c].wall_s);
    CheckCell(w, c, a[c].stats, &r);
    ++r.attempted;
  }
  const std::string natto_out = Render(a[nc].stats);

  CellMode other;
  other.decorate = true;
  other.sim_threads = own_threads > 1 ? 1 : kSimThreads;
  if (other.sim_threads > 1) other.phase_stats = &other_phase;
  CellRun p = RunCell(w, nc, args.seed, other);
  ++r.attempted;
  if (Render(p.stats) != natto_out) {
    Fail(&r, w.name + ": serial and " + std::to_string(kSimThreads) +
                 "-thread Natto-RECSF outputs differ");
  }
  const CellRun& serial = own_threads > 1 ? p : a[nc];
  const CellRun& parallel = own_threads > 1 ? a[nc] : p;
  const sim::ParallelPhaseStats& phase =
      own_threads > 1 ? own_phase : other_phase;

  Spans spans;
  double b_wall = 0, natto_b_wall = 0;
  for (size_t c = 0; c < n; ++c) {
    CellMode mode;
    mode.decorate = true;
    mode.sim_threads = 1;
    mode.spans = &spans;
    CellRun b = RunCell(w, c, args.seed, mode);
    ++r.attempted;
    b_wall += b.wall_s;
    if (c == nc) natto_b_wall = b.wall_s;
    if (Render(b.stats) != Render(a[c].stats)) {
      Fail(&r, CellName(w, c) + ": outputs change when spans are recorded");
    }
  }

  CellMode tracer;
  tracer.tracer = true;
  CellRun t = RunCell(w, nc, args.seed, tracer);
  ++r.attempted;
  // Known defect, recorded rather than failed: the tracer makes a config
  // ineligible for site-parallel windows, and eligibility also selects the
  // CPU-cost model's service discipline (deferred_node_service), so on an
  // eligible config with that model the tracer changes the simulation.
  const bool tracer_identical = Render(t.stats) == natto_out;
  const bool tracer_switches_service =
      eligible && w.config.cluster.transport.node_cost_per_message > 0;
  if (!tracer_identical && !tracer_switches_service) {
    Fail(&r, w.name + ": outputs change when the tracer is on");
  }

  const double ns_per_commit = ProbeRaftCommit();
  const StoreProbe store = ProbeStore(w, args.seed);

  Totals all, natto;
  double events = 0, allocs = 0;
  obs::MetricsSnapshot pooled, natto_metrics;
  pooled.runs = 0;
  natto_metrics.runs = 0;
  double spanner_committed = 0;
  for (size_t c = 0; c < n; ++c) {
    all.Add(a[c].stats, w.config);
    events += static_cast<double>(a[c].events);
    allocs += static_cast<double>(a[c].allocs);
    pooled.MergeFrom(a[c].stats.metrics);
    if (IsNattoCell(w, c)) {
      natto.Add(a[c].stats, w.config);
      natto_metrics.MergeFrom(a[c].stats.metrics);
    }
    const harness::SystemKind k = w.systems[w.cells[c].system].kind;
    if (k == harness::SystemKind::kTwoPl ||
        k == harness::SystemKind::kTwoPlPreempt ||
        k == harness::SystemKind::kTwoPlPow) {
      spanner_committed += static_cast<double>(Committed(a[c].stats));
    }
  }
  auto counter = [&pooled](const std::string& name) {
    return static_cast<double>(pooled.counter(name));
  };
  auto natto_counter = [&natto_metrics](const char* suffix) {
    return SumCounters(natto_metrics, "natto.server.", suffix);
  };
  double appends = 0, entries = 0;
  if (auto it = pooled.histograms.find("raft.entries_per_append");
      it != pooled.histograms.end()) {
    appends = static_cast<double>(it->second.count);
    entries = it->second.sum;
  }
  const double queued = SumCounters(pooled, "", ".locks.queued");
  const double immediate = SumCounters(pooled, "", ".locks.acquired_immediate");
  const double all_aborts = SumCounters(pooled, "client.abort_cause.", "");
  const double sim_s = ToSeconds(w.config.duration + w.config.drain);
  // Speedup of the windowed execution with a core per site: per-site
  // execution CPU over each window's slowest site plus the serial merge.
  // (Subtracting the parallel run's execution CPU from the serial wall, as
  // perf_kernel does, overshoots when contended workers run slower than the
  // serial loop: 12x on `writes`.)
  const double critical = phase.exec_critical_cpu_seconds +
                          phase.merge_cpu_seconds;
  const double residual = 1.0 - Ratio(spans.total(), b_wall);

  r.metrics = {
      {"sim.events_per_txn", Ratio(events, all.committed), "count"},
      {"sim.allocs_per_txn", Ratio(allocs, all.committed), "count"},
      {"par.speedup_wall", Ratio(serial.wall_s, parallel.wall_s), "x"},
      {"par.speedup_modeled",
       phase.windows > 0 ? Ratio(phase.exec_cpu_seconds, critical) : 1.0,
       "x"},
      {"par.windows_per_sim_s", static_cast<double>(phase.windows) / sim_s,
       "1/s"},
      {"par.critical_path_share",
       Ratio(phase.exec_critical_cpu_seconds, phase.exec_cpu_seconds),
       "ratio"},
      {"par.merge_share", Ratio(phase.merge_cpu_seconds, parallel.wall_s),
       "ratio"},
      {"par.serialized_fires_per_txn",
       Ratio(static_cast<double>(phase.serialized_fires),
             static_cast<double>(Committed(a[nc].stats))),
       "count"},
      {"net.msgs_per_txn", Ratio(counter("net.messages_sent"), all.committed),
       "count"},
      {"net.wire_msgs_per_txn",
       Ratio(counter("net.batches_sent"), all.committed), "count"},
      {"net.bytes_per_txn", Ratio(counter("net.bytes_sent"), all.committed),
       "B"},
      {"raft.appends_per_txn", Ratio(appends, all.committed), "count"},
      {"raft.entries_per_append", Ratio(entries, appends), "count"},
      {"raft.ns_per_commit", ns_per_commit, "ns"},
      {"store.lock_wait_ratio", Ratio(queued, queued + immediate), "ratio"},
      {"store.lock_ns_per_op", store.lock_ns_per_op, "ns"},
      {"store.kv_ns_per_get", store.kv_ns_per_get, "ns"},
      {"store.kv_ns_per_apply", store.kv_ns_per_apply, "ns"},
      {"store.prepared_ns_per_op", store.prepared_ns_per_op, "ns"},
      {"engine.execute_us_per_attempt",
       Ratio(spans.self(Spans::kExecute) * 1e6,
             static_cast<double>(spans.count(Spans::kExecute))),
       "us"},
      {"natto.priority_aborts_per_txn",
       Ratio(natto_counter(".priority_aborts"), natto.committed), "count"},
      {"natto.order_violation_aborts_per_txn",
       Ratio(natto_counter(".order_violation_aborts"), natto.committed),
       "count"},
      {"natto.cp_satisfied_ratio",
       Ratio(natto_counter(".cp_satisfied"),
             natto_counter(".conditional_prepares")),
       "ratio"},
      {"client.callback_us_per_attempt",
       Ratio(spans.self(Spans::kCallback) * 1e6,
             static_cast<double>(spans.count(Spans::kCallback))),
       "us"},
  };
  for (const char* cause : {"occ_conflict", "priority_abort", "order_violation",
                            "stale_retry", "fast_path_failed", "wound"}) {
    r.metrics.push_back(
        {std::string("client.abort.") + cause + "_share",
         Ratio(counter(std::string("client.abort_cause.") + cause), all_aborts),
         "ratio"});
  }
  r.metrics.insert(
      r.metrics.end(),
      {
          {"workload.next_ns_per_txn", store.next_ns_per_txn, "ns"},
          {"workload.construct_s", setup.workload, "s"},
          {"txn.cluster_construct_s", setup.cluster, "s"},
          {"engine.construct_s", setup.engine, "s"},
          {"obs.span_overhead", Ratio(natto_b_wall, serial.wall_s) - 1.0,
           "ratio"},
          {"obs.tracer_wall_ratio", Ratio(t.wall_s, a[nc].wall_s), "ratio"},
          {"run.residual_share", residual, "ratio"},
      });

  r.extra = {
      {"par.serial_wall_s", serial.wall_s, "s"},
      {"par.parallel_wall_s", parallel.wall_s, "s"},
      {"par.windows", static_cast<double>(phase.windows), "count"},
      {"par.exec_cpu_s", phase.exec_cpu_seconds, "s"},
      {"obs.tracer_output_identical", tracer_identical ? 1.0 : 0.0, "bool"},
      {"span.wall_s", b_wall, "s"},
      {"carousel.slow_path_share",
       Ratio(SumCounters(pooled, "carousel.coord.", ".slow_path_starts"),
             SumCounters(pooled, "carousel.coord.", ".commits") +
                 SumCounters(pooled, "carousel.coord.", ".aborts")),
       "ratio"},
      {"tapir.slow_path_share",
       Ratio(SumCounters(pooled, "tapir.gateway.", ".slow_path_starts"),
             SumCounters(pooled, "tapir.gateway.", ".commits") +
                 SumCounters(pooled, "tapir.gateway.", ".aborts")),
       "ratio"},
      {"spanner.wounds_per_txn",
       Ratio(SumCounters(pooled, "spanner.", ".wounds_issued"),
             spanner_committed),
       "count"},
  };
  double shares = residual;
  for (int k = 0; k < Spans::kNumKinds; ++k) {
    const Spans::Kind kind = static_cast<Spans::Kind>(k);
    const double share = Ratio(spans.self(kind), b_wall);
    shares += share;
    r.extra.push_back(
        {std::string("span.") + Spans::kNames[k] + "_share", share, "ratio"});
  }
  if (std::fabs(shares - 1.0) > 0.01) {
    Fail(&r, w.name + ": span shares and residual do not add up to 1");
  }
  return r;
}

/// Deterministic counts on shortened (3 s simulated) cells for the ceiling
/// gate: two identical rounds, and on the workloads that run the parallel
/// kernel a serial rerun with identical outputs.
Result RunCounts(BenchWorkload w, const Args& args) {
  Shorten(&w, Seconds(3));
  Result r;
  r.rounds = 2;
  const int own_threads = w.config.cluster.sim_threads;
  Totals all;
  double events = 0, allocs = 0, msgs = 0;
  for (size_t c = 0; c < w.cells.size(); ++c) {
    CellMode mode;
    mode.decorate = true;
    CellRun first = RunCell(w, c, args.seed, mode);
    CellRun second = RunCell(w, c, args.seed, mode);
    r.attempted += 2;
    CheckCell(w, c, first.stats, &r);
    const std::string out = Render(first.stats);
    if (Render(second.stats) != out || second.events != first.events) {
      Fail(&r, CellName(w, c) + ": rounds differ");
    }
    if (own_threads > 1) {
      mode.sim_threads = 1;
      CellRun serial = RunCell(w, c, args.seed, mode);
      ++r.attempted;
      if (Render(serial.stats) != out || serial.events != first.events) {
        Fail(&r, CellName(w, c) + ": serial and parallel outputs differ");
      }
    }
    all.Add(first.stats, w.config);
    events += static_cast<double>(first.events);
    allocs += static_cast<double>(std::max(first.allocs, second.allocs));
    msgs += static_cast<double>(
        first.stats.metrics.counter("net.messages_sent"));
  }
  r.metrics = {
      {"sim.events_per_txn", Ratio(events, all.committed), "count"},
      {"net.msgs_per_txn", Ratio(msgs, all.committed), "count"},
      {"sim.allocs_per_txn", Ratio(allocs, all.committed), "count"},
  };
  return r;
}

int Usage() {
  std::fprintf(stderr,
               "usage: natto_bench --workload=contention|writes|site_parallel|"
               "jitter [--seed=N] [--rounds=R] [--seconds=S] "
               "[--traced | --counts] [--out=PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args.workload = v;
    } else if (const char* v = value("--seed=")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--rounds=")) {
      args.rounds = std::max(1, std::atoi(v));
    } else if (const char* v = value("--seconds=")) {
      args.seconds = std::atof(v);
    } else if (const char* v = value("--out=")) {
      args.out = v;
    } else if (arg == "--traced") {
      args.traced = true;
    } else if (arg == "--counts") {
      args.counts = true;
    } else {
      return Usage();
    }
  }
  BenchWorkload w;
  if (!MakeBenchWorkload(args.workload, &w) || (args.traced && args.counts)) {
    return Usage();
  }
  const std::string mode =
      args.traced ? "traced" : (args.counts ? "counts" : "end_to_end");
  std::printf("natto_bench %s workload=%s seed=%llu host_cpus=%u\n",
              mode.c_str(), w.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              std::thread::hardware_concurrency());
  Result r = args.traced   ? RunTraced(w, args)
             : args.counts ? RunCounts(w, args)
                           : RunEndToEnd(w, args);
  if (!args.out.empty() && !WriteReport(args.out, w, args.seed, mode, r)) {
    return 1;
  }
  PrintResult(r);
  return r.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace natto::bench

int main(int argc, char** argv) { return natto::bench::Main(argc, argv); }
