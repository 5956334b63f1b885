// Event-kernel perf-regression bench. Emits BENCH_kernel.json so every PR's
// kernel throughput is measured and comparable against the previous one
// (see EXPERIMENTS.md "Perf regression").
//
// Five suites, each repeated `--reps` times (default 5) with p50/p99 wall
// times reported:
//   schedule_fire   K self-rescheduling timers with mixed deterministic
//                   delays — the Simulator schedule/pop hot loop in
//                   isolation, with a realistic (24-byte capture) closure.
//   transport_echo  P concurrent ping-pong chains through net::Transport —
//                   the full Send/deliver envelope path.
//   fig7_ycsbt_cell one serial end-to-end harness::RunOnce YCSB+T cell —
//                   what a figure-grid worker thread actually executes.
//                   Reports committed transactions per rep and per p50
//                   wall second, not events.
//   parallel_windows  per-site event chains on a 4-site WAN grid run twice:
//                   serial kernel vs the 4-thread site-parallel kernel
//                   (sim/parallel_kernel.h). Reports the 4-thread
//                   throughput, the wall speedup over serial, a *modeled*
//                   4-core speedup from the kernel's per-phase CPU clocks
//                   (critical path = slowest site per window + the serial
//                   barrier merge — what wall clock becomes when every
//                   worker has its own core; on hosts with < 4 cores the
//                   wall number only measures time-slicing), and a dsan
//                   digest-equality probe (the two modes must fold the
//                   exact same (time, seq, parent) stream).
//   fig14_site_parallel  the saturated Fig 14 cell (LocalTriangle, Retwis
//                   uniform, 25 us/message server CPU) run end to end:
//                   serial kernel vs NATTO_SIM_THREADS=4 site-parallel.
//                   Same speedup/model/identity reporting as
//                   parallel_windows, but with the real engine stack on the
//                   per-site lanes, and committed transactions in place of
//                   events. `--check-parallel-speedup=X` gates CI on both
//                   site-parallel suites' modeled speedup and output
//                   identity.
//
// Allocation accounting: this TU replaces global operator new/delete with
// counting forwarders to malloc/free. The schedule_fire and transport_echo
// suites report allocs/event over the steady-state window (after a warmup
// fraction, so pools and freelists are populated); `--check-steady-allocs`
// exits nonzero if that number is > 0, which is the CI regression gate.
//
// This binary intentionally reads the host's monotonic clock: it measures
// wall time of the kernel itself and never feeds timing back into a
// simulation, so the determinism rule does not apply (suppressed per line).

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
#include <string>
#include <thread>
#include <vector>

#include "common/parse_number.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/systems.h"
#include "net/delay_model.h"
#include "net/latency_matrix.h"
#include "net/transport.h"
#include "sim/dsan.h"
#include "sim/parallel_kernel.h"
#include "sim/simulator.h"
#include "workload/retwis.h"
#include "workload/ycsbt.h"

// ---------------------------------------------------------------------------
// Counting allocator hook
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  std::abort();  // benches don't recover from OOM
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace natto::bench {
namespace {

uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

using Clock = std::chrono::steady_clock;  // NOLINT(natto-wallclock)

double ElapsedNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Ceil-rank percentile over a copy of `v` (same convention as
/// harness::Percentile, duplicated here so the bench links light).
double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::max(
      1.0, std::min(static_cast<double>(v.size()),
                    std::ceil(p / 100.0 * static_cast<double>(v.size())))));
  return v[rank - 1];
}

struct SuiteResult {
  std::string name;
  /// Event suites: kernel events per rep and their p50 rates.
  uint64_t events_per_rep = 0;
  double wall_ms_p50 = 0;
  double wall_ms_p99 = 0;
  double events_per_sec_p50 = 0;
  double ns_per_event_p50 = 0;
  /// End-to-end suites (fig7_ycsbt_cell, fig14_site_parallel) count
  /// committed transactions instead; 0 marks an event suite.
  uint64_t committed_txns_per_rep = 0;
  double committed_txns_per_sec_p50 = 0;
  /// Allocations per event over the steady-state window; negative when the
  /// suite does not measure allocations (the e2e cell allocates by design:
  /// transactions carry vectors).
  double steady_allocs_per_event = -1.0;
  /// Site-parallel suites only (0 / -1 = not measured). `speedup_4t` is the
  /// headline capability number: the observed wall ratio when the host has
  /// >= 4 cores to actually run the workers, otherwise the modeled ratio
  /// (per-thread-CPU critical path; see ParallelPhaseStats). Both inputs
  /// are always recorded alongside, with the host core count.
  double speedup_4t = 0.0;
  double speedup_4t_wall = 0.0;
  double speedup_4t_modeled = 0.0;
  unsigned host_cpus = 0;
  int digests_match = -1;
  uint64_t windows = 0;
  uint64_t serialized_fires = 0;
};

struct Options {
  bool quick = false;
  int reps = 5;
  bool check_steady_allocs = false;
  /// When > 0, exit nonzero unless every site-parallel suite's *modeled*
  /// 4-thread speedup clears this bar with matching digests (the CI gate
  /// for the site-parallel kernel's capability claim).
  double check_parallel_speedup = 0.0;
  std::string out_path = "BENCH_kernel.json";
};

// ---------------------------------------------------------------------------
// Suite 1: schedule/fire microbench
// ---------------------------------------------------------------------------

/// K timers, each rescheduling itself with a deterministic pseudo-random
/// delay in [100 us, 5.1 ms] until `total_events` callbacks have run. The
/// capture (context pointer + timer id + salt) mirrors a realistic protocol
/// timer closure and exceeds libstdc++'s 16-byte std::function SBO — the
/// seed kernel paid one heap closure per schedule here.
SuiteResult RunScheduleFire(const Options& opt) {
  const int timers = opt.quick ? 2048 : 8192;
  const uint64_t total_events =
      opt.quick ? 400'000 : 2'000'000;

  struct Ctx {
    sim::Simulator sim;
    uint64_t fired = 0;
    uint64_t budget = 0;
    uint64_t steady_after = 0;   // event count at which steady window opens
    uint64_t allocs_at_steady = 0;
    std::function<void(uint32_t, uint64_t)> arm;
  };

  SuiteResult r;
  r.name = "schedule_fire";
  r.events_per_rep = total_events;
  std::vector<double> wall_ns;
  double steady_allocs = 0;

  for (int rep = 0; rep < opt.reps; ++rep) {
    Ctx ctx;
    ctx.budget = total_events;
    ctx.steady_after = total_events / 5;  // 20% warmup fills the pools
    ctx.arm = [&ctx](uint32_t timer, uint64_t salt) {
      // SplitMix64-style hash: deterministic, no shared RNG stream.
      uint64_t z = (salt + 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      SimDuration delay = 100 + static_cast<SimDuration>((z ^ (z >> 31)) % 5000);
      ctx.sim.ScheduleAfter(delay, [c = &ctx, timer, salt]() {
        ++c->fired;
        if (c->fired == c->steady_after) c->allocs_at_steady = AllocCount();
        if (c->fired >= c->budget) {
          c->sim.Stop();
          return;
        }
        c->arm(timer, salt * 6364136223846793005ull + timer + 1);
      });
    };
    for (int t = 0; t < timers; ++t) {
      ctx.arm(static_cast<uint32_t>(t), static_cast<uint64_t>(t) << 17);
    }
    auto t0 = Clock::now();  // NOLINT(natto-wallclock)
    ctx.sim.Run();
    auto t1 = Clock::now();  // NOLINT(natto-wallclock)
    uint64_t allocs_end = AllocCount();
    wall_ns.push_back(ElapsedNs(t0, t1));
    steady_allocs = static_cast<double>(allocs_end - ctx.allocs_at_steady) /
                    static_cast<double>(ctx.fired - ctx.steady_after);
  }

  r.wall_ms_p50 = Pct(wall_ns, 50) / 1e6;
  r.wall_ms_p99 = Pct(wall_ns, 99) / 1e6;
  r.ns_per_event_p50 = Pct(wall_ns, 50) / static_cast<double>(total_events);
  r.events_per_sec_p50 =
      static_cast<double>(total_events) / (Pct(wall_ns, 50) / 1e9);
  r.steady_allocs_per_event = steady_allocs;  // last rep: fully warmed
  return r;
}

// ---------------------------------------------------------------------------
// Suite 2: transport echo storm
// ---------------------------------------------------------------------------

/// P independent ping-pong chains across a 3-site triangle: every delivery
/// immediately sends the reply. Exercises the full Send path (capacity
/// model off, delay model constant) plus the delivery envelope.
SuiteResult RunTransportEcho(const Options& opt) {
  const int chains = 512;
  const uint64_t total_msgs = opt.quick ? 200'000 : 1'000'000;

  SuiteResult r;
  r.name = "transport_echo";
  r.events_per_rep = total_msgs;
  std::vector<double> wall_ns;
  double steady_allocs = 0;

  for (int rep = 0; rep < opt.reps; ++rep) {
    sim::Simulator sim;
    net::LatencyMatrix matrix = net::LatencyMatrix::LocalTriangle();
    net::Transport transport(&sim, &matrix, net::MakeConstantDelay(),
                             net::TransportOptions{}, /*seed=*/7);
    std::vector<net::NodeId> nodes;
    for (int s = 0; s < 3; ++s) nodes.push_back(transport.AddNode(s));

    struct Ctx {
      sim::Simulator* sim;
      net::Transport* transport;
      std::vector<net::NodeId>* nodes;
      uint64_t delivered = 0;
      uint64_t budget = 0;
      uint64_t steady_after = 0;
      uint64_t allocs_at_steady = 0;
      std::function<void(int, int)> volley;
    } ctx;
    ctx.sim = &sim;
    ctx.transport = &transport;
    ctx.nodes = &nodes;
    ctx.budget = total_msgs;
    ctx.steady_after = total_msgs / 5;
    ctx.volley = [&ctx](int from, int to) {
      ctx.transport->Send((*ctx.nodes)[from], (*ctx.nodes)[to], 128,
                          [c = &ctx, from, to]() {
                            ++c->delivered;
                            if (c->delivered == c->steady_after) {
                              c->allocs_at_steady = AllocCount();
                            }
                            if (c->delivered >= c->budget) {
                              c->sim->Stop();
                              return;
                            }
                            c->volley(to, from);
                          });
    };
    for (int p = 0; p < chains; ++p) ctx.volley(p % 3, (p + 1) % 3);

    auto t0 = Clock::now();  // NOLINT(natto-wallclock)
    sim.Run();
    auto t1 = Clock::now();  // NOLINT(natto-wallclock)
    uint64_t allocs_end = AllocCount();
    wall_ns.push_back(ElapsedNs(t0, t1));
    steady_allocs = static_cast<double>(allocs_end - ctx.allocs_at_steady) /
                    static_cast<double>(ctx.delivered - ctx.steady_after);
  }

  r.wall_ms_p50 = Pct(wall_ns, 50) / 1e6;
  r.wall_ms_p99 = Pct(wall_ns, 99) / 1e6;
  r.ns_per_event_p50 = Pct(wall_ns, 50) / static_cast<double>(total_msgs);
  r.events_per_sec_p50 =
      static_cast<double>(total_msgs) / (Pct(wall_ns, 50) / 1e9);
  r.steady_allocs_per_event = steady_allocs;
  return r;
}

// ---------------------------------------------------------------------------
// Suite 3: fig7-style end-to-end cell
// ---------------------------------------------------------------------------

/// Records an end-to-end suite's per-rep commit count and its rate over the
/// suite's p50 wall time (set wall_ms_p50 first).
void SetCommitted(SuiteResult& r, int64_t committed) {
  r.committed_txns_per_rep = static_cast<uint64_t>(committed);
  r.committed_txns_per_sec_p50 =
      static_cast<double>(committed) / (r.wall_ms_p50 / 1e3);
}

SuiteResult RunFig7Cell(const Options& opt) {
  SuiteResult r;
  r.name = "fig7_ycsbt_cell";
  std::vector<double> wall_ns;

  harness::ExperimentConfig config;
  config.input_rate_tps = 60;
  config.duration = opt.quick ? Seconds(8) : Seconds(20);
  config.warmup = Seconds(2);
  config.cooldown = Seconds(2);
  config.drain = Seconds(8);
  harness::System system = harness::MakeSystem(harness::SystemKind::kNattoRecsf);
  auto workload_factory = []() {
    workload::YcsbTWorkload::Options o;
    o.num_keys = 100000;
    return std::make_unique<workload::YcsbTWorkload>(o);
  };

  int64_t committed = 0;
  for (int rep = 0; rep < opt.reps; ++rep) {
    auto t0 = Clock::now();  // NOLINT(natto-wallclock)
    harness::RunStats stats = harness::RunOnce(
        config, system, workload_factory, /*seed=*/1000 + rep);
    auto t1 = Clock::now();  // NOLINT(natto-wallclock)
    wall_ns.push_back(ElapsedNs(t0, t1));
    committed = stats.committed_high + stats.committed_low;
  }
  if (committed == 0) {
    std::fprintf(stderr, "fig7_ycsbt_cell committed nothing — broken cell\n");
    std::exit(1);
  }

  r.wall_ms_p50 = Pct(wall_ns, 50) / 1e6;
  r.wall_ms_p99 = Pct(wall_ns, 99) / 1e6;
  SetCommitted(r, committed);
  return r;
}

// ---------------------------------------------------------------------------
// Suite 4: site-parallel windows
// ---------------------------------------------------------------------------

uint64_t HashRounds(uint64_t z, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
  }
  return z;
}

/// One run of the site-parallel workload: per-site self-rescheduling timer
/// chains on a 4-site grid whose 80 ms RTTs give the kernel a 40 ms
/// conservative lookahead, so each window batches thousands of sub-5 ms
/// events per site. Every 8th fire also schedules onto the next site at
/// Now() + lookahead (the legal cross-site minimum). Each callback burns a
/// deterministic hash loop sized like protocol work, so the measured
/// speedup reflects real event execution, not just queue churn. Returns
/// executed events / wall second; `trail_out`, when non-null, enables the
/// dsan ledger and receives the serialized trail.
double RunParallelWindowsOnce(int threads, uint64_t total_events,
                              std::string* trail_out,
                              sim::ParallelPhaseStats* stats = nullptr) {
  constexpr int kSites = 4;
  constexpr SimDuration kLookahead = Millis(40);
  constexpr int kWorkRounds = 96;

  sim::Simulator sim;
  if (threads > 1) {
    sim.ConfigureParallel(sim::ParallelOptions{threads, kSites, kLookahead});
    sim.SetParallelPhaseStats(stats);
  }
  std::unique_ptr<sim::DeterminismLedger> ledger;
  if (trail_out != nullptr) {
    sim::DsanOptions dopt;
    dopt.enabled = true;
    dopt.checkpoint_every = 1024;
    ledger = std::make_unique<sim::DeterminismLedger>(dopt);
    sim.set_ledger(ledger.get());
  }

  struct alignas(64) SiteState {  // own cache line: workers write per event
    uint64_t fired = 0;
    uint64_t budget = 0;
    uint64_t sink = 0;  // consumes the hash loop so it cannot fold away
  };
  struct Ctx {
    sim::Simulator* sim;
    std::array<SiteState, kSites> sites;
    std::function<void(int, uint32_t, uint64_t)> arm;
  } ctx;
  ctx.sim = &sim;
  for (SiteState& st : ctx.sites) st.budget = total_events / kSites;

  ctx.arm = [&ctx](int site, uint32_t timer, uint64_t salt) {
    SimDuration delay =
        100 + static_cast<SimDuration>(HashRounds(salt, 1) % 5000);
    ctx.sim->ScheduleAtSite(
        site, ctx.sim->Now() + delay, [c = &ctx, site, timer, salt]() {
          SiteState& st = c->sites[site];
          st.sink ^= HashRounds(salt ^ st.fired, kWorkRounds);
          ++st.fired;
          if (st.fired % 8 == 0) {
            // Cross-site hop at the lookahead bound: lands in a later
            // window on the neighbor, as the kernel contract requires.
            int dst = (site + 1) % kSites;
            uint64_t s2 = salt * 0x9e3779b97f4a7c15ull + st.fired;
            c->sim->ScheduleAtSite(
                dst, c->sim->Now() + Millis(40) + s2 % 1000, [c, dst, s2]() {
                  SiteState& d = c->sites[dst];
                  d.sink ^= HashRounds(s2, kWorkRounds);
                  ++d.fired;
                });
          }
          if (st.fired < st.budget) {
            c->arm(site, timer, salt * 6364136223846793005ull + timer + 1);
          }
        });
  };
  const int timers_per_site = 256;
  for (int s = 0; s < kSites; ++s) {
    for (int t = 0; t < timers_per_site; ++t) {
      ctx.arm(s, static_cast<uint32_t>(t),
              (static_cast<uint64_t>(s) << 40) | (static_cast<uint64_t>(t) << 17));
    }
  }

  auto t0 = Clock::now();  // NOLINT(natto-wallclock)
  sim.Run();
  auto t1 = Clock::now();  // NOLINT(natto-wallclock)
  uint64_t sink = 0;
  for (const SiteState& st : ctx.sites) sink ^= st.sink;
  if (sink == 0x6b7d9e3779b97f4aull) std::fprintf(stderr, "(unlikely)\n");
  if (trail_out != nullptr) {
    *trail_out = sim::SerializeTrail(ledger->Trail());
  }
  return static_cast<double>(sim.executed_events()) / (ElapsedNs(t0, t1) / 1e9);
}

SuiteResult RunParallelWindows(const Options& opt) {
  const uint64_t total_events = opt.quick ? 400'000 : 1'600'000;

  SuiteResult r;
  r.name = "parallel_windows";
  r.events_per_rep = total_events;

  std::vector<double> serial_eps, parallel_eps, parallel_wall_ms, modeled_eps;
  for (int rep = 0; rep < opt.reps; ++rep) {
    serial_eps.push_back(RunParallelWindowsOnce(1, total_events, nullptr));
    sim::ParallelPhaseStats stats;
    double eps = RunParallelWindowsOnce(4, total_events, nullptr, &stats);
    parallel_eps.push_back(eps);
    r.windows = stats.windows;
    r.serialized_fires = stats.serialized_fires;
    parallel_wall_ms.push_back(static_cast<double>(total_events) / eps * 1e3);
    // Modeled 4-core wall: per window, the slowest site's execution CPU
    // (the other three run concurrently) plus the serial merge. Window
    // dispatch (mutex handoff + wakeup) is excluded; it is O(windows),
    // tens of microseconds against ~100 ms here.
    double modeled_seconds =
        stats.exec_critical_cpu_seconds + stats.merge_cpu_seconds;
    if (modeled_seconds > 0.0) {
      modeled_eps.push_back(static_cast<double>(total_events) /
                            modeled_seconds);
    }
  }
  // Digest probe on a smaller population (the ledger itself costs time):
  // serial and 4-thread trails must serialize byte-identically.
  std::string serial_trail, parallel_trail;
  RunParallelWindowsOnce(1, total_events / 8, &serial_trail);
  RunParallelWindowsOnce(4, total_events / 8, &parallel_trail);
  r.digests_match = (serial_trail == parallel_trail) ? 1 : 0;

  r.wall_ms_p50 = Pct(parallel_wall_ms, 50);
  r.wall_ms_p99 = Pct(parallel_wall_ms, 99);
  r.events_per_sec_p50 = Pct(parallel_eps, 50);
  r.ns_per_event_p50 = 1e9 / Pct(parallel_eps, 50);
  r.speedup_4t_wall = Pct(parallel_eps, 50) / Pct(serial_eps, 50);
  r.speedup_4t_modeled = Pct(modeled_eps, 50) / Pct(serial_eps, 50);
  r.host_cpus = std::thread::hardware_concurrency();
  // Wall time only demonstrates kernel capability when the host can run
  // the four workers concurrently; otherwise it measures time-slicing and
  // the CPU-clock model is the meaningful number.
  r.speedup_4t = r.host_cpus >= 4 ? r.speedup_4t_wall : r.speedup_4t_modeled;
  return r;
}

// ---------------------------------------------------------------------------
// Suite 5: fig14 site-parallel end-to-end cell
// ---------------------------------------------------------------------------

/// The saturated Fig 14 cell — three datacenters (LocalTriangle), Retwis
/// with uniform keys, 25 us/message server CPU so leaders are
/// message-processing-bound (Sec 5.6) — run twice per rep with the same
/// seed: the serial kernel vs NATTO_SIM_THREADS=4 site-parallel windows.
/// The full engine stack (clients, coordinators, servers, raft) executes
/// on per-site lanes here; this is the end-to-end counterpart of the
/// synthetic parallel_windows suite. Reports:
///   - wall speedup (meaningful only on >= 4-cpu hosts), and
///   - a modeled >= num_sites-core speedup from the kernel's per-thread CPU
///     clocks: the parallel run's windowed execution CPU is replaced by the
///     per-window critical path (slowest site) plus the serial merge, while
///     everything the kernel serializes (global-lane fires, dispatch)
///     stays at serial cost:
///       modeled_wall = serial_wall - exec_cpu + exec_critical + merge
///   - an identity probe: both runs of a seed must produce byte-identical
///     committed counts and metric snapshots (reported as digests_match).
SuiteResult RunFig14SiteParallel(const Options& opt) {
  harness::ExperimentConfig config;
  config.matrix = net::LatencyMatrix::LocalTriangle();
  config.num_partitions = 6;
  config.num_replicas = 3;
  // Offered rate just past the 25 us/message CPU capacity knee: queues are
  // genuinely growing (what "peak throughput" sweeps walk into), per-window
  // event density is high, and the cell still simulates in tens of seconds.
  // Sizing is deliberately identical in quick and full mode — saturation is
  // the point of the suite — only the rep count differs.
  config.input_rate_tps = 11000;
  config.duration = Seconds(2);
  config.warmup = Millis(500);
  config.cooldown = Millis(500);
  config.drain = Seconds(1);
  config.cluster.transport.node_cost_per_message = Micros(25);
  harness::System system = harness::MakeSystem(harness::SystemKind::kNattoRecsf);
  auto workload_factory = []() {
    workload::RetwisWorkload::Options o;
    o.uniform_keys = true;
    return std::make_unique<workload::RetwisWorkload>(o);
  };
  auto render = [](const harness::RunStats& s) {
    return std::to_string(s.committed_high) + "/" +
           std::to_string(s.committed_low) + "/" +
           std::to_string(s.aborted_attempts) + "\n" + s.metrics.ToJson();
  };

  SuiteResult r;
  r.name = "fig14_site_parallel";
  r.digests_match = 1;
  std::vector<double> serial_ns, parallel_ns, modeled_ns;
  int64_t committed = 0;
  // Each rep costs two full saturated cells; the event stream is seeded and
  // deterministic, so extra quick-mode reps only re-measure wall noise.
  const int reps = opt.quick ? std::min(opt.reps, 2) : opt.reps;
  for (int rep = 0; rep < reps; ++rep) {
    const uint64_t seed = 4000 + static_cast<uint64_t>(rep);

    config.cluster.sim_threads = 1;
    config.cluster.parallel_phase_stats = nullptr;
    auto s0 = Clock::now();  // NOLINT(natto-wallclock)
    harness::RunStats serial =
        harness::RunOnce(config, system, workload_factory, seed);
    auto s1 = Clock::now();  // NOLINT(natto-wallclock)
    serial_ns.push_back(ElapsedNs(s0, s1));

    sim::ParallelPhaseStats stats;
    config.cluster.sim_threads = 4;
    config.cluster.parallel_phase_stats = &stats;
    auto p0 = Clock::now();  // NOLINT(natto-wallclock)
    harness::RunStats parallel =
        harness::RunOnce(config, system, workload_factory, seed);
    auto p1 = Clock::now();  // NOLINT(natto-wallclock)
    parallel_ns.push_back(ElapsedNs(p0, p1));

    if (stats.windows == 0) {
      std::fprintf(stderr,
                   "fig14_site_parallel ran zero windows — the cell ran "
                   "on the serial kernel, the speedup claim is vacuous\n");
      std::exit(1);
    }
    r.windows = stats.windows;
    r.serialized_fires = stats.serialized_fires;
    double modeled_s = ElapsedNs(s0, s1) / 1e9 - stats.exec_cpu_seconds +
                       stats.exec_critical_cpu_seconds +
                       stats.merge_cpu_seconds;
    modeled_ns.push_back(std::max(modeled_s, 1e-9) * 1e9);

    committed = serial.committed_high + serial.committed_low;
    if (render(serial) != render(parallel)) r.digests_match = 0;
  }
  if (committed == 0) {
    std::fprintf(stderr, "fig14_site_parallel committed nothing\n");
    std::exit(1);
  }

  r.wall_ms_p50 = Pct(parallel_ns, 50) / 1e6;
  r.wall_ms_p99 = Pct(parallel_ns, 99) / 1e6;
  SetCommitted(r, committed);
  r.speedup_4t_wall = Pct(serial_ns, 50) / Pct(parallel_ns, 50);
  r.speedup_4t_modeled = Pct(serial_ns, 50) / Pct(modeled_ns, 50);
  r.host_cpus = std::thread::hardware_concurrency();
  r.speedup_4t = r.host_cpus >= 4 ? r.speedup_4t_wall : r.speedup_4t_modeled;
  return r;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

void WriteJson(const Options& opt, const std::vector<SuiteResult>& results) {
  std::FILE* f = std::fopen(opt.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.out_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"kernel\",\n  \"quick\": %s,\n",
               opt.quick ? "true" : "false");
  std::fprintf(f, "  \"reps\": %d,\n  \"suites\": [\n", opt.reps);
  for (size_t i = 0; i < results.size(); ++i) {
    const SuiteResult& r = results[i];
    const bool txns = r.committed_txns_per_rep > 0;
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n", r.name.c_str());
    if (txns) {
      std::fprintf(f, "      \"committed_txns_per_rep\": %llu,\n",
                   static_cast<unsigned long long>(r.committed_txns_per_rep));
    } else {
      std::fprintf(f, "      \"events_per_rep\": %llu,\n",
                   static_cast<unsigned long long>(r.events_per_rep));
    }
    std::fprintf(f, "      \"wall_ms_p50\": %.3f,\n", r.wall_ms_p50);
    std::fprintf(f, "      \"wall_ms_p99\": %.3f,\n", r.wall_ms_p99);
    if (txns) {
      std::fprintf(f, "      \"committed_txns_per_sec_p50\": %.1f,\n",
                   r.committed_txns_per_sec_p50);
    } else {
      std::fprintf(f, "      \"events_per_sec_p50\": %.0f,\n",
                   r.events_per_sec_p50);
      std::fprintf(f, "      \"ns_per_event_p50\": %.2f,\n",
                   r.ns_per_event_p50);
    }
    if (r.speedup_4t > 0.0) {
      std::fprintf(f, "      \"speedup_4t\": %.3f,\n", r.speedup_4t);
      std::fprintf(f, "      \"speedup_4t_wall\": %.3f,\n", r.speedup_4t_wall);
      std::fprintf(f, "      \"speedup_4t_modeled\": %.3f,\n",
                   r.speedup_4t_modeled);
      std::fprintf(f, "      \"host_cpus\": %u,\n", r.host_cpus);
      std::fprintf(f, "      \"windows\": %llu,\n",
                   static_cast<unsigned long long>(r.windows));
      std::fprintf(f, "      \"serialized_fires\": %llu,\n",
                   static_cast<unsigned long long>(r.serialized_fires));
      std::fprintf(f, "      \"digests_match\": %s,\n",
                   r.digests_match == 1 ? "true" : "false");
    }
    std::fprintf(f, "      \"steady_allocs_per_event\": %.6f\n",
                 r.steady_allocs_per_event);
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Options opt;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--check-steady-allocs") {
      opt.check_steady_allocs = true;
    } else if (arg.rfind("--reps=", 0) == 0) {
      ok &= ParseNumber("--reps", arg.substr(7), &opt.reps);
      if (opt.reps < 1) opt.reps = 1;
    } else if (arg.rfind("--check-parallel-speedup=", 0) == 0) {
      ok &= ParseNumber("--check-parallel-speedup", arg.substr(25),
                        &opt.check_parallel_speedup);
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: perf_kernel [--quick] [--reps=N] [--out=PATH] "
                 "[--check-steady-allocs] "
                 "[--check-parallel-speedup=X]\n");
    return 2;
  }

  std::vector<SuiteResult> results;
  results.push_back(RunScheduleFire(opt));
  results.push_back(RunTransportEcho(opt));
  results.push_back(RunFig7Cell(opt));
  results.push_back(RunParallelWindows(opt));
  results.push_back(RunFig14SiteParallel(opt));

  std::printf("%-18s %14s %12s %12s %14s %10s\n", "suite", "work/rep",
              "wall p50 ms", "wall p99 ms", "work/sec", "allocs/ev");
  for (const SuiteResult& r : results) {
    // End-to-end suites count committed transactions, the others events.
    const bool txns = r.committed_txns_per_rep > 0;
    const uint64_t work = txns ? r.committed_txns_per_rep : r.events_per_rep;
    const double rate =
        txns ? r.committed_txns_per_sec_p50 : r.events_per_sec_p50;
    std::printf("%-18s %9llu %-6s %10.2f %12.2f %14.0f %10.4f\n",
                r.name.c_str(), static_cast<unsigned long long>(work),
                txns ? "txns" : "events", r.wall_ms_p50, r.wall_ms_p99, rate,
                r.steady_allocs_per_event);
    if (r.speedup_4t > 0.0) {
      std::printf(
          "%-18s   4-thread speedup %.2fx (wall %.2fx, modeled %.2fx on "
          "%u-cpu host), digests %s\n",
          "", r.speedup_4t, r.speedup_4t_wall, r.speedup_4t_modeled,
          r.host_cpus, r.digests_match == 1 ? "match" : "DIVERGED");
    }
  }
  WriteJson(opt, results);
  std::fprintf(stderr, "wrote %s\n", opt.out_path.c_str());

  if (opt.check_steady_allocs) {
    for (const SuiteResult& r : results) {
      if (r.steady_allocs_per_event > 0.0) {
        std::fprintf(stderr,
                     "FAIL: %s steady-state allocs/event = %.6f (> 0)\n",
                     r.name.c_str(), r.steady_allocs_per_event);
        return 1;
      }
    }
    std::fprintf(stderr, "steady-state allocation check passed\n");
  }
  if (opt.check_parallel_speedup > 0.0) {
    for (const SuiteResult& r : results) {
      if (r.speedup_4t <= 0.0) continue;  // not a site-parallel suite
      if (r.digests_match != 1) {
        std::fprintf(stderr, "FAIL: %s serial/parallel outputs DIVERGED\n",
                     r.name.c_str());
        return 1;
      }
      if (r.speedup_4t_modeled < opt.check_parallel_speedup) {
        std::fprintf(stderr,
                     "FAIL: %s modeled 4-thread speedup %.2fx < %.2fx\n",
                     r.name.c_str(), r.speedup_4t_modeled,
                     opt.check_parallel_speedup);
        return 1;
      }
    }
    std::fprintf(stderr, "site-parallel speedup check passed (>= %.2fx)\n",
                 opt.check_parallel_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace natto::bench

int main(int argc, char** argv) { return natto::bench::Main(argc, argv); }
