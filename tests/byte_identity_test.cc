// End-to-end byte-identity regression: the property the nattolint pass
// exists to protect. A small experiment grid is run serially and with a
// parallel fan-out (via the NATTO_JOBS env override, the same knob the
// benches use), each twice, and the *rendered result tables* must be
// byte-for-byte equal across all runs — parallelism and reruns may never
// change a printed digit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/systems.h"
#include "sim/dsan.h"
#include "txn/cluster.h"
#include "txn/topology.h"
#include "workload/retwis.h"
#include "workload/ycsbt.h"

namespace natto::harness {
namespace {

ExperimentConfig TinyConfig(double rate) {
  ExperimentConfig config;
  config.input_rate_tps = rate;
  config.duration = Seconds(6);
  config.warmup = Seconds(1);
  config.cooldown = Seconds(1);
  config.drain = Seconds(6);
  config.repeats = 2;
  return config;
}

WorkloadFactory TinyWorkload() {
  return []() {
    workload::YcsbTWorkload::Options o;
    o.num_keys = 100000;
    return std::make_unique<workload::YcsbTWorkload>(o);
  };
}

/// Renders a grid result the way the figure benches do: fixed-precision
/// printf formatting, one row per datapoint, one column per system. Any
/// nondeterminism that survives aggregation shows up here as a byte diff.
std::string RenderTable(const std::vector<GridPoint>& points,
                        const std::vector<std::vector<ExperimentResult>>& grid) {
  std::string out;
  char buf[128];
  for (size_t p = 0; p < grid.size(); ++p) {
    std::snprintf(buf, sizeof(buf), "%-10.4g", points[p].config.input_rate_tps);
    out += buf;
    for (const ExperimentResult& r : grid[p]) {
      std::snprintf(buf, sizeof(buf), " %s %10.1f+-%4.0f %10.1f+-%4.0f %16.1f %16.1f %lld",
                    r.system.c_str(), r.p95_high_ms.mean, r.p95_high_ms.ci95,
                    r.p95_low_ms.mean, r.p95_low_ms.ci95,
                    r.goodput_low_tps.mean, r.goodput_total_tps.mean,
                    static_cast<long long>(r.failed));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

// gtest's ASSERT_* macros need a void function, so this fills `out` instead
// of returning the table. `mutate` tweaks each point's config before the
// run (batching knobs in the tests below). Passing `trails` additionally
// enables the determinism sanitizer and collects one digest trail per cell,
// in grid order.
void RunAndRender(const char* jobs, std::string* out,
                  const std::function<void(ExperimentConfig*)>& mutate = {},
                  std::vector<sim::DsanTrail>* trails = nullptr) {
  ASSERT_EQ(setenv("NATTO_JOBS", jobs, /*overwrite=*/1), 0) << "setenv failed";
  std::vector<System> systems = {MakeSystem(SystemKind::kCarouselBasic),
                                 MakeSystem(SystemKind::kNattoRecsf)};
  std::vector<GridPoint> points;
  points.push_back({TinyConfig(20), TinyWorkload()});
  points.push_back({TinyConfig(35), TinyWorkload()});
  if (mutate) {
    for (GridPoint& p : points) mutate(&p.config);
  }
  if (trails != nullptr) {
    for (GridPoint& p : points) p.config.cluster.dsan.enabled = true;
  }
  // jobs <= 0 routes through DefaultJobs(), which reads NATTO_JOBS — the
  // exact code path every bench binary and nattosim take.
  auto grid = RunGrid(points, systems, /*jobs=*/0);
  *out = RenderTable(points, grid);
  if (trails != nullptr) {
    for (const auto& row : grid) {
      for (const ExperimentResult& r : row) {
        trails->insert(trails->end(), r.dsan.begin(), r.dsan.end());
      }
    }
  }
}

// Chaos determinism: a scripted fault schedule (leader crash + recovery +
// site partition + heal, with client timeouts, backoff and re-routing all
// armed) must be exactly as reproducible as a fault-free run — same seed
// and schedule render byte-identical tables serially and under
// NATTO_JOBS=8, including the per-bucket availability timeline.
void RunChaosAndRender(const char* jobs, std::string* out,
                       std::vector<sim::DsanTrail>* trails = nullptr,
                       const std::function<void(ExperimentConfig*)>& mutate = {}) {
  ASSERT_EQ(setenv("NATTO_JOBS", jobs, /*overwrite=*/1), 0) << "setenv failed";
  std::vector<System> systems = {MakeSystem(SystemKind::kTwoPl),
                                 MakeSystem(SystemKind::kCarouselFast),
                                 MakeSystem(SystemKind::kNattoRecsf)};
  ExperimentConfig config = TinyConfig(30);
  if (mutate) mutate(&config);
  if (trails != nullptr) config.cluster.dsan.enabled = true;
  config.request_timeout = Millis(800);
  config.backoff_base = Millis(25);
  config.timeline_bucket = Seconds(1);
  config.cluster.fault_schedule.CrashReplica(Seconds(2), 0, 0)
      .RecoverReplica(Millis(3500), 0, 0)
      .PartitionSites(Seconds(4), 0, 1)
      .HealSites(Seconds(5), 0, 1);
  std::vector<GridPoint> points;
  points.push_back({config, TinyWorkload()});
  auto grid = RunGrid(points, systems, /*jobs=*/0);
  std::string table = RenderTable(points, grid);
  char buf[64];
  for (const ExperimentResult& r : grid[0]) {
    std::snprintf(buf, sizeof(buf), "%s timeouts=%lld timeline=",
                  r.system.c_str(), static_cast<long long>(r.timeout_aborts));
    table += buf;
    for (const auto& bucket : r.timeline) {
      std::snprintf(buf, sizeof(buf), " %lld/%lld",
                    static_cast<long long>(bucket.committed),
                    static_cast<long long>(bucket.aborted));
      table += buf;
    }
    table += '\n';
  }
  if (trails != nullptr) {
    for (const ExperimentResult& r : grid[0]) {
      trails->insert(trails->end(), r.dsan.begin(), r.dsan.end());
    }
  }
  *out = table;
}

// Gray-fault determinism: the fail-slow / gray-stall / half-open-partition
// verbs with the full defense stack armed (φ-accrual suspicion, pre-vote,
// commit-latency fail-away, hedged requests) must be exactly as
// reproducible as the fail-stop chaos run. The rendered check includes the
// defense counters, so a nondeterministic hedge race or suspicion election
// shows up as a byte diff even when the latency table happens to agree.
void RunGrayChaosAndRender(
    const char* jobs, std::string* out,
    std::vector<sim::DsanTrail>* trails = nullptr,
    const std::function<void(ExperimentConfig*)>& mutate = {}) {
  ASSERT_EQ(setenv("NATTO_JOBS", jobs, /*overwrite=*/1), 0) << "setenv failed";
  std::vector<System> systems = {MakeSystem(SystemKind::kCarouselFast),
                                 MakeSystem(SystemKind::kNattoRecsf)};
  ExperimentConfig config = TinyConfig(30);
  if (mutate) mutate(&config);
  if (trails != nullptr) config.cluster.dsan.enabled = true;
  config.request_timeout = Millis(800);
  config.backoff_base = Millis(25);
  config.timeline_bucket = Seconds(1);
  config.max_attempts = 8;
  config.cluster.gray_defense = true;
  config.cluster.raft.pre_vote = true;
  config.cluster.raft.fail_away_commit_latency = Millis(400);
  config.hedge_percentile = 0.95;
  config.cluster.fault_schedule
      .SlowReplica(Seconds(1), 0, 0, /*factor=*/20.0, Millis(1500))
      .StallReplica(Millis(2500), 0, 0, Millis(800))
      .PartitionOneWay(Millis(3600), 0, 1)
      .HealSites(Millis(4500), 0, 1);
  std::vector<GridPoint> points;
  points.push_back({config, TinyWorkload()});
  auto grid = RunGrid(points, systems, /*jobs=*/0);
  std::string table = RenderTable(points, grid);
  char buf[160];
  for (const ExperimentResult& r : grid[0]) {
    std::snprintf(
        buf, sizeof(buf),
        "%s failed=%lld/%lld hedges=%lld wins=%lld transfers=%lld "
        "stalls=%lld timeline=",
        r.system.c_str(), static_cast<long long>(r.failed_high),
        static_cast<long long>(r.failed_low),
        static_cast<long long>(r.metrics.counter("client.hedges")),
        static_cast<long long>(r.metrics.counter("client.hedge_wins")),
        static_cast<long long>(r.metrics.counter("raft.leader_transfers")),
        static_cast<long long>(r.metrics.counter("net.stall_deferrals")));
    table += buf;
    for (const auto& bucket : r.timeline) {
      std::snprintf(buf, sizeof(buf), " %lld/%lld",
                    static_cast<long long>(bucket.committed),
                    static_cast<long long>(bucket.aborted));
      table += buf;
    }
    table += '\n';
  }
  if (trails != nullptr) {
    for (const ExperimentResult& r : grid[0]) {
      trails->insert(trails->end(), r.dsan.begin(), r.dsan.end());
    }
  }
  *out = table;
}

// ---------------------------------------------------------------------------
// Kernel-swap goldens
// ---------------------------------------------------------------------------
// The files under tests/golden/ were rendered by the seed commit's
// binary-heap event kernel (pre calendar-queue swap). Comparing today's
// tables against them pins the cross-kernel guarantee: a kernel rewrite may
// never reorder equal-time events or perturb a single delivery time, and
// these tables surface any such drift as a byte diff. Regenerate only when
// the output is *intended* to change: NATTO_WRITE_GOLDEN=1 ./byte_identity_test

std::string GoldenPath(const char* name) {
  return std::string(NATTO_GOLDEN_DIR "/") + name;
}

void CompareOrWriteGolden(const char* name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("NATTO_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "golden rewritten: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (mint with NATTO_WRITE_GOLDEN=1)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), actual)
      << "rendered table drifted from the pre-swap kernel golden " << path;
}

TEST(ByteIdentityTest, Fig7YcsbTTableMatchesPreSwapKernelGolden) {
  std::string serial, parallel;
  RunAndRender("1", &serial);
  RunAndRender("8", &parallel);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(serial, parallel);
  CompareOrWriteGolden("fig7_ycsbt_tiny.golden", serial);
}

TEST(ByteIdentityTest, FailoverChaosTableMatchesPreSwapKernelGolden) {
  std::string serial, parallel;
  RunChaosAndRender("1", &serial);
  RunChaosAndRender("8", &parallel);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(serial, parallel);
  CompareOrWriteGolden("failover_chaos_tiny.golden", serial);
}

TEST(ByteIdentityTest, ChaosScheduleTablesAreByteIdentical) {
  std::string serial, parallel;
  RunChaosAndRender("1", &serial);
  RunChaosAndRender("8", &parallel);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(serial, parallel)
      << "NATTO_JOBS=8 rendered a different chaos table than NATTO_JOBS=1";
  // Sanity: the faults actually produced timeline buckets.
  EXPECT_NE(serial.find("timeline= "), std::string::npos);
}

TEST(ByteIdentityTest, BatchingOffIsByteIdenticalToGolden) {
  // max_batch_bytes = 0 disables link batching entirely; the other batching
  // knobs (delay, raft group-commit window) must then be inert, so setting
  // them to non-default values still renders the exact golden bytes of the
  // pre-batching build.
  std::string rendered;
  RunAndRender("1", &rendered, [](ExperimentConfig* c) {
    c->cluster.transport.max_batch_bytes = 0;
    c->cluster.transport.max_batch_delay = Millis(5);
    c->cluster.raft.group_commit_delay = 0;
  });
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  CompareOrWriteGolden("fig7_ycsbt_tiny.golden", rendered);
}

TEST(ByteIdentityTest, BatchingOnSerialVsParallelIsByteIdentical) {
  // With batching and the raft group-commit window armed, the output
  // changes (frames coalesce, latencies shift) but must stay exactly as
  // deterministic as the unbatched build: serial and NATTO_JOBS=8 render
  // the same bytes.
  auto batched = [](ExperimentConfig* c) {
    c->cluster.transport.max_batch_bytes = 4096;
    c->cluster.transport.max_batch_delay = Micros(200);
    c->cluster.raft.group_commit_delay = Micros(200);
  };
  std::string serial, parallel;
  RunAndRender("1", &serial, batched);
  RunAndRender("8", &parallel, batched);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(serial, parallel)
      << "batching broke job-count determinism";
  EXPECT_NE(serial.find("Natto"), std::string::npos);
}

TEST(ByteIdentityTest, DsanDigestsMatchSerialVsParallelOnFig7Tiny) {
  std::string serial, parallel;
  std::vector<sim::DsanTrail> serial_trails, parallel_trails;
  RunAndRender("1", &serial, {}, &serial_trails);
  RunAndRender("8", &parallel, {}, &parallel_trails);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(serial, parallel);
  // The ledger must not perturb output: with dsan on, the rendered bytes
  // still match the pre-dsan golden exactly.
  CompareOrWriteGolden("fig7_ycsbt_tiny.golden", serial);
  // 2 points x 2 systems x 2 repeats = 8 cells, trails in grid order.
  ASSERT_EQ(serial_trails.size(), 8u);
  ASSERT_EQ(parallel_trails.size(), serial_trails.size());
  for (size_t i = 0; i < serial_trails.size(); ++i) {
    EXPECT_GT(serial_trails[i].events, 0u) << "cell " << i;
    EXPECT_GT(serial_trails[i].rng_draws, 0u) << "cell " << i;
    sim::DsanDivergence d =
        sim::DiffTrails(serial_trails[i], parallel_trails[i]);
    EXPECT_TRUE(d.comparable) << "cell " << i;
    EXPECT_FALSE(d.diverged)
        << "cell " << i << " diverged serial vs NATTO_JOBS=8: " << d.what;
  }
}

TEST(ByteIdentityTest, DsanDigestsMatchSerialVsParallelOnFailoverChaos) {
  std::string serial, parallel;
  std::vector<sim::DsanTrail> serial_trails, parallel_trails;
  RunChaosAndRender("1", &serial, &serial_trails);
  RunChaosAndRender("8", &parallel, &parallel_trails);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(serial, parallel);
  CompareOrWriteGolden("failover_chaos_tiny.golden", serial);
  // 3 systems x 2 repeats = 6 cells; crashes, partitions and failovers must
  // fold into the same digest regardless of job count.
  ASSERT_EQ(serial_trails.size(), 6u);
  ASSERT_EQ(parallel_trails.size(), serial_trails.size());
  for (size_t i = 0; i < serial_trails.size(); ++i) {
    EXPECT_GT(serial_trails[i].events, 0u) << "cell " << i;
    sim::DsanDivergence d =
        sim::DiffTrails(serial_trails[i], parallel_trails[i]);
    EXPECT_TRUE(d.comparable) << "cell " << i;
    EXPECT_FALSE(d.diverged)
        << "cell " << i << " diverged serial vs NATTO_JOBS=8: " << d.what;
  }
}

// NATTO_SIM_THREADS=4 installs the parallel simulation kernel (DESIGN.md
// §4.11). The fig7 tiny config is site-parallel eligible — the engine stack
// genuinely executes on per-site lanes — so matching the pre-parallel golden
// here proves site confinement end to end; the chaos configs below are
// ineligible (fault schedules are global actors), run the serial kernel and
// must be just as byte-identical. The contract is byte-identity at any
// thread count, alone and combined with the NATTO_JOBS cell fan-out, down
// to the dsan digest trails.
TEST(ByteIdentityTest, Fig7TinyConfigIsSiteParallelEligible) {
  // Guards the golden tests below against going vacuous: if an eligibility
  // rule tightens and the fig7 config silently falls back to the serial
  // kernel, the sim_threads runs would no longer prove site confinement.
  ExperimentConfig config = TinyConfig(20);
  config.cluster.sim_threads = 4;
  txn::Topology topology = txn::Topology::Spread(
      config.num_partitions, config.num_replicas, config.matrix.num_sites());
  txn::Cluster probe(config.matrix, topology, config.cluster);
  EXPECT_TRUE(probe.SiteParallelEligible());
  EXPECT_TRUE(probe.simulator()->site_parallel());
}

TEST(ByteIdentityTest, SimThreads4IsByteIdenticalToSerialOnFig7Tiny) {
  auto threaded = [](ExperimentConfig* c) { c->cluster.sim_threads = 4; };
  std::string baseline, with_threads, with_threads_and_jobs;
  std::vector<sim::DsanTrail> base_trails, thread_trails;
  RunAndRender("1", &baseline, {}, &base_trails);
  RunAndRender("1", &with_threads, threaded, &thread_trails);
  RunAndRender("8", &with_threads_and_jobs, threaded);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(with_threads, baseline)
      << "sim_threads=4 changed the rendered fig7 table";
  EXPECT_EQ(with_threads_and_jobs, baseline)
      << "sim_threads=4 + NATTO_JOBS=8 changed the rendered fig7 table";
  CompareOrWriteGolden("fig7_ycsbt_tiny.golden", with_threads);
  ASSERT_EQ(thread_trails.size(), base_trails.size());
  for (size_t i = 0; i < base_trails.size(); ++i) {
    EXPECT_GT(base_trails[i].events, 0u) << "cell " << i;
    sim::DsanDivergence d = sim::DiffTrails(base_trails[i], thread_trails[i]);
    EXPECT_TRUE(d.comparable) << "cell " << i;
    EXPECT_FALSE(d.diverged)
        << "cell " << i << " diverged serial vs sim_threads=4: " << d.what;
  }
}

TEST(ByteIdentityTest, SimThreads4IsByteIdenticalToSerialOnFailoverChaos) {
  auto threaded = [](ExperimentConfig* c) { c->cluster.sim_threads = 4; };
  std::string baseline, with_threads;
  std::vector<sim::DsanTrail> base_trails, thread_trails;
  RunChaosAndRender("1", &baseline, &base_trails);
  RunChaosAndRender("8", &with_threads, &thread_trails, threaded);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(with_threads, baseline)
      << "sim_threads=4 + NATTO_JOBS=8 changed the chaos table";
  CompareOrWriteGolden("failover_chaos_tiny.golden", with_threads);
  ASSERT_EQ(thread_trails.size(), base_trails.size());
  for (size_t i = 0; i < base_trails.size(); ++i) {
    sim::DsanDivergence d = sim::DiffTrails(base_trails[i], thread_trails[i]);
    EXPECT_TRUE(d.comparable) << "cell " << i;
    EXPECT_FALSE(d.diverged)
        << "cell " << i << " diverged serial vs sim_threads=4: " << d.what;
  }
}

TEST(ByteIdentityTest, GrayChaosTablesAreByteIdentical) {
  std::string serial, parallel;
  RunGrayChaosAndRender("1", &serial);
  RunGrayChaosAndRender("8", &parallel);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(serial, parallel)
      << "NATTO_JOBS=8 rendered a different gray-chaos table than "
         "NATTO_JOBS=1";
  EXPECT_NE(serial.find("hedges="), std::string::npos);
  CompareOrWriteGolden("gray_chaos_tiny.golden", serial);
}

TEST(ByteIdentityTest, DsanDigestsMatchSerialVsParallelOnGrayChaos) {
  std::string serial, parallel;
  std::vector<sim::DsanTrail> serial_trails, parallel_trails;
  RunGrayChaosAndRender("1", &serial, &serial_trails);
  RunGrayChaosAndRender("8", &parallel, &parallel_trails);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(serial, parallel);
  // 2 systems x 2 repeats = 4 cells; slow-service queues, stall deferrals,
  // suspicion elections and hedge races must fold into the same digest
  // regardless of job count.
  ASSERT_EQ(serial_trails.size(), 4u);
  ASSERT_EQ(parallel_trails.size(), serial_trails.size());
  for (size_t i = 0; i < serial_trails.size(); ++i) {
    EXPECT_GT(serial_trails[i].events, 0u) << "cell " << i;
    sim::DsanDivergence d =
        sim::DiffTrails(serial_trails[i], parallel_trails[i]);
    EXPECT_TRUE(d.comparable) << "cell " << i;
    EXPECT_FALSE(d.diverged)
        << "cell " << i << " diverged serial vs NATTO_JOBS=8: " << d.what;
  }
}

TEST(ByteIdentityTest, SimThreads4IsByteIdenticalToSerialOnGrayChaos) {
  auto threaded = [](ExperimentConfig* c) { c->cluster.sim_threads = 4; };
  std::string baseline, with_threads;
  std::vector<sim::DsanTrail> base_trails, thread_trails;
  RunGrayChaosAndRender("1", &baseline, &base_trails);
  RunGrayChaosAndRender("8", &with_threads, &thread_trails, threaded);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_EQ(with_threads, baseline)
      << "sim_threads=4 + NATTO_JOBS=8 changed the gray-chaos table";
  CompareOrWriteGolden("gray_chaos_tiny.golden", with_threads);
  ASSERT_EQ(thread_trails.size(), base_trails.size());
  for (size_t i = 0; i < base_trails.size(); ++i) {
    sim::DsanDivergence d = sim::DiffTrails(base_trails[i], thread_trails[i]);
    EXPECT_TRUE(d.comparable) << "cell " << i;
    EXPECT_FALSE(d.diverged)
        << "cell " << i << " diverged serial vs sim_threads=4: " << d.what;
  }
}

// Zero-overhead proof for the gray-defense knobs: armed but untriggerable,
// they must not move a byte of the fault-free fig7 golden. gray_defense and
// pre_vote are structurally inert without a fault schedule (no injector, no
// raft timers); fail-away and hedging are armed with thresholds no
// fault-free run can reach.
TEST(ByteIdentityTest, InertGrayKnobsLeaveFig7GoldenUntouched) {
  std::string rendered;
  RunAndRender("1", &rendered, [](ExperimentConfig* c) {
    c->cluster.gray_defense = true;
    c->cluster.raft.pre_vote = true;
    c->cluster.raft.fail_away_commit_latency = Seconds(10);
    c->hedge_percentile = 0.95;
    c->hedge_min_delay = Seconds(30);
    c->hedge_min_samples = 1 << 20;
  });
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  CompareOrWriteGolden("fig7_ycsbt_tiny.golden", rendered);
}

// Same proof against the fail-stop chaos golden: a fail-away threshold far
// above any observed commit latency and a hedge delay past the request
// timeout never fire, so the run that minted the golden is reproduced
// byte-for-byte with the defense machinery compiled in and armed.
TEST(ByteIdentityTest, InertGrayKnobsLeaveFailoverChaosGoldenUntouched) {
  std::string rendered;
  RunChaosAndRender("1", &rendered, nullptr, [](ExperimentConfig* c) {
    c->cluster.raft.fail_away_commit_latency = Seconds(10);
    c->hedge_percentile = 0.95;
    c->hedge_min_delay = Seconds(30);
    c->hedge_min_samples = 1 << 20;
  });
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  CompareOrWriteGolden("failover_chaos_tiny.golden", rendered);
}

// ---------------------------------------------------------------------------
// Engine-metrics golden
// ---------------------------------------------------------------------------
// One short fault-free YCSB+T cell per engine family, with Pareto delay
// variance so votes, wounds and round-2 messages overtake the coordinator's
// Begin. Each run renders its full-precision RunStats (every latency bit
// pattern) followed by its sorted MetricsSnapshot, so a drift in any protocol
// counter, abort-cause attribution or latency is a one-line diff.

std::string RenderRunStats(const RunStats& s) {
  std::string out;
  char buf[160];
  auto put = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
    out += buf;
  };
  put("committed_high", static_cast<double>(s.committed_high));
  put("committed_low", static_cast<double>(s.committed_low));
  put("aborted_attempts", static_cast<double>(s.aborted_attempts));
  put("user_aborted", static_cast<double>(s.user_aborted));
  put("failed", static_cast<double>(s.failed));
  put("measured_seconds", s.measured_seconds);
  for (double v : s.latencies_high_ms) put("lat_high", v);
  for (double v : s.latencies_low_ms) put("lat_low", v);
  for (const auto& [name, value] : s.metrics.counters) {
    std::snprintf(buf, sizeof(buf), "c %s=%lld\n", name.c_str(),
                  static_cast<long long>(value));
    out += buf;
  }
  for (const auto& [name, value] : s.metrics.gauges) {
    std::snprintf(buf, sizeof(buf), "g %s=%.17g\n", name.c_str(), value);
    out += buf;
  }
  for (const auto& [name, h] : s.metrics.histograms) {
    std::snprintf(buf, sizeof(buf), "h %s=%llu/%.17g\n", name.c_str(),
                  static_cast<unsigned long long>(h.count), h.sum);
    out += buf;
  }
  return out;
}

std::string RenderEngineMetrics() {
  ExperimentConfig config = TinyConfig(40);
  config.duration = Seconds(4);
  config.drain = Seconds(4);
  config.cluster.delay_variance_ratio = 0.35;
  std::string out;
  for (const System& system : FailoverSystems()) {
    out += "== " + system.name + "\n";
    out += RenderRunStats(RunOnce(config, system, TinyWorkload(), config.seed));
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Natto's coordinators count their decisions like the other coordinators
/// do; those counters are the only lines the golden may lack.
bool IsNattoCoordinatorCounter(const std::string& line) {
  return line.rfind("c natto.coord.s", 0) == 0 &&
         (line.find(".commits=") != std::string::npos ||
          line.find(".aborts=") != std::string::npos);
}

TEST(ByteIdentityTest, EngineMetricsMatchGolden) {
  const std::string actual = RenderEngineMetrics();
  const std::string path = GoldenPath("engines_metrics_tiny.golden");
  if (std::getenv("NATTO_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "golden rewritten: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  // Subset comparison: every golden line, in order, and nothing else but
  // the Natto coordinator counters.
  const std::vector<std::string> want = SplitLines(golden.str());
  size_t next = 0;
  for (const std::string& line : SplitLines(actual)) {
    if (next < want.size() && line == want[next]) {
      ++next;
      continue;
    }
    ASSERT_TRUE(IsNattoCoordinatorCounter(line))
        << "line drifted from " << path << ": got '" << line
        << "', expected '" << (next < want.size() ? want[next] : "<eof>")
        << "'";
  }
  EXPECT_EQ(next, want.size()) << "golden lines missing from the run";
}

// ---------------------------------------------------------------------------
// Contended-Natto golden
// ---------------------------------------------------------------------------
// Retwis at Zipf 0.95 with 30% prioritized transactions and Pareto delay
// variance, for each Natto variant that changes the server's paths: TS
// (timestamp order, no LECSF, so commits apply from a Raft callback), PA
// (priority abort and its completion-estimate suppression), CP (conditional
// prepare) and RECSF (remote read forwarding). The fault-free YCSB+T cells
// of the engine-metrics golden never priority-abort, so this is the golden
// that pins NattoServer's queue, abort and condition paths.

TEST(ByteIdentityTest, ContendedNattoMatchesGolden) {
  ExperimentConfig config = TinyConfig(250);
  config.duration = Seconds(4);
  config.drain = Seconds(4);
  config.cluster.delay_variance_ratio = 0.35;
  WorkloadFactory workload = []() {
    workload::RetwisWorkload::Options o;
    o.zipf_theta = 0.95;
    o.high_priority_fraction = 0.3;
    return std::make_unique<workload::RetwisWorkload>(o);
  };
  std::string out;
  std::map<std::string, int64_t> totals;
  const char* const kFields[] = {"priority_aborts", "pa_suppressed",
                                 "conditional_prepares", "cp_satisfied",
                                 "recsf_forwards", "order_violation_aborts"};
  for (SystemKind kind : {SystemKind::kNattoTs, SystemKind::kNattoPa,
                          SystemKind::kNattoCp, SystemKind::kNattoRecsf}) {
    const System system = MakeSystem(kind);
    const RunStats stats = RunOnce(config, system, workload, config.seed);
    out += "== " + system.name + "\n" + RenderRunStats(stats);
    for (const char* field : kFields) {
      totals[field] +=
          stats.metrics.SumCounters("natto.server.p", std::string(".") + field);
    }
  }
  // The cells must keep reaching the paths the golden exists to pin.
  // cp_failed is left out: no short cell found makes it nonzero.
  for (const char* field : kFields) {
    EXPECT_GT(totals[field], 0) << field;
  }
  CompareOrWriteGolden("natto_contended_tiny.golden", out);
}

TEST(ByteIdentityTest, SerialParallelAndRerunTablesAreByteIdentical) {
  std::string serial1, serial2, parallel1, parallel2;
  RunAndRender("1", &serial1);
  RunAndRender("1", &serial2);
  RunAndRender("8", &parallel1);
  RunAndRender("8", &parallel2);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);

  // Rerun identity (same mode twice)...
  EXPECT_EQ(serial1, serial2) << "serial rerun changed the rendered table";
  EXPECT_EQ(parallel1, parallel2) << "parallel rerun changed the table";
  // ...and the core guarantee: job count never changes a byte.
  EXPECT_EQ(serial1, parallel1)
      << "NATTO_JOBS=8 rendered a different table than NATTO_JOBS=1";

  // Sanity: the table is non-trivial (rows rendered, traffic simulated).
  EXPECT_NE(serial1.find("Carousel"), std::string::npos);
  EXPECT_NE(serial1.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace natto::harness
