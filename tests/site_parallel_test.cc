// Lockstep property test for the site-parallel kernel (DESIGN.md §4.11):
// randomized deployments — 2..8 sites with random link delays, varying
// partition/replica counts, every engine family — run once serially and
// once per NATTO_SIM_THREADS in {2, 4, 8}, untraced and traced. Every
// observable must match the serial run exactly: the full-precision
// rendering of the run's stats (every latency bit pattern, every counter),
// the complete metrics snapshot, the transaction traces, and the
// determinism-sanitizer digest trail. Chaos and
// gray-failure schedules run the same lockstep, but their configs are
// ineligible, so every thread count runs the serial kernel there: those two
// cases compare serial with serial and pin that sim_threads alone never
// changes an ineligible run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/systems.h"
#include "net/latency_matrix.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sim/dsan.h"
#include "sim/parallel_kernel.h"
#include "txn/cluster.h"
#include "txn/topology.h"
#include "workload/ycsbt.h"

namespace natto::harness {
namespace {

/// Random inter-site RTTs in [10, 90] ms: every link positive, so the
/// conservative lookahead is positive and the config stays eligible.
net::LatencyMatrix RandomMatrix(Rng* rng, int sites) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(sites));
  for (int i = 0; i < sites; ++i) names.push_back("dc" + std::to_string(i));
  net::LatencyMatrix m(std::move(names));
  for (int a = 0; a < sites; ++a) {
    for (int b = a + 1; b < sites; ++b) {
      m.SetRtt(a, b, Millis(rng->UniformInt(10, 90)));
    }
  }
  return m;
}

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.input_rate_tps = 24;
  config.duration = Seconds(5);
  config.warmup = Seconds(1);
  config.cooldown = Seconds(1);
  config.drain = Seconds(5);
  config.repeats = 1;
  config.cluster.dsan.enabled = true;
  return config;
}

WorkloadFactory SmallWorkload() {
  return []() {
    workload::YcsbTWorkload::Options o;
    o.num_keys = 10000;  // small keyspace: real contention, real aborts
    return std::make_unique<workload::YcsbTWorkload>(o);
  };
}

/// Full-precision dump of everything a run reports. %.17g round-trips
/// doubles exactly, so a single changed latency bit is a string diff.
std::string Render(const RunStats& s) {
  std::string out;
  char buf[96];
  auto put = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
    out += buf;
  };
  put("committed_high", static_cast<double>(s.committed_high));
  put("committed_low", static_cast<double>(s.committed_low));
  put("aborted_attempts", static_cast<double>(s.aborted_attempts));
  put("user_aborted", static_cast<double>(s.user_aborted));
  put("failed", static_cast<double>(s.failed));
  put("failed_high", static_cast<double>(s.failed_high));
  put("failed_low", static_cast<double>(s.failed_low));
  put("timeout_aborts", static_cast<double>(s.timeout_aborts));
  for (double v : s.latencies_high_ms) put("lat_high", v);
  for (double v : s.latencies_low_ms) put("lat_low", v);
  for (const auto& [level, lats] : s.latencies_by_level_ms) {
    for (double v : lats) {
      std::snprintf(buf, sizeof(buf), "lat_l%d=%.17g\n", level, v);
      out += buf;
    }
  }
  for (const auto& bucket : s.timeline) {
    std::snprintf(buf, sizeof(buf), "bucket=%lld/%lld/%lld\n",
                  static_cast<long long>(bucket.committed),
                  static_cast<long long>(bucket.aborted),
                  static_cast<long long>(bucket.timeouts));
    out += buf;
    for (double v : bucket.latencies_ms) put("bucket_lat", v);
  }
  return out;
}

RunStats RunAtThreads(const ExperimentConfig& base, const System& system,
                      int threads) {
  char value[16];
  std::snprintf(value, sizeof(value), "%d", threads);
  EXPECT_EQ(setenv("NATTO_SIM_THREADS", value, /*overwrite=*/1), 0);
  // Through ApplyEnvOverrides — the exact knob users turn.
  ExperimentConfig config = base;
  ApplyEnvOverrides(&config);
  EXPECT_EQ(config.cluster.sim_threads, threads);
  RunStats stats = RunOnce(config, system, SmallWorkload(), config.seed);
  EXPECT_EQ(unsetenv("NATTO_SIM_THREADS"), 0);
  return stats;
}

/// The property itself: serial vs every thread count, all observables.
void ExpectLockstep(const ExperimentConfig& config, const System& system,
                    const std::string& label) {
  RunStats serial = RunAtThreads(config, system, 1);
  const std::string serial_rendered = Render(serial);
  const std::string serial_traces = obs::TraceJsonLines(serial.traces);
  ASSERT_GT(serial.committed_high + serial.committed_low, 0)
      << label << ": trial simulated no traffic, the lockstep is vacuous";
  ASSERT_EQ(serial_traces.empty(), !config.cluster.trace.enabled) << label;
  ASSERT_GT(serial.dsan.events, 0u) << label;
  ASSERT_GT(serial.dsan.rng_draws, 0u) << label;
  for (int threads : {2, 4, 8}) {
    RunStats parallel = RunAtThreads(config, system, threads);
    EXPECT_EQ(serial_rendered, Render(parallel))
        << label << ": stats diverged at NATTO_SIM_THREADS=" << threads;
    EXPECT_TRUE(serial.metrics == parallel.metrics)
        << label << ": metrics snapshot diverged at NATTO_SIM_THREADS="
        << threads << "\nserial:   " << serial.metrics.ToJson()
        << "\nparallel: " << parallel.metrics.ToJson();
    EXPECT_EQ(serial_traces, obs::TraceJsonLines(parallel.traces))
        << label << ": traces diverged at NATTO_SIM_THREADS=" << threads;
    sim::DsanDivergence d = sim::DiffTrails(serial.dsan, parallel.dsan);
    EXPECT_TRUE(d.comparable) << label;
    EXPECT_FALSE(d.diverged)
        << label << ": dsan trail diverged at NATTO_SIM_THREADS=" << threads
        << ": " << d.what;
  }
}

/// Guards against the whole suite silently testing the wrong mode: builds
/// the trial's cluster once and pins whether the site-parallel kernel
/// actually engages for it under sim_threads > 1.
void ExpectKernelMode(const ExperimentConfig& config, bool site_parallel,
                      const std::string& label) {
  txn::Topology topology = txn::Topology::Spread(
      config.num_partitions, config.num_replicas, config.matrix.num_sites());
  txn::ClusterOptions copts = config.cluster;
  copts.sim_threads = 4;
  txn::Cluster probe(config.matrix, topology, copts);
  EXPECT_EQ(probe.SiteParallelEligible(), site_parallel) << label;
  EXPECT_EQ(probe.simulator()->site_parallel(), site_parallel) << label;
}

/// Six protocol families (one representative each), six random
/// deployments, each run in lockstep on the site-parallel kernel. The Rng is
/// seeded, so failures reproduce exactly.
void ExpectRandomTopologiesLockstep(bool traced) {
  Rng rng(0xa770155eedull);
  std::vector<System> systems = FailoverSystems();
  ASSERT_EQ(systems.size(), 6u);
  for (size_t i = 0; i < systems.size(); ++i) {
    int sites = static_cast<int>(rng.UniformInt(2, 8));
    int replicas = static_cast<int>(rng.UniformInt(1, std::min(sites, 3)));
    int partitions = static_cast<int>(rng.UniformInt(2, sites + 2));
    ExperimentConfig config = SmallConfig();
    config.matrix = RandomMatrix(&rng, sites);
    config.num_partitions = partitions;
    config.num_replicas = replicas;
    config.seed = 1000 + i;
    config.cluster.trace.enabled = traced;  // every transaction when on
    std::string label = systems[i].name + " sites=" + std::to_string(sites) +
                        " p=" + std::to_string(partitions) +
                        " r=" + std::to_string(replicas) +
                        (traced ? " traced" : "");
    ExpectKernelMode(config, /*site_parallel=*/true, label);
    ExpectLockstep(config, systems[i], label);
  }
}

TEST(SiteParallelTest, RandomTopologiesRunLockstepAcrossAllEngines) {
  ExpectRandomTopologiesLockstep(/*traced=*/false);
}

TEST(SiteParallelTest, TracedRandomTopologiesKeepTheKernelAndTheTraces) {
  // Trace records go through DeferOrdered, so tracing is no eligibility
  // term: the traced configs run on worker lanes and their traces match
  // the serial run's byte for byte.
  ExpectRandomTopologiesLockstep(/*traced=*/true);
}

TEST(SiteParallelTest, ChaosScheduleRunsLockstep) {
  // A fault schedule makes the config ineligible, so every thread count
  // runs the serial kernel: serial against serial through a leader crash,
  // recovery, and a site partition with client timeouts and backoff armed.
  ExperimentConfig config = SmallConfig();
  config.request_timeout = Millis(800);
  config.backoff_base = Millis(25);
  config.timeline_bucket = Seconds(1);
  config.cluster.fault_schedule.CrashReplica(Millis(1500), 0, 0)
      .RecoverReplica(Millis(3000), 0, 0)
      .PartitionSites(Millis(3500), 0, 1)
      .HealSites(Millis(4200), 0, 1);
  ExpectKernelMode(config, /*site_parallel=*/false, "chaos");
  ExpectLockstep(config, MakeSystem(SystemKind::kCarouselFast), "chaos");
  ExpectLockstep(config, MakeSystem(SystemKind::kNattoRecsf), "chaos");
}

TEST(SiteParallelTest, GrayFailureScheduleRunsLockstep) {
  // Gray faults with the full defense stack armed (φ-accrual suspicion,
  // pre-vote, commit-latency fail-away, hedged requests): also ineligible,
  // so also serial against serial at every thread count.
  ExperimentConfig config = SmallConfig();
  config.request_timeout = Millis(800);
  config.backoff_base = Millis(25);
  config.timeline_bucket = Seconds(1);
  config.max_attempts = 8;
  config.cluster.gray_defense = true;
  config.cluster.raft.pre_vote = true;
  config.cluster.raft.fail_away_commit_latency = Millis(400);
  config.hedge_percentile = 0.95;
  config.cluster.fault_schedule
      .SlowReplica(Millis(1000), 0, 0, /*factor=*/20.0, Millis(1200))
      .StallReplica(Millis(2400), 0, 0, Millis(700))
      .PartitionOneWay(Millis(3300), 0, 1)
      .HealSites(Millis(4000), 0, 1);
  ExpectKernelMode(config, /*site_parallel=*/false, "gray");
  ExpectLockstep(config, MakeSystem(SystemKind::kNattoRecsf), "gray");
}

/// Traffic totals of one direct-cluster run, read from the transport's
/// accessors at a RunUntil boundary.
struct Traffic {
  uint64_t sent, delivered, in_flight, delivery_drops, dropped, bytes;
  bool operator==(const Traffic&) const = default;
};

/// Checks the accounting invariant and that the registry's `net.*`
/// counters report exactly what the accessors sum over the lanes.
Traffic CheckTraffic(txn::Cluster& c, const std::string& label) {
  const net::Transport& t = *c.transport();
  Traffic out{t.messages_sent(),      t.messages_delivered(),
              t.messages_in_flight(), t.delivery_drops(),
              t.messages_dropped(),   t.bytes_sent()};
  EXPECT_EQ(out.sent, out.delivered + out.in_flight + out.delivery_drops)
      << label;
  obs::MetricsSnapshot snap = c.metrics()->Snapshot();
  const std::pair<const char*, uint64_t> expected[] = {
      {"net.messages_sent", t.messages_sent()},
      {"net.bytes_sent", t.bytes_sent()},
      {"net.messages_delivered", t.messages_delivered()},
      {"net.messages_dropped", t.messages_dropped()},
      {"net.messages_lost", t.messages_lost()},
      {"net.dropped.crash", t.dropped_crash()},
      {"net.dropped.partition", t.dropped_partition()},
      {"net.dropped.loss", t.dropped_loss()},
      {"net.dropped.in_flight", t.delivery_drops()},
      {"net.batches_sent", t.batches_sent()},
      {"net.stall_deferrals", t.stall_deferrals()},
  };
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(snap.counters.count(name), 1u) << label << ": " << name;
    EXPECT_EQ(snap.counter(name), static_cast<int64_t>(value))
        << label << ": " << name;
  }
  return out;
}

TEST(SiteParallelTest, TrafficAccountingHoldsOnWorkerLanes) {
  // An eligible 3-site cluster, built directly: every partition leader
  // proposes from its own site's lane, so under 4 kernel threads the
  // transport sends and delivers on worker lanes and counts into per-lane
  // blocks. A proposal every 250 us gives each window enough work that
  // the workers really run sites concurrently (the tsan row relies on
  // it). The lane sums must satisfy the accounting invariant mid-run
  // (messages still in flight) and once drained, match the metrics
  // snapshot, and equal the serial kernel's totals.
  static constexpr int kProposals = 800;  // per leader
  auto run = [](int threads) {
    txn::ClusterOptions o;
    o.max_clock_skew = 0;
    o.sim_threads = threads;
    sim::ParallelPhaseStats phases;
    o.parallel_phase_stats = &phases;
    txn::Cluster c(net::LatencyMatrix::AzureFive(),
                   txn::Topology::Spread(3, 3, 3), o);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_TRUE(c.SiteParallelEligible()) << label;
    EXPECT_EQ(c.simulator()->site_parallel(), threads > 1) << label;
    std::vector<int> committed(3, 0);  // one slot per leader lane
    for (int p = 0; p < 3; ++p) {
      raft::RaftReplica* leader = c.group(p)->leader();
      int* done = &committed[static_cast<size_t>(p)];
      for (int i = 0; i < kProposals; ++i) {
        c.simulator()->ScheduleAtSite(
            leader->site(), Millis(1) + Micros(250) * i, [leader, done]() {
              (void)leader->Propose(1, [done]() { ++*done; });
            });
      }
    }
    c.simulator()->RunUntil(Millis(120));
    Traffic mid = CheckTraffic(c, label + " mid-run");
    EXPECT_GT(mid.in_flight, 0u) << label;
    c.simulator()->RunUntil(Seconds(2));
    Traffic drained = CheckTraffic(c, label + " drained");
    EXPECT_GT(drained.delivered, 0u) << label;
    EXPECT_EQ(committed, std::vector<int>(3, kProposals)) << label;
    if (threads > 1) {
      EXPECT_GT(phases.windows, 0u) << label;
    }
    return std::make_pair(mid, drained);
  };
  EXPECT_EQ(run(4), run(1));
}

}  // namespace
}  // namespace natto::harness
