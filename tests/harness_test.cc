#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "harness/client.h"
#include "harness/experiment.h"
#include "harness/parallel_runner.h"
#include "harness/stats.h"
#include "harness/systems.h"
#include "txn/topology.h"
#include "workload/ycsbt.h"

namespace natto::harness {
namespace {

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, PercentileNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // Nearest rank = ceil(q * n): of 100 samples, p95 is the 95th.
  EXPECT_DOUBLE_EQ(Percentile(v, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.00), 100.0);
}

TEST(StatsTest, PercentileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.95), 0.0);
}

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, AggregateConfidenceInterval) {
  Aggregate a = Aggregated({10, 12, 14, 16, 18});
  EXPECT_DOUBLE_EQ(a.mean, 14.0);
  EXPECT_EQ(a.n, 5);
  EXPECT_GT(a.ci95, 0.0);
  Aggregate single = Aggregated({5});
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.ci95, 0.0);
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(TopologyTest, SpreadPlacesDistinctSites) {
  txn::Topology t = txn::Topology::Spread(5, 3, 5);
  for (int p = 0; p < 5; ++p) {
    const std::vector<int>& sites = t.ReplicaSites(p);
    ASSERT_EQ(sites.size(), 3u);
    EXPECT_EQ(sites[0], p);  // leader rotates across sites
    EXPECT_NE(sites[0], sites[1]);
    EXPECT_NE(sites[1], sites[2]);
  }
}

TEST(TopologyTest, PartitionOfKeyIsStableHash) {
  txn::Topology t = txn::Topology::Spread(5, 3, 5);
  EXPECT_EQ(t.PartitionOfKey(0), 0);
  EXPECT_EQ(t.PartitionOfKey(7), 2);
  EXPECT_EQ(t.PartitionOfKey(7), t.PartitionOfKey(7));
}

TEST(TopologyTest, ParticipantsAreSortedUnique) {
  txn::Topology t = txn::Topology::Spread(5, 3, 5);
  auto parts = t.Participants({0, 5, 1}, {6, 2});
  EXPECT_EQ(parts, (std::vector<int>{0, 1, 2}));
}

TEST(TopologyTest, PartitionLedAt) {
  txn::Topology t = txn::Topology::Spread(5, 3, 5);
  EXPECT_EQ(t.PartitionLedAt(3), 3);
  txn::Topology t2 = txn::Topology::Spread(2, 3, 5);
  EXPECT_EQ(t2.PartitionLedAt(4), -1);
}

TEST(TopologyTest, TwelvePartitionsOnThreeSites) {
  txn::Topology t = txn::Topology::Spread(12, 3, 3);
  // Every site leads some partitions; each key maps to a valid partition.
  for (int s = 0; s < 3; ++s) EXPECT_GE(t.PartitionLedAt(s), 0);
  EXPECT_EQ(t.PartitionOfKey(25), 1);
}

// ---------------------------------------------------------------------------
// Client retry loop (against a scripted fake engine)
// ---------------------------------------------------------------------------

/// Aborts the first `aborts_before_commit` attempts of every transaction,
/// then commits; completes after a fixed simulated delay.
class FakeEngine : public txn::TxnEngine {
 public:
  FakeEngine(sim::Simulator* simulator, int aborts_before_commit)
      : simulator_(simulator), aborts_(aborts_before_commit) {}

  void Execute(const txn::TxnRequest& request, txn::TxnCallback done) override {
    ++attempts_;
    bool commit = (attempt_count_[TxnIdClient(request.id)]++ >= aborts_);
    simulator_->ScheduleAfter(Millis(10), [commit, done]() {
      txn::TxnResult r;
      r.outcome = commit ? txn::TxnOutcome::kCommitted
                         : txn::TxnOutcome::kAborted;
      done(r);
    });
  }
  std::string name() const override { return "fake"; }
  Value DebugValue(Key) override { return 0; }

  int attempts_ = 0;
  sim::Simulator* simulator_;
  int aborts_;
  std::map<uint32_t, int> attempt_count_;
};

/// One-shot workload: a single low-priority increment transaction.
class OneKeyWorkload : public workload::Workload {
 public:
  txn::TxnRequest Next(Rng&) override {
    txn::TxnRequest r;
    r.read_set = {1};
    r.write_set = {1};
    r.compute_writes = [](const std::vector<txn::ReadResult>&) {
      return txn::WriteDecision{};
    };
    return r;
  }
  std::string name() const override { return "one-key"; }
  uint64_t keyspace() const override { return 1; }
};

TEST(ClientTest, RetriesUntilCommitAndRecordsFullLatency) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, /*aborts_before_commit=*/3);
  OneKeyWorkload wl;
  RunStats stats;
  Client::Options opts;
  opts.rate_tps = 1000.0;  // first arrival almost immediately
  opts.client_id = 1;
  opts.stop_generating_at = Millis(1);  // exactly one transaction
  opts.measure_start = 0;
  opts.measure_end = Seconds(10);
  Client client(&simulator, &engine, &wl, opts, Rng(3), &stats);
  client.Start();
  simulator.Run();
  EXPECT_EQ(stats.committed_low, 1);
  EXPECT_EQ(stats.aborted_attempts, 3);
  ASSERT_EQ(stats.latencies_low_ms.size(), 1u);
  // 4 attempts x 10 ms each.
  EXPECT_NEAR(stats.latencies_low_ms[0], 40.0, 0.5);
}

TEST(ClientTest, GivesUpAfterMaxAttempts) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, /*aborts_before_commit=*/1000);
  OneKeyWorkload wl;
  RunStats stats;
  Client::Options opts;
  opts.rate_tps = 1000.0;
  opts.client_id = 1;
  opts.stop_generating_at = Millis(1);
  opts.measure_start = 0;
  opts.measure_end = Seconds(100);
  opts.max_attempts = 100;
  Client client(&simulator, &engine, &wl, opts, Rng(3), &stats);
  client.Start();
  simulator.Run();
  EXPECT_EQ(stats.committed_low, 0);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(engine.attempts_, 100);
}

TEST(ClientTest, OutOfWindowTransactionsAreNotRecorded) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, 0);
  OneKeyWorkload wl;
  RunStats stats;
  Client::Options opts;
  opts.rate_tps = 100.0;
  opts.client_id = 1;
  opts.stop_generating_at = Seconds(2);
  opts.measure_start = Seconds(1);   // only the second half counts
  opts.measure_end = Seconds(2);
  Client client(&simulator, &engine, &wl, opts, Rng(3), &stats);
  client.Start();
  simulator.Run();
  EXPECT_GT(engine.attempts_, 150);  // ~200 generated
  EXPECT_LT(stats.committed_low, 150);
  EXPECT_GT(stats.committed_low, 50);
}

// ---------------------------------------------------------------------------
// End-to-end experiment runner
// ---------------------------------------------------------------------------

TEST(ClientTest, BackoffNeverExceedsConfiguredCap) {
  // Regression for the cap overshoot: jitter used to be added *after* the
  // clamp, so the effective backoff reached 1.5x the cap. The jittered
  // delay must now stay inside the cap for every attempt, while jitter
  // still spreads the sub-cap delays.
  Client::Options options;
  options.backoff_base = Millis(25);
  SimDuration max_seen = 0;
  bool jitter_seen = false;
  for (uint32_t client = 0; client < 8; ++client) {
    options.client_id = client;
    for (SimTime start : {Millis(1), Millis(777), Seconds(3)}) {
      for (int attempt = 2; attempt <= 30; ++attempt) {
        SimDuration d = Client::BackoffDelay(options, start, attempt);
        SimDuration exponential =
            options.backoff_base << std::min(attempt - 2, 20);
        EXPECT_GE(d, std::min(exponential, Client::kBackoffCap));
        EXPECT_LE(d, Client::kBackoffCap)
            << "cap exceeded at attempt " << attempt;
        if (d > exponential && exponential < Client::kBackoffCap) {
          jitter_seen = true;
        }
        max_seen = std::max(max_seen, d);
      }
    }
  }
  EXPECT_EQ(max_seen, Client::kBackoffCap) << "deep retries should pin the cap";
  EXPECT_TRUE(jitter_seen) << "jitter never fired";
}

TEST(ExperimentTest, RunsAndProducesSaneNumbers) {
  ExperimentConfig config;
  config.input_rate_tps = 30;
  config.duration = Seconds(9);
  config.warmup = Seconds(2);
  config.cooldown = Seconds(2);
  config.drain = Seconds(10);
  config.repeats = 2;

  auto wl = []() {
    workload::YcsbTWorkload::Options o;
    o.num_keys = 100000;
    return std::make_unique<workload::YcsbTWorkload>(o);
  };
  ExperimentResult r =
      RunExperiment(config, MakeSystem(SystemKind::kCarouselBasic), wl);
  EXPECT_EQ(r.system, "Carousel Basic");
  // ~30 tps for 5 measured seconds, ~10% high priority.
  EXPECT_GT(r.goodput_total_tps.mean, 15.0);
  EXPECT_LT(r.goodput_total_tps.mean, 45.0);
  // Latency at low contention: a couple of WAN round trips.
  EXPECT_GT(r.p95_high_ms.mean, 150.0);
  EXPECT_LT(r.p95_high_ms.mean, 1500.0);
  EXPECT_EQ(r.p95_high_ms.n, 2);
}

TEST(ExperimentTest, SeedsMakeRunsReproducible) {
  ExperimentConfig config;
  config.input_rate_tps = 20;
  config.duration = Seconds(6);
  config.warmup = Seconds(1);
  config.cooldown = Seconds(1);
  config.repeats = 1;
  auto wl = []() {
    workload::YcsbTWorkload::Options o;
    o.num_keys = 100000;
    return std::make_unique<workload::YcsbTWorkload>(o);
  };
  RunStats a = RunOnce(config, MakeSystem(SystemKind::kNattoRecsf), wl, 5);
  RunStats b = RunOnce(config, MakeSystem(SystemKind::kNattoRecsf), wl, 5);
  EXPECT_EQ(a.committed_low, b.committed_low);
  EXPECT_EQ(a.committed_high, b.committed_high);
  ASSERT_EQ(a.latencies_low_ms.size(), b.latencies_low_ms.size());
  for (size_t i = 0; i < a.latencies_low_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.latencies_low_ms[i], b.latencies_low_ms[i]);
  }
}

// ---------------------------------------------------------------------------
// Environment overrides
// ---------------------------------------------------------------------------

/// A malformed or out-of-range override stops the run, naming the variable
/// and its value, instead of being ignored. Each death statement sets the
/// variable in the child only.
TEST(EnvOverridesDeathTest, BadValuesFailACheck) {
  ExperimentConfig config;
  EXPECT_DEATH(
      {
        setenv("NATTO_REPEATS", "abc", /*overwrite=*/1);
        ApplyEnvOverrides(&config);
      },
      "NATTO_REPEATS: not a number: 'abc'");
  EXPECT_DEATH(
      {
        setenv("NATTO_DURATION_S", "2", /*overwrite=*/1);
        ApplyEnvOverrides(&config);
      },
      "NATTO_DURATION_S=2 is not an integer >= 3");
  EXPECT_DEATH(
      {
        setenv("NATTO_SIM_THREADS", "4x", /*overwrite=*/1);
        ApplyEnvOverrides(&config);
      },
      "NATTO_SIM_THREADS=4x");
  EXPECT_DEATH(
      {
        setenv("NATTO_JOBS", "0", /*overwrite=*/1);
        DefaultJobs();
      },
      "NATTO_JOBS=0");
}

TEST(EnvOverridesTest, ValidValuesApply) {
  ASSERT_EQ(setenv("NATTO_REPEATS", "3", /*overwrite=*/1), 0);
  ASSERT_EQ(setenv("NATTO_DURATION_S", "12", /*overwrite=*/1), 0);
  ExperimentConfig config;
  ApplyEnvOverrides(&config);
  ASSERT_EQ(unsetenv("NATTO_REPEATS"), 0);
  ASSERT_EQ(unsetenv("NATTO_DURATION_S"), 0);
  EXPECT_EQ(config.repeats, 3);
  EXPECT_EQ(config.duration, Seconds(12));
  EXPECT_EQ(config.warmup, Seconds(2));
  EXPECT_EQ(config.cooldown, Seconds(2));
}

}  // namespace
}  // namespace natto::harness
