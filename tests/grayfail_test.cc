// Gray-failure defense units: the φ-accrual failure detector (suspicion
// rises through silence, resets on arrival, caps, ignores reordering) and
// the client's hedged requests (cold-start floor, adaptive per-priority
// percentile, exactly-once settlement with hedge routing). The end-to-end
// defense stack is exercised by raft_test (fail-away, suspicion elections)
// and the fig_grayfail bench; these tests pin the primitives.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/client.h"
#include "harness/stats.h"
#include "net/failure_detector.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "txn/transaction.h"
#include "workload/workload.h"

namespace natto {
namespace {

// ---------------------------------------------------------------------------
// φ-accrual failure detector
// ---------------------------------------------------------------------------

TEST(FailureDetectorTest, PhiRisesThroughSilenceAndResetsOnHeartbeat) {
  net::FailureDetector fd;
  int s = fd.AddStream("leader");
  ASSERT_EQ(fd.num_streams(), 1);

  // No heartbeat yet: no basis for suspicion.
  EXPECT_DOUBLE_EQ(fd.Phi(s, Millis(1)), 0.0);

  // A steady 50 ms cadence for a second.
  for (int i = 0; i <= 20; ++i) fd.Heartbeat(s, Millis(50) * i);
  EXPECT_EQ(fd.samples(s), 20u);

  // Right after a beat, suspicion is negligible; after one expected
  // interval it is mild; after ten it is damning.
  EXPECT_LT(fd.Phi(s, Millis(1001)), 0.5);
  double at_one_interval = fd.Phi(s, Millis(1050));
  double at_ten_intervals = fd.Phi(s, Millis(1500));
  EXPECT_GT(at_ten_intervals, 8.0);
  EXPECT_GT(at_ten_intervals, at_one_interval);

  // φ is monotone non-decreasing while the silence lasts.
  double prev = 0.0;
  for (SimTime t = Millis(1001); t <= Millis(1400); t += Millis(20)) {
    double phi = fd.Phi(s, t);
    EXPECT_GE(phi, prev) << "phi regressed at t=" << t;
    prev = phi;
  }

  // The next arrival collapses the suspicion back to ~0.
  fd.Heartbeat(s, Millis(1600));
  EXPECT_LT(fd.Phi(s, Millis(1601)), 0.5);
}

TEST(FailureDetectorTest, PhiIsCappedAtMaxPhi) {
  net::FailureDetector fd;
  int s = fd.AddStream("x");
  for (int i = 0; i <= 4; ++i) fd.Heartbeat(s, Millis(50) * i);
  EXPECT_DOUBLE_EQ(fd.Phi(s, Seconds(100)), net::FailureDetector::kMaxPhi);
}

TEST(FailureDetectorTest, ColdStartBlendsPriorBeforeWindowFills) {
  // One observed interval (200 ms) against a 50 ms prior: the blended mean
  // sits between them, so silence past a few hundred ms already registers
  // while a single slow sample alone would have said "normal".
  net::FailureDetector fd;
  int s = fd.AddStream("sparse");
  fd.Heartbeat(s, 0);
  fd.Heartbeat(s, Millis(200));
  EXPECT_EQ(fd.samples(s), 1u);
  double shortly_after = fd.Phi(s, Millis(210));
  double long_after = fd.Phi(s, Millis(800));
  EXPECT_LT(shortly_after, 1.0);
  EXPECT_GT(long_after, 2.0);
  EXPECT_GT(long_after, shortly_after);
}

TEST(FailureDetectorTest, IgnoresOutOfOrderAndDuplicateArrivals) {
  net::FailureDetector fd;
  int s = fd.AddStream("reorder");
  fd.Heartbeat(s, Millis(50));
  fd.Heartbeat(s, Millis(100));
  ASSERT_EQ(fd.samples(s), 1u);
  double before = fd.Phi(s, Millis(120));
  // A stale arrival (and an exact duplicate) must not rewind the stream.
  fd.Heartbeat(s, Millis(80));
  fd.Heartbeat(s, Millis(100));
  EXPECT_EQ(fd.samples(s), 1u);
  EXPECT_DOUBLE_EQ(fd.Phi(s, Millis(120)), before);
}

TEST(FailureDetectorTest, RegisterMetricsExposesPerStreamGauges) {
  net::FailureDetector fd;
  obs::MetricsRegistry registry;
  fd.RegisterMetrics(&registry);
  int a = fd.AddStream("p0.r0");  // added after registration: still gauged
  fd.Heartbeat(a, 0);
  fd.Heartbeat(a, Millis(50));
  double phi = fd.Phi(a, Millis(500));
  obs::MetricsSnapshot snap = registry.Snapshot();
  auto it = snap.gauges.find("fd.phi.p0.r0");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_DOUBLE_EQ(it->second, phi);
}

// ---------------------------------------------------------------------------
// Hedged requests
// ---------------------------------------------------------------------------

// Commits every request after a per-request latency chosen by the test.
struct FakeEngine : txn::TxnEngine {
  sim::Simulator* simulator;
  std::function<SimDuration(const txn::TxnRequest&)> latency;
  std::vector<std::pair<int, TxnId>> executes;  // (origin_site, txn id)

  void Execute(const txn::TxnRequest& request, txn::TxnCallback done) override {
    executes.emplace_back(request.origin_site, request.id);
    simulator->ScheduleAfter(latency(request), [done = std::move(done)]() {
      txn::TxnResult r;
      r.outcome = txn::TxnOutcome::kCommitted;
      done(r);
    });
  }
  std::string name() const override { return "fake"; }
  Value DebugValue(Key) override { return 0; }
};

struct FixedPriorityWorkload : workload::Workload {
  txn::Priority priority = txn::Priority::kHigh;
  txn::TxnRequest Next(Rng&) override {
    txn::TxnRequest req;
    req.priority = priority;
    req.read_set = {1};
    req.write_set = {1};
    req.compute_writes = [](const std::vector<txn::ReadResult>&) {
      return txn::WriteDecision{false, {{1, 1}}};
    };
    return req;
  }
  std::string name() const override { return "fixed"; }
  uint64_t keyspace() const override { return 1; }
};

harness::Client::Options HedgeOptions() {
  harness::Client::Options opts;
  opts.rate_tps = 50;
  opts.client_id = 1;
  opts.stop_generating_at = Seconds(1);
  opts.measure_start = 0;
  opts.measure_end = Seconds(10);
  opts.hedge_percentile = 0.95;
  opts.hedge_min_delay = Millis(10);
  opts.hedge_min_samples = 4;
  return opts;
}

TEST(ClientHedgeTest, ColdStartUsesMinDelayThenTracksObservedPercentile) {
  sim::Simulator simulator;
  FakeEngine engine;
  engine.simulator = &simulator;
  engine.latency = [](const txn::TxnRequest&) { return Millis(20); };
  FixedPriorityWorkload workload;
  harness::RunStats stats;
  harness::Client client(&simulator, &engine, &workload, HedgeOptions(),
                         Rng(7), &stats);

  // Below hedge_min_samples the delay is the configured floor, per class.
  EXPECT_EQ(client.HedgeDelay(true), Millis(10));
  EXPECT_EQ(client.HedgeDelay(false), Millis(10));

  client.Start();
  simulator.Run();

  // Every settled attempt took 20 ms, so the adaptive p95 is 20 ms. The
  // low-priority class saw no traffic and stays on the cold-start floor.
  EXPECT_GT(stats.committed_high, 0);
  EXPECT_EQ(client.HedgeDelay(true), Millis(20));
  EXPECT_EQ(client.HedgeDelay(false), Millis(10));
}

TEST(ClientHedgeTest, PercentileIsFlooredAtMinDelay) {
  sim::Simulator simulator;
  FakeEngine engine;
  engine.simulator = &simulator;
  engine.latency = [](const txn::TxnRequest&) { return Millis(2); };
  FixedPriorityWorkload workload;
  harness::RunStats stats;
  harness::Client client(&simulator, &engine, &workload, HedgeOptions(),
                         Rng(7), &stats);
  client.Start();
  simulator.Run();
  // Observed p95 = 2 ms, but the floor keeps the hedge from spraying
  // duplicates at a fast cluster.
  EXPECT_GT(stats.committed_high, 0);
  EXPECT_EQ(client.HedgeDelay(true), Millis(10));
}

TEST(ClientHedgeTest, HedgeWinsRouteElsewhereAndSettleExactlyOnce) {
  sim::Simulator simulator;
  FakeEngine engine;
  engine.simulator = &simulator;
  // The primary coordinator site is gray-slow; the hedge route is healthy.
  engine.latency = [](const txn::TxnRequest& request) {
    return request.origin_site == 0 ? Millis(500) : Millis(5);
  };
  FixedPriorityWorkload workload;
  harness::RunStats stats;
  obs::MetricsRegistry registry;
  harness::Client::Options opts = HedgeOptions();
  opts.rate_tps = 20;
  // Pin the hedge delay to the floor for the whole run.
  opts.hedge_min_samples = 1 << 20;
  opts.hedge_route = [](int) { return 1; };
  harness::Client client(&simulator, &engine, &workload, opts, Rng(11),
                         &stats, &registry);
  client.Start();
  simulator.Run();

  // Every transaction: primary to site 0 (500 ms), hedge to site 1 at
  // +10 ms (settles at 15 ms, wins), late primary response dropped by the
  // settled token. Exactly one committed outcome per transaction.
  int64_t primaries = 0, hedged = 0;
  std::set<TxnId> primary_ids, hedge_ids;
  for (const auto& [site, id] : engine.executes) {
    if (site == 0) {
      ++primaries;
      primary_ids.insert(id);
    } else {
      ++hedged;
      hedge_ids.insert(id);
    }
  }
  ASSERT_GT(primaries, 0);
  EXPECT_EQ(hedged, primaries);
  EXPECT_EQ(stats.committed_high, primaries);
  EXPECT_EQ(stats.failed, 0);
  // The hedge is an independent transaction under a fresh id.
  for (TxnId id : hedge_ids) {
    EXPECT_EQ(primary_ids.count(id), 0u) << "hedge reused txn id " << id;
  }
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("client.hedges"), primaries);
  EXPECT_EQ(snap.counter("client.hedge_wins"), primaries);
}

TEST(ClientHedgeTest, PrimaryWinDropsLateHedgeResponse) {
  sim::Simulator simulator;
  FakeEngine engine;
  engine.simulator = &simulator;
  // Primary settles at 20 ms; the hedge (fired at 10 ms during cold start)
  // would settle at 30 ms and must lose the race.
  engine.latency = [](const txn::TxnRequest&) { return Millis(20); };
  FixedPriorityWorkload workload;
  harness::RunStats stats;
  obs::MetricsRegistry registry;
  harness::Client::Options opts = HedgeOptions();
  opts.hedge_min_samples = 1 << 20;  // hedge delay pinned at 10 ms < 20 ms
  harness::Client client(&simulator, &engine, &workload, opts, Rng(3),
                         &stats, &registry);
  client.Start();
  simulator.Run();

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter("client.hedges"), 0);
  EXPECT_EQ(snap.counter("client.hedge_wins"), 0);
  // Each transaction committed exactly once despite two executions.
  EXPECT_EQ(stats.committed_high,
            static_cast<int64_t>(engine.executes.size()) / 2);
}

}  // namespace
}  // namespace natto
