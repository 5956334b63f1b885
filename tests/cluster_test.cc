#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.h"
#include "harness/systems.h"
#include "txn/cluster.h"
#include "txn/topology.h"
#include "workload/ycsbt.h"

namespace natto::txn {
namespace {

ClusterOptions NoSkew() {
  ClusterOptions o;
  o.max_clock_skew = 0;
  return o;
}

TEST(ClusterTest, BuildsRaftGroupPerPartition) {
  Cluster c(net::LatencyMatrix::AzureFive(), Topology::Spread(5, 3, 5),
            NoSkew());
  for (int p = 0; p < 5; ++p) {
    ASSERT_NE(c.group(p), nullptr);
    EXPECT_TRUE(c.group(p)->leader()->IsLeader());
    EXPECT_EQ(c.group(p)->leader()->site(), p);
  }
}

TEST(ClusterTest, CoordinatorSiteIsLocalWhenLeading) {
  Cluster c(net::LatencyMatrix::AzureFive(), Topology::Spread(5, 3, 5),
            NoSkew());
  for (int s = 0; s < 5; ++s) EXPECT_EQ(c.CoordinatorSite(s), s);
}

TEST(ClusterTest, CoordinatorSiteFallsBackToNearestLeader) {
  // Only 2 partitions on 5 sites: sites 2..4 lead nothing.
  Cluster c(net::LatencyMatrix::AzureFive(), Topology::Spread(2, 3, 5),
            NoSkew());
  EXPECT_EQ(c.CoordinatorSite(0), 0);
  EXPECT_EQ(c.CoordinatorSite(1), 1);
  // PR's nearest leader site is VA (40 ms one-way vs 68 ms to WA).
  EXPECT_EQ(c.CoordinatorSite(2), 0);
}

TEST(ClusterTest, RunsDeterministicallyFromSeed) {
  auto run = [](uint64_t seed) {
    ClusterOptions o;
    o.seed = seed;
    Cluster c(net::LatencyMatrix::AzureFive(), Topology::Spread(3, 3, 5), o);
    std::vector<SimTime> commits;
    for (int i = 0; i < 10; ++i) {
      c.simulator()->ScheduleAt(Millis(i * 10), [&c, &commits]() {
        (void)c.group(0)->leader()->Propose(1, [&c, &commits]() {
          commits.push_back(c.simulator()->Now());
        });
      });
    }
    c.simulator()->RunUntil(Seconds(2));
    return commits;
  };
  EXPECT_EQ(run(5), run(5));
  // Clock skews differ across seeds but commit times with constant delays
  // are skew-independent; use a jittery model to see the seed effect.
  ClusterOptions o1;
  o1.seed = 1;
  o1.delay_variance_ratio = 0.2;
  ClusterOptions o2 = o1;
  o2.seed = 2;
  Cluster c1(net::LatencyMatrix::AzureFive(), Topology::Spread(1, 3, 5), o1);
  Cluster c2(net::LatencyMatrix::AzureFive(), Topology::Spread(1, 3, 5), o2);
  SimTime t1 = 0, t2 = 0;
  (void)c1.group(0)->leader()->Propose(1, [&]() { t1 = c1.simulator()->Now(); });
  (void)c2.group(0)->leader()->Propose(1, [&]() { t2 = c2.simulator()->Now(); });
  c1.simulator()->RunUntil(Seconds(2));
  c2.simulator()->RunUntil(Seconds(2));
  EXPECT_NE(t1, t2);
}

TEST(ClusterTest, ConservativeLookaheadTracksMinLinkAndDelayModel) {
  // Constant delays: the lookahead is the minimum cross-site one-way delay
  // over the topology's sites — VA-WA's 67 ms RTT halved on AzureFive.
  Cluster constant(net::LatencyMatrix::AzureFive(), Topology::Spread(5, 3, 5),
                   NoSkew());
  EXPECT_EQ(constant.ConservativeLookahead(), Millis(67) / 2);

  // Uniform jitter scales the guaranteed minimum by (1 - jitter).
  ClusterOptions jitter = NoSkew();
  jitter.uniform_jitter = 0.25;
  Cluster jittered(net::LatencyMatrix::AzureFive(), Topology::Spread(5, 3, 5),
                   jitter);
  EXPECT_EQ(jittered.ConservativeLookahead(),
            static_cast<SimDuration>((Millis(67) / 2) * 0.75));

  // Pareto delays have samples down to xm = mean * (alpha-1)/alpha: a
  // positive lookahead strictly below the constant-model bound.
  ClusterOptions pareto = NoSkew();
  pareto.delay_variance_ratio = 0.2;
  Cluster heavy(net::LatencyMatrix::AzureFive(), Topology::Spread(5, 3, 5),
                pareto);
  EXPECT_GT(heavy.ConservativeLookahead(), 0);
  EXPECT_LT(heavy.ConservativeLookahead(), constant.ConservativeLookahead());

  // A single-site topology has no cross-site links: no lookahead.
  Cluster single(net::LatencyMatrix::AzureFive(), Topology::Spread(1, 1, 1),
                 NoSkew());
  EXPECT_EQ(single.ConservativeLookahead(), 0);
}

TEST(ClusterTest, SimThreadsEngagesSiteParallelWhenEligible) {
  // An eligible config (fault-free, constant delays, stateless wire, >= 2
  // sites) under sim_threads > 1 runs the site-parallel kernel — and still
  // produces the exact serial event stream (byte_identity_test pins the
  // full-table guarantee; this pins the mode decision and one commit time).
  ClusterOptions o = NoSkew();
  o.sim_threads = 4;
  Cluster c(net::LatencyMatrix::AzureFive(), Topology::Spread(3, 3, 5), o);
  ASSERT_TRUE(c.SiteParallelEligible());
  EXPECT_TRUE(c.simulator()->site_parallel());
  SimTime done = 0;
  (void)c.group(0)->leader()->Propose(1,
                                      [&]() { done = c.simulator()->Now(); });
  c.simulator()->RunUntil(Seconds(2));
  ClusterOptions serial = NoSkew();
  Cluster s(net::LatencyMatrix::AzureFive(), Topology::Spread(3, 3, 5), serial);
  EXPECT_FALSE(s.simulator()->site_parallel());
  SimTime done_serial = 0;
  (void)s.group(0)->leader()->Propose(
      1, [&]() { done_serial = s.simulator()->Now(); });
  s.simulator()->RunUntil(Seconds(2));
  EXPECT_GT(done, 0);
  EXPECT_EQ(done, done_serial);
}

TEST(ClusterTest, SimThreadsRunsSerialKernelWhenIneligible) {
  // Randomized delays make the config ineligible (per-message RNG draws are
  // cross-site state): no kernel is installed, so sim_threads > 1 runs the
  // plain serial Simulator and commits exactly when a serial run does.
  ClusterOptions o = NoSkew();
  o.sim_threads = 4;
  o.delay_variance_ratio = 0.2;
  Cluster c(net::LatencyMatrix::AzureFive(), Topology::Spread(3, 3, 5), o);
  EXPECT_FALSE(c.SiteParallelEligible());
  EXPECT_FALSE(c.simulator()->site_parallel());
  SimTime done = 0;
  (void)c.group(0)->leader()->Propose(1,
                                      [&]() { done = c.simulator()->Now(); });
  c.simulator()->RunUntil(Seconds(2));
  ClusterOptions serial = NoSkew();
  serial.delay_variance_ratio = 0.2;
  Cluster s(net::LatencyMatrix::AzureFive(), Topology::Spread(3, 3, 5), serial);
  SimTime done_serial = 0;
  (void)s.group(0)->leader()->Propose(
      1, [&]() { done_serial = s.simulator()->Now(); });
  s.simulator()->RunUntil(Seconds(2));
  EXPECT_GT(done, 0);
  EXPECT_EQ(done, done_serial);
}

#ifndef NDEBUG
TEST(ClusterTest, MisSitedScheduleTripsDcheckUnderSiteParallel) {
  // Naming a site the topology does not have is a lane-ownership bug; the
  // kernel's MainSchedule DCHECK catches it at schedule time (debug builds
  // only — NATTO_DCHECK compiles out under NDEBUG).
  ClusterOptions o = NoSkew();
  o.sim_threads = 2;
  Cluster c(net::LatencyMatrix::AzureFive(), Topology::Spread(3, 3, 5), o);
  ASSERT_TRUE(c.simulator()->site_parallel());
  EXPECT_DEATH(c.simulator()->ScheduleAtSite(99, Millis(1), []() {}), "");
}
#endif

TEST(ClusterTest, TracingLeavesCpuCostResultsUnchanged) {
  // The tracer changes neither the kernel nor what is simulated: a traced
  // site-confined config with the CPU-cost model stays eligible for
  // site-parallel windows, and its 3-thread run matches the untraced serial
  // run on every latency and every counter.
  auto config_for = [](bool traced, int sim_threads) {
    harness::ExperimentConfig config;
    config.matrix = net::LatencyMatrix::LocalTriangle();
    config.num_partitions = 3;
    config.num_replicas = 3;
    config.input_rate_tps = 500;
    config.duration = Seconds(1);
    config.warmup = Millis(200);
    config.cooldown = Millis(200);
    config.drain = Seconds(1);
    config.cluster.transport.node_cost_per_message = Micros(25);
    config.cluster.trace.enabled = traced;
    config.cluster.sim_threads = sim_threads;
    return config;
  };
  auto run = [](const harness::ExperimentConfig& config) {
    harness::WorkloadFactory workload = []() {
      workload::YcsbTWorkload::Options o;
      o.num_keys = 10000;
      return std::make_unique<workload::YcsbTWorkload>(o);
    };
    return harness::RunOnce(
        config, harness::MakeSystem(harness::SystemKind::kNattoRecsf),
        workload, config.seed);
  };
  const harness::ExperimentConfig traced_config = config_for(true, 3);
  Cluster probe(traced_config.matrix,
                Topology::Spread(3, 3, traced_config.matrix.num_sites()),
                traced_config.cluster);
  EXPECT_TRUE(probe.SiteParallelEligible());
  EXPECT_TRUE(probe.simulator()->site_parallel());

  harness::RunStats untraced = run(config_for(false, 1));
  harness::RunStats traced = run(traced_config);
  ASSERT_GT(untraced.committed_high + untraced.committed_low, 0);
  EXPECT_FALSE(traced.traces.empty());
  EXPECT_EQ(traced.committed_high, untraced.committed_high);
  EXPECT_EQ(traced.committed_low, untraced.committed_low);
  EXPECT_EQ(traced.aborted_attempts, untraced.aborted_attempts);
  EXPECT_EQ(traced.latencies_high_ms, untraced.latencies_high_ms);
  EXPECT_EQ(traced.latencies_low_ms, untraced.latencies_low_ms);
  EXPECT_TRUE(traced.metrics == untraced.metrics)
      << "traced:   " << traced.metrics.ToJson()
      << "\nuntraced: " << untraced.metrics.ToJson();
}

TEST(ClusterDeathTest, RejectsNegativeVarianceAndOutOfRangeJitter) {
  // A negative variance ratio or jitter would otherwise run silently as
  // constant delays; a jitter of 1 or more used to die only inside the
  // delay model.
  ClusterOptions variance = NoSkew();
  variance.delay_variance_ratio = -0.2;
  EXPECT_DEATH(Cluster(net::LatencyMatrix::AzureFive(),
                       Topology::Spread(3, 3, 5), variance),
               "delay_variance_ratio must be >= 0");
  for (double jitter : {-0.1, 1.0}) {
    ClusterOptions o = NoSkew();
    o.uniform_jitter = jitter;
    EXPECT_DEATH(
        Cluster(net::LatencyMatrix::AzureFive(), Topology::Spread(3, 3, 5), o),
        "uniform_jitter must be in");
  }
}

TEST(ClusterTest, RejectsTopologyLargerThanMatrix) {
  EXPECT_DEATH(
      Cluster(net::LatencyMatrix::LocalTriangle(), Topology::Spread(5, 3, 5),
              ClusterOptions{}),
      "more sites");
}

}  // namespace
}  // namespace natto::txn
