#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/parallel_runner.h"
#include "harness/systems.h"
#include "workload/ycsbt.h"

namespace natto::harness {
namespace {

// ---------------------------------------------------------------------------
// CellSeed
// ---------------------------------------------------------------------------

TEST(CellSeedTest, PureFunctionOfItsInputs) {
  EXPECT_EQ(CellSeed(42, 1, 2, 3), CellSeed(42, 1, 2, 3));
  EXPECT_NE(CellSeed(42, 1, 2, 3), CellSeed(43, 1, 2, 3));
}

TEST(CellSeedTest, NeighboringCellsGetDistinctSeeds) {
  std::set<uint64_t> seeds;
  for (int s = 0; s < 8; ++s) {
    for (int x = 0; x < 8; ++x) {
      for (int r = 0; r < 10; ++r) {
        seeds.insert(CellSeed(42, s, x, r));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 8u * 8u * 10u);
  EXPECT_FALSE(seeds.contains(0));
}

// ---------------------------------------------------------------------------
// ParallelRunner
// ---------------------------------------------------------------------------

TEST(ParallelRunnerTest, RunsEveryTaskExactlyOnceAtAnyJobCount) {
  for (int jobs : {1, 2, 7, 16}) {
    std::vector<std::atomic<int>> hits(100);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < hits.size(); ++i) {
      tasks.push_back([&hits, i]() { hits[i].fetch_add(1); });
    }
    ParallelRunner runner(jobs);
    EXPECT_EQ(runner.jobs(), jobs);
    runner.Run(std::move(tasks));
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelRunnerTest, DefaultJobsHonorsEnvOverride) {
  ASSERT_EQ(setenv("NATTO_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultJobs(), 3);
  EXPECT_EQ(ParallelRunner().jobs(), 3);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);
  EXPECT_GE(DefaultJobs(), 1);
}

// ---------------------------------------------------------------------------
// Serial vs parallel determinism
// ---------------------------------------------------------------------------

ExperimentConfig SmallConfig(double rate) {
  ExperimentConfig config;
  config.input_rate_tps = rate;
  config.duration = Seconds(6);
  config.warmup = Seconds(1);
  config.cooldown = Seconds(1);
  config.drain = Seconds(6);
  config.repeats = 2;
  return config;
}

WorkloadFactory SmallWorkload() {
  return []() {
    workload::YcsbTWorkload::Options o;
    o.num_keys = 100000;
    return std::make_unique<workload::YcsbTWorkload>(o);
  };
}

void ExpectAggregateEq(const Aggregate& a, const Aggregate& b) {
  EXPECT_EQ(a.mean, b.mean);  // bitwise: merging order must not differ
  EXPECT_EQ(a.ci95, b.ci95);
  EXPECT_EQ(a.n, b.n);
}

TEST(RunGridTest, SerialAndParallelResultsAreBitIdentical) {
  std::vector<System> systems = {MakeSystem(SystemKind::kCarouselBasic),
                                 MakeSystem(SystemKind::kNattoRecsf)};
  std::vector<GridPoint> points;
  points.push_back({SmallConfig(20), SmallWorkload()});
  points.push_back({SmallConfig(35), SmallWorkload()});

  auto serial = RunGrid(points, systems, /*jobs=*/1);
  auto parallel = RunGrid(points, systems, /*jobs=*/8);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].size(), parallel[p].size());
    for (size_t s = 0; s < serial[p].size(); ++s) {
      const ExperimentResult& a = serial[p][s];
      const ExperimentResult& b = parallel[p][s];
      EXPECT_EQ(a.system, b.system);
      ExpectAggregateEq(a.p95_high_ms, b.p95_high_ms);
      ExpectAggregateEq(a.p95_low_ms, b.p95_low_ms);
      ExpectAggregateEq(a.mean_high_ms, b.mean_high_ms);
      ExpectAggregateEq(a.mean_low_ms, b.mean_low_ms);
      ExpectAggregateEq(a.goodput_low_tps, b.goodput_low_tps);
      ExpectAggregateEq(a.goodput_total_tps, b.goodput_total_tps);
      ExpectAggregateEq(a.abort_fraction, b.abort_fraction);
      EXPECT_EQ(a.failed, b.failed);
    }
  }
  // Sanity: the cells actually simulated traffic.
  EXPECT_GT(serial[0][0].goodput_total_tps.mean, 0.0);
}

/// Raw-thread variant: concurrent RunOnce calls against the same system must
/// neither race (ThreadSanitizer enforces this under the tsan preset) nor
/// perturb each other's results.
TEST(RunGridTest, ConcurrentRunOnceMatchesSerialRunOnce) {
  ExperimentConfig config = SmallConfig(20);
  WorkloadFactory wl = SmallWorkload();
  System system = MakeSystem(SystemKind::kCarouselBasic);

  RunStats baseline = RunOnce(config, system, wl, /*seed=*/5);

  constexpr int kThreads = 4;
  std::vector<RunStats> stats(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&config, &system, &wl, &stats, t]() {
      stats[t] = RunOnce(config, system, wl, /*seed=*/5);
    });
  }
  for (auto& t : threads) t.join();

  for (const RunStats& s : stats) {
    EXPECT_EQ(s.committed_low, baseline.committed_low);
    EXPECT_EQ(s.committed_high, baseline.committed_high);
    EXPECT_EQ(s.aborted_attempts, baseline.aborted_attempts);
    ASSERT_EQ(s.latencies_low_ms.size(), baseline.latencies_low_ms.size());
    for (size_t i = 0; i < s.latencies_low_ms.size(); ++i) {
      EXPECT_EQ(s.latencies_low_ms[i], baseline.latencies_low_ms[i]);
    }
  }
}

}  // namespace
}  // namespace natto::harness
