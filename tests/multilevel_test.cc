// Tests for the multi-priority-level generalization (the paper's stated
// future work, Sec 3.1): strictly higher levels preempt lower ones, across
// both Natto's priority abort and 2PL+2PC's preemption policies.
#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "natto/natto.h"
#include "spanner/spanner.h"

namespace natto {
namespace {

using testutil::MakeCluster;
using testutil::NattoCounter;
using testutil::ScheduleTxn;

TEST(PriorityLevelTest, LevelsAreOrdered) {
  EXPECT_EQ(txn::PriorityLevel(txn::Priority::kLow), 0);
  EXPECT_EQ(txn::PriorityLevel(txn::Priority::kMedium), 1);
  EXPECT_EQ(txn::PriorityLevel(txn::Priority::kHigh), 2);
  EXPECT_FALSE(txn::IsPrioritized(txn::Priority::kLow));
  EXPECT_TRUE(txn::IsPrioritized(txn::Priority::kMedium));
  EXPECT_TRUE(txn::IsPrioritized(txn::Priority::kHigh));
  EXPECT_STREQ(txn::PriorityName(txn::Priority::kMedium), "medium");
}

TEST(NattoMultiLevelTest, HigherLevelsCascadePriorityAborts) {
  // Low, then medium, then high — all conflicting, all still queued when
  // the next one arrives. Only the highest survives.
  auto cluster = MakeCluster();
  core::NattoEngine engine(cluster.get(), core::NattoOptions::Pa());
  // All from VA touching {1, 4} (timestamps ~107 ms out, so a wide queue
  // window at WA).
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  auto medium = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(10),
                            MakeTxnId(2, 1), txn::Priority::kMedium, {1, 4},
                            {1, 4}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(20),
                          MakeTxnId(3, 1), txn::Priority::kHigh, {1, 4},
                          {1, 4}, 0);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(medium->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(high->committed());
  EXPECT_TRUE(medium->aborted());
  EXPECT_TRUE(low->aborted());
  EXPECT_GE(NattoCounter(cluster.get(), "priority_aborts"), 2);
  EXPECT_EQ(engine.DebugValue(1), 1);
}

TEST(NattoMultiLevelTest, MediumPreemptsLowButYieldsToHigh) {
  auto cluster = MakeCluster();
  core::NattoEngine engine(cluster.get(), core::NattoOptions::Pa());
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  auto medium = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(40),
                            MakeTxnId(2, 1), txn::Priority::kMedium, {1, 4},
                            {1, 4}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(medium->result.has_value());
  EXPECT_TRUE(medium->committed());
  EXPECT_TRUE(low->aborted());
}

TEST(NattoMultiLevelTest, SameLevelNeverPriorityAborts) {
  auto cluster = MakeCluster();
  core::NattoEngine engine(cluster.get(), core::NattoOptions::Pa());
  auto m1 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                        txn::Priority::kMedium, {1, 4}, {1, 4}, 0);
  auto m2 = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(40),
                        MakeTxnId(2, 1), txn::Priority::kMedium, {1, 4},
                        {1, 4}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(m1->result.has_value());
  ASSERT_TRUE(m2->result.has_value());
  // Both prioritized: the later one waits (locking path), neither aborts.
  EXPECT_TRUE(m1->committed());
  EXPECT_TRUE(m2->committed());
  EXPECT_EQ(NattoCounter(cluster.get(), "priority_aborts"), 0);
  EXPECT_EQ(engine.DebugValue(1), 2);
}

TEST(NattoMultiLevelTest, ThreeLevelHistoryIsSerializable) {
  auto cluster = MakeCluster(77);
  core::NattoEngine engine(cluster.get(), core::NattoOptions::Recsf());
  Rng rng(42);
  std::vector<std::shared_ptr<testutil::TxnProbe>> probes;
  for (int i = 0; i < 120; ++i) {
    Key k = static_cast<Key>(rng.UniformInt(0, 9));
    double roll = rng.UniformDouble();
    txn::Priority prio = roll < 0.6   ? txn::Priority::kLow
                         : roll < 0.9 ? txn::Priority::kMedium
                                      : txn::Priority::kHigh;
    probes.push_back(ScheduleTxn(
        cluster.get(), &engine, Seconds(2) + Millis(rng.UniformInt(0, 6000)),
        MakeTxnId(1, 10 + i), prio, {k}, {k},
        static_cast<int>(rng.UniformInt(0, 4))));
  }
  cluster->simulator()->RunUntil(Seconds(40));
  std::map<Key, int64_t> commits;
  for (const auto& p : probes) {
    ASSERT_TRUE(p->result.has_value());
    if (p->committed()) {
      for (const auto& [k, v] : p->result->writes) ++commits[k];
    }
  }
  for (Key k = 0; k < 10; ++k) {
    EXPECT_EQ(engine.DebugValue(k), commits[k]) << "key " << k;
  }
}

TEST(SpannerMultiLevelTest, PreemptionFollowsLevels) {
  // Medium holds; high preempts it under (P). Low would not.
  auto cluster = MakeCluster();
  spanner::SpannerEngine engine(
      cluster.get(), spanner::SpannerOptions{spanner::PreemptPolicy::kPreempt});
  auto medium = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                            txn::Priority::kMedium, {2, 4}, {2, 4}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Millis(120), MakeTxnId(2, 1),
                          txn::Priority::kHigh, {2, 4}, {2, 4}, 0);
  cluster->simulator()->RunUntil(Seconds(10));
  ASSERT_TRUE(high->result.has_value());
  ASSERT_TRUE(medium->result.has_value());
  EXPECT_TRUE(high->committed());
  EXPECT_TRUE(medium->aborted());
}

}  // namespace
}  // namespace natto
