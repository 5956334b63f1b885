#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "tapir/tapir.h"

namespace natto::tapir {
namespace {

using testutil::CounterValue;
using testutil::MakeCluster;
using testutil::ScheduleTxn;

TEST(TapirTest, SingleTxnCommitsAndApplies) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  auto probe = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                           txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  // Read round (nearest replica) + prepare round (all replicas).
  EXPECT_GT(probe->latency_ms(), 100.0);
  EXPECT_LE(probe->latency_ms(), 800.0);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(engine.replica(1, r)->kv()->Get(1).value, 1);
    EXPECT_EQ(engine.replica(4, r)->kv()->Get(4).value, 1);
  }
}

TEST(TapirTest, NearestReplicaIsUsedForReads) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  // Partition 4's replicas live at sites 4, 0, 1; for a client at site 0 the
  // local replica (index 1) is nearest.
  EXPECT_EQ(engine.NearestReplica(4, 0), 1);
  // For a client at site 4, the leader replica (index 0) is local.
  EXPECT_EQ(engine.NearestReplica(4, 4), 0);
}

TEST(TapirTest, LocalReadIsCheap) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  // Client at VA, keys on partition 0 (leader at VA): the read round is
  // local, the prepare round spans the replica set (sites 0,1,2).
  auto probe = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                           txn::Priority::kLow, {0}, {0}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  // One prepare round trip to the furthest replica of partition 0 (PR,
  // 80 ms RTT) dominates.
  EXPECT_LE(probe->latency_ms(), 150.0);
}

TEST(TapirTest, ConcurrentConflictAbortsAtLeastOne) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  auto p1 = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                        txn::Priority::kLow, {3}, {3}, 0);
  auto p2 = ScheduleTxn(cluster.get(), &engine, Millis(5), MakeTxnId(2, 1),
                        txn::Priority::kLow, {3}, {3}, 1);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(p1->result.has_value());
  ASSERT_TRUE(p2->result.has_value());
  int commits = (p1->committed() ? 1 : 0) + (p2->committed() ? 1 : 0);
  EXPECT_GE(commits, 1);
  EXPECT_LE(commits, 2);
  // Whatever committed is reflected exactly once per commit.
  Value final = engine.DebugValue(3);
  EXPECT_EQ(final, commits == 2 ? 2 : 1);
}

TEST(TapirTest, StaleReadIsRejected) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  // T1 commits first; T2's read raced ahead of T1's commit at one replica
  // and must fail validation if it read stale data. Sequential case first:
  auto p1 = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                        txn::Priority::kLow, {2}, {2}, 0);
  auto p2 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 2),
                        txn::Priority::kLow, {2}, {2}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(p1->committed());
  ASSERT_TRUE(p2->committed());
  EXPECT_EQ(p2->result->reads[0].value, 1);
  EXPECT_EQ(engine.DebugValue(2), 2);
}

TEST(TapirTest, ReadOnlyTxnCommits) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  auto probe = ScheduleTxn(
      cluster.get(), &engine, 0, MakeTxnId(1, 1), txn::Priority::kLow,
      {1, 2, 3}, {}, 2, [](const std::vector<txn::ReadResult>&) {
        return txn::WriteDecision{};
      });
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  EXPECT_EQ(probe->result->reads.size(), 3u);
}

TEST(TapirTest, WriteOnlyTxnCommits) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  auto probe = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                           txn::Priority::kLow, {}, {6}, 0,
                           [](const std::vector<txn::ReadResult>&) {
                             txn::WriteDecision d;
                             d.writes.emplace_back(6, 42);
                             return d;
                           });
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  EXPECT_EQ(engine.DebugValue(6), 42);
}

TEST(TapirTest, UserAbortLeavesNoState) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  auto p1 = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                        txn::Priority::kLow, {5}, {5}, 0,
                        [](const std::vector<txn::ReadResult>&) {
                          txn::WriteDecision d;
                          d.user_abort = true;
                          return d;
                        });
  auto p2 = ScheduleTxn(cluster.get(), &engine, Seconds(1), MakeTxnId(1, 2),
                        txn::Priority::kLow, {5}, {5}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(p1->result.has_value());
  EXPECT_EQ(p1->result->outcome, txn::TxnOutcome::kUserAborted);
  EXPECT_TRUE(p2->committed());
  EXPECT_EQ(engine.DebugValue(5), 1);
}

TEST(TapirTest, LatePrepareOfAFinishedTxnIsRefusedAsStale) {
  auto cluster = MakeCluster();
  TapirEngine engine(cluster.get());
  const TxnId x = MakeTxnId(1, 1);
  auto first = ScheduleTxn(cluster.get(), &engine, 0, x, txn::Priority::kLow,
                           {3}, {3}, 0);
  cluster->simulator()->RunUntil(Seconds(2));
  ASSERT_TRUE(first->committed());
  auto vote_no = [&](int r) {
    return CounterValue(cluster.get(), "tapir.replica.p3.r" +
                                           std::to_string(r) +
                                           ".prepare_vote_no");
  };
  // X's duplicate prepare, with the version X read (0), at every replica.
  for (int r = 0; r < 3; ++r) {
    engine.replica(3, r)->HandlePrepare(x, {{3, 0}}, {3},
                                        engine.gateway_at(0)->id());
  }
  cluster->simulator()->RunUntil(Seconds(3));
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(vote_no(r), 1) << "r=" << r;
    EXPECT_EQ(engine.replica(3, r)->kv()->Get(3).value, 1) << "r=" << r;
  }

  // The refusals left no footprint: a fresh transaction on key 3 prepares
  // at every replica without a further no vote.
  auto second = ScheduleTxn(cluster.get(), &engine, Seconds(3),
                            MakeTxnId(1, 2), txn::Priority::kLow, {3}, {3}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(second->committed());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(vote_no(r), 1) << "r=" << r;
    EXPECT_EQ(engine.replica(3, r)->kv()->Get(3).value, 2) << "r=" << r;
  }
}

}  // namespace
}  // namespace natto::tapir
