#include <gtest/gtest.h>

#include "carousel/carousel.h"
#include "engine_test_util.h"

namespace natto::carousel {
namespace {

using testutil::CounterValue;
using testutil::MakeCluster;
using testutil::ScheduleTxn;

/// The read-and-prepare a client at site 0 sends for a transaction that
/// reads and writes `key`.
WireTxn ReadPrepareOf(CarouselEngine& engine, TxnId id, Key key) {
  WireTxn w;
  w.id = id;
  w.read_set = {key};
  w.write_set = {key};
  w.coordinator = engine.coordinator_at(0)->id();
  w.client = engine.gateway_at(0)->id();
  return w;
}

TEST(CarouselBasicTest, SingleTxnCommitsAndApplies) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{});
  // Keys 1 (partition 1, WA) and 4 (partition 4, SG), client in VA.
  auto probe = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                           txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  // Reads saw the initial value 0.
  for (const auto& r : probe->result->reads) EXPECT_EQ(r.value, 0);
  // Latency: at least one round trip to the furthest participant (SG,
  // 214 ms RTT), and well under a second at zero contention.
  EXPECT_GE(probe->latency_ms(), 214.0);
  EXPECT_LE(probe->latency_ms(), 700.0);
  // Writes were applied at the leaders (asynchronously after commit).
  EXPECT_EQ(engine.DebugValue(1), 1);
  EXPECT_EQ(engine.DebugValue(4), 1);
}

TEST(CarouselBasicTest, SequentialTxnsSeeEachOther) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{});
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

TEST(CarouselBasicTest, ConcurrentConflictAbortsOne) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{});
  // Two conflicting transactions in flight at once (same keys).
  auto p1 = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                        txn::Priority::kLow, {3}, {3}, 0);
  auto p2 = ScheduleTxn(cluster.get(), &engine, Millis(10), MakeTxnId(2, 1),
                        txn::Priority::kLow, {3}, {3}, 1);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(p1->result.has_value());
  ASSERT_TRUE(p2->result.has_value());
  int commits = (p1->committed() ? 1 : 0) + (p2->committed() ? 1 : 0);
  int aborts = (p1->aborted() ? 1 : 0) + (p2->aborted() ? 1 : 0);
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(engine.DebugValue(3), 1);
}

TEST(CarouselBasicTest, ReadOnlyTxnCommits) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{});
  auto probe = ScheduleTxn(
      cluster.get(), &engine, 0, MakeTxnId(1, 1), txn::Priority::kLow, {1, 2},
      {}, 0, [](const std::vector<txn::ReadResult>&) {
        return txn::WriteDecision{};
      });
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  EXPECT_EQ(probe->result->reads.size(), 2u);
}

TEST(CarouselBasicTest, UserAbortReleasesState) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{});
  auto p1 = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                        txn::Priority::kLow, {5}, {5}, 0,
                        [](const std::vector<txn::ReadResult>&) {
                          txn::WriteDecision d;
                          d.user_abort = true;
                          return d;
                        });
  // A later transaction on the same key must not be blocked forever.
  auto p2 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 2),
                        txn::Priority::kLow, {5}, {5}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(p1->result.has_value());
  EXPECT_EQ(p1->result->outcome, txn::TxnOutcome::kUserAborted);
  EXPECT_TRUE(p2->committed());
  EXPECT_EQ(engine.DebugValue(5), 1);
}

TEST(CarouselBasicTest, DefaultValueFunctionIsUsed) {
  txn::ClusterOptions opts;
  opts.default_value = [](Key) { return Value{1000}; };
  auto cluster = MakeCluster(1, opts);
  CarouselEngine engine(cluster.get(), CarouselOptions{});
  auto probe = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                           txn::Priority::kLow, {7}, {7}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  EXPECT_EQ(probe->result->reads[0].value, 1000);
  EXPECT_EQ(engine.DebugValue(7), 1001);
}

TEST(CarouselBasicTest, LateReadPrepareOfAFinishedTxnIsRefusedAsStale) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{});
  const TxnId x = MakeTxnId(1, 1);
  auto probe = ScheduleTxn(cluster.get(), &engine, 0, x, txn::Priority::kLow,
                           {3}, {3}, 0);
  cluster->simulator()->RunUntil(Seconds(2));
  ASSERT_TRUE(probe->committed());
  ASSERT_EQ(engine.DebugValue(3), 1);
  // Y prepares on key 3 and is never decided. X's duplicate then conflicts
  // with Y's footprint too, but X has finished here, so it is stale.
  CarouselServer* server = engine.server(3);
  server->HandleReadPrepare(ReadPrepareOf(engine, MakeTxnId(2, 1), 3));
  server->HandleReadPrepare(ReadPrepareOf(engine, x, 3));
  cluster->simulator()->RunUntil(Seconds(4));
  EXPECT_EQ(CounterValue(cluster.get(), "carousel.server.p3.stale_vote_no"), 1);
  EXPECT_EQ(CounterValue(cluster.get(), "carousel.server.p3.occ_vote_no"), 0);
  EXPECT_EQ(engine.DebugValue(3), 1);
}

TEST(CarouselFastTest, SingleTxnCommits) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{/*fast_path=*/true});
  auto probe = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                           txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  EXPECT_EQ(engine.DebugValue(1), 1);
}

TEST(CarouselFastTest, FasterThanBasicAtZeroContention) {
  double fast_ms = 0, basic_ms = 0;
  {
    auto cluster = MakeCluster();
    CarouselEngine engine(cluster.get(), CarouselOptions{/*fast_path=*/true});
    auto p = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 2}, {1, 2}, 0);
    cluster->simulator()->RunUntil(Seconds(5));
    ASSERT_TRUE(p->committed());
    fast_ms = p->latency_ms();
  }
  {
    auto cluster = MakeCluster();
    CarouselEngine engine(cluster.get(), CarouselOptions{/*fast_path=*/false});
    auto p = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 2}, {1, 2}, 0);
    cluster->simulator()->RunUntil(Seconds(5));
    ASSERT_TRUE(p->committed());
    basic_ms = p->latency_ms();
  }
  EXPECT_LT(fast_ms, basic_ms);
}

TEST(CarouselFastTest, ReplicasConvergeAfterCommit) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{/*fast_path=*/true});
  auto probe = ScheduleTxn(cluster.get(), &engine, 0, MakeTxnId(1, 1),
                           txn::Priority::kLow, {2}, {2}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(engine.fast_replica(2, r)->kv()->Get(2).value, 1) << "r=" << r;
  }
}

TEST(CarouselFastTest, LatePreparesOfAFinishedTxnAreRefusedAsStale) {
  auto cluster = MakeCluster();
  CarouselEngine engine(cluster.get(), CarouselOptions{/*fast_path=*/true});
  const TxnId x = MakeTxnId(1, 1);
  auto first = ScheduleTxn(cluster.get(), &engine, 0, x, txn::Priority::kLow,
                           {3}, {3}, 0);
  cluster->simulator()->RunUntil(Seconds(2));
  ASSERT_TRUE(first->committed());
  auto counter = [&](int r, const std::string& name) {
    return CounterValue(cluster.get(), "carousel.replica.p3.r" +
                                           std::to_string(r) + "." + name);
  };
  // X's duplicate read-and-prepare at every replica, and its duplicate
  // slow prepare at the leader, with the version X read (0, now stale).
  for (int r = 0; r < 3; ++r) {
    engine.fast_replica(3, r)->HandleReadPrepare(ReadPrepareOf(engine, x, 3));
  }
  engine.fast_replica(3, 0)->HandleSlowPrepare(
      x, engine.coordinator_at(0)->id(), {{3, 0}}, {3}, {3});
  cluster->simulator()->RunUntil(Seconds(3));
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(counter(r, "fast_vote_no"), 1) << "r=" << r;
    EXPECT_EQ(engine.fast_replica(3, r)->kv()->Get(3).value, 1) << "r=" << r;
  }
  EXPECT_EQ(counter(0, "slow_vote_no"), 1);
  // The tombstone is checked before the read versions.
  EXPECT_EQ(counter(0, "slow_stale_read"), 0);

  // The refusals left no footprint: a fresh transaction on key 3 prepares
  // at every replica without a further no vote.
  auto second = ScheduleTxn(cluster.get(), &engine, Seconds(3),
                            MakeTxnId(1, 2), txn::Priority::kLow, {3}, {3}, 0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(second->committed());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(counter(r, "fast_vote_no"), 1) << "r=" << r;
    EXPECT_EQ(engine.fast_replica(3, r)->kv()->Get(3).value, 2) << "r=" << r;
  }
  EXPECT_EQ(counter(0, "slow_vote_no"), 1);
}

}  // namespace
}  // namespace natto::carousel
