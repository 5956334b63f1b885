// Parameterized property sweeps of the Natto engine itself (TEST_P over
// contention levels and priority mixes), checking the paper's core claims:
//  - with accurate arrival estimates, high-priority transactions are never
//    system-aborted (they wait instead; Sec 3.2);
//  - histories stay serializable at every contention level;
//  - priority aborts only ever target low-priority transactions.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "engine_test_util.h"
#include "natto/natto.h"

namespace natto::core {
namespace {

using testutil::MakeCluster;
using testutil::NattoCounter;
using testutil::ScheduleTxn;

class NattoSweepTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, NattoSweepTest,
    ::testing::Combine(::testing::Values(4, 16, 64),   // hot keyspace size
                       ::testing::Values(0.1, 0.5, 0.9)),  // high-pri mix
    [](const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
      return "keys" + std::to_string(std::get<0>(info.param)) + "_high" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST_P(NattoSweepTest, HighPriorityNeverAbortsAndHistorySerializable) {
  auto [keyspace, high_fraction] = GetParam();

  txn::ClusterOptions copts;
  copts.max_clock_skew = 0;  // exact estimates: constant delays, no skew
  auto cluster = MakeCluster(1234, copts);
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());

  Rng rng(99 + keyspace);
  struct Issued {
    std::shared_ptr<testutil::TxnProbe> probe;
    txn::Priority priority;
  };
  std::vector<Issued> issued;
  for (int i = 0; i < 120; ++i) {
    std::vector<Key> keys;
    int n = static_cast<int>(rng.UniformInt(1, 2));
    while (static_cast<int>(keys.size()) < n) {
      Key k = static_cast<Key>(rng.UniformInt(0, keyspace - 1));
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
    txn::Priority prio = rng.Bernoulli(high_fraction)
                             ? txn::Priority::kHigh
                             : txn::Priority::kLow;
    SimTime at = Seconds(2) + Millis(rng.UniformInt(0, 6000));
    int site = static_cast<int>(rng.UniformInt(0, 4));
    issued.push_back({ScheduleTxn(cluster.get(), &engine, at,
                                  MakeTxnId(1, 100 + i), prio, keys, keys,
                                  site),
                      prio});
  }
  cluster->simulator()->RunUntil(Seconds(60));

  std::map<Key, int64_t> committed;
  for (const auto& it : issued) {
    ASSERT_TRUE(it.probe->result.has_value()) << "txn hung";
    if (it.priority == txn::Priority::kHigh) {
      EXPECT_TRUE(it.probe->committed())
          << "high-priority aborted: "
          << obs::AbortCauseName(it.probe->result->abort_cause);
    }
    if (it.probe->committed()) {
      for (const auto& [k, v] : it.probe->result->writes) ++committed[k];
    }
  }
  for (Key k = 0; k < static_cast<Key>(keyspace); ++k) {
    EXPECT_EQ(engine.DebugValue(k), committed[k]) << "key " << k;
  }

  // Priority aborts, if any, only targeted low-priority transactions (high
  // ones all committed above), and the order-violation path stayed quiet
  // under exact estimates.
  EXPECT_EQ(NattoCounter(cluster.get(), "order_violation_aborts"), 0);
}

TEST(NattoStarvationTest, PromotionAfterAbortsLetsLowCommit) {
  // A low-priority transaction repeatedly priority-aborted by a stream of
  // high-priority conflicting transactions eventually commits when the
  // client promotes it (the starvation remedy sketched in Sec 3.3.1).
  txn::ClusterOptions copts;
  copts.max_clock_skew = 0;
  auto cluster = MakeCluster(5, copts);
  NattoOptions opts = NattoOptions::Recsf();
  opts.pa_completion_estimate = false;  // abort aggressively
  NattoEngine engine(cluster.get(), opts);

  // Stream of high-priority txns on key 4 (partition 4, SG) from VA: each
  // has a ~107 ms abort window at nearer servers... the contended server is
  // SG itself; use two keys so WA is a nearer participant with a window.
  for (int i = 0; i < 40; ++i) {
    ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(40 * i),
                MakeTxnId(9, 1 + i), txn::Priority::kHigh, {1, 4}, {1, 4}, 0);
  }

  // The victim: low priority, issued from WA on the same keys, retried with
  // promotion after 3 aborts.
  int attempts = 0;
  bool committed = false;
  std::function<void(txn::Priority)> attempt = [&](txn::Priority prio) {
    txn::TxnRequest req;
    req.id = MakeTxnId(7, static_cast<uint32_t>(++attempts));
    req.priority = prio;
    req.read_set = {1, 4};
    req.write_set = {1, 4};
    req.origin_site = 1;
    req.compute_writes = testutil::IncrementWrites();
    engine.Execute(req, [&](const txn::TxnResult& r) {
      if (r.outcome == txn::TxnOutcome::kCommitted) {
        committed = true;
      } else if (attempts < 50) {
        attempt(attempts >= 3 ? txn::Priority::kHigh : txn::Priority::kLow);
      }
    });
  };
  cluster->simulator()->ScheduleAt(Seconds(2) + Millis(20),
                                   [&]() { attempt(txn::Priority::kLow); });
  cluster->simulator()->RunUntil(Seconds(20));
  EXPECT_TRUE(committed);
  EXPECT_LE(attempts, 10) << "promotion should end the starvation quickly";
}

}  // namespace
}  // namespace natto::core
