#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "engine_test_util.h"
#include "natto/natto.h"
#include "natto/txn_table.h"

namespace natto::core {
namespace {

using testutil::MakeCluster;
using testutil::NattoCounter;
using testutil::ScheduleTxn;

// All scenario timings reference the Azure matrix: sites VA(0), WA(1),
// PR(2), NSW(3), SG(4); partition p's leader lives at site p.

// ---------------------------------------------------------------------------
// TxnTable
// ---------------------------------------------------------------------------

// Random inserts, takes and queries over a small keyspace (so keys are
// shared, repeated within a footprint, and read and written by the same
// transaction), checked step by step against a brute-force model: a map
// walked in queue order with a pairwise conflict test.
TEST(TxnTableTest, MatchesWalkOfEveryTransaction) {
  using Stage = TxnTable::Stage;
  const Stage kStages[] = {Stage::kQueued, Stage::kWaiting, Stage::kPrepared};
  struct Held {
    Stage stage;
    int level;
    std::vector<Key> reads, writes;
    int tag;  // stored as read_version, to tell states apart
  };
  auto overlaps = [](const std::vector<Key>& a, const std::vector<Key>& b) {
    for (Key x : a) {
      for (Key y : b) {
        if (x == y) return true;
      }
    }
    return false;
  };
  auto conflicts = [&](const std::vector<Key>& r, const std::vector<Key>& w,
                       const Held& h) {
    return overlaps(w, h.writes) || overlaps(w, h.reads) ||
           overlaps(r, h.writes);
  };
  Rng rng(33);
  auto footprint = [&rng]() {
    std::vector<Key> keys(static_cast<size_t>(rng.UniformInt(0, 3)));
    for (Key& k : keys) k = static_cast<Key>(rng.UniformInt(0, 24));
    return keys;
  };
  auto random_stage = [&]() { return kStages[rng.UniformInt(0, 2)]; };
  TxnTable table;
  std::map<OrderKey, Held> model;
  std::vector<OrderKey> got;
  TxnId next_id = 0;
  for (int step = 0; step < 30000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < 4 || model.empty()) {
      const OrderKey order{rng.UniformInt(0, 50), next_id++};
      Held h{random_stage(), static_cast<int>(rng.UniformInt(0, 2)),
             footprint(), footprint(), step};
      TxnState st;
      st.txn.id = order.second;
      st.txn.ts = order.first;
      st.txn.priority = static_cast<txn::Priority>(h.level);
      st.local_reads = h.reads;
      st.local_writes = h.writes;
      st.read_version = h.tag;
      const TxnState& stored = table.Insert(h.stage, std::move(st));
      ASSERT_EQ(stored.read_version, h.tag);
      ASSERT_EQ(table.Find(h.stage, order.second), &stored);
      model.emplace(order, std::move(h));
    } else if (op < 7) {
      auto it = model.begin();
      const auto held = static_cast<int64_t>(model.size());
      std::advance(it, rng.UniformInt(0, held - 1));
      Stage from = Stage::kQueued;
      std::optional<TxnState> taken = table.Take(it->first.second, &from);
      ASSERT_TRUE(taken.has_value()) << "step " << step;
      EXPECT_EQ(from, it->second.stage);
      EXPECT_EQ(taken->txn.id, it->first.second);
      EXPECT_EQ(taken->txn.ts, it->first.first);
      EXPECT_EQ(taken->read_version, it->second.tag);
      EXPECT_EQ(taken->local_reads, it->second.reads);
      EXPECT_EQ(taken->local_writes, it->second.writes);
      ASSERT_FALSE(table.Take(it->first.second).has_value());
      model.erase(it);
    } else {
      const std::vector<Key> r = footprint(), w = footprint();
      const Stage stage = random_stage();
      const OrderKey before{rng.UniformInt(0, 50), rng.UniformInt(0, 500)};
      const int min_level = static_cast<int>(rng.UniformInt(0, 2));
      const int max_level = static_cast<int>(rng.UniformInt(min_level, 2));
      std::vector<OrderKey> want;
      bool want_before = false, want_any = false;
      for (const auto& [order, h] : model) {
        if (h.stage != stage || !conflicts(r, w, h)) continue;
        want_any = true;
        want_before = want_before || order < before;
        if (h.level >= min_level && h.level <= max_level) want.push_back(order);
      }
      table.Conflicting(stage, r, w, min_level, max_level, &got);
      ASSERT_EQ(got, want) << "step " << step;
      ASSERT_EQ(table.AnyConflicting(stage, r, w, before), want_before)
          << "step " << step;
      ASSERT_EQ(table.AnyConflicting(stage, r, w), want_any)
          << "step " << step;
    }
    // Find agrees in every stage for a recent id, held or gone.
    const auto back = rng.UniformInt(0, std::min<int64_t>(20, next_id - 1));
    const TxnId probe = next_id - 1 - static_cast<TxnId>(back);
    const Held* held = nullptr;
    for (const auto& [order, h] : model) {
      if (order.second == probe) held = &h;
    }
    for (Stage stage : kStages) {
      const TxnState* found = table.Find(stage, probe);
      const bool want = held != nullptr && held->stage == stage;
      ASSERT_EQ(found != nullptr, want) << "step " << step;
      if (found != nullptr) {
        ASSERT_EQ(found->read_version, held->tag);
      }
    }
    // Each stage's first transaction is its least held order.
    for (Stage stage : kStages) {
      auto first = std::find_if(model.begin(), model.end(), [&](auto& m) {
        return m.second.stage == stage;
      });
      const TxnState* head = table.First(stage);
      ASSERT_EQ(head != nullptr, first != model.end()) << "step " << step;
      if (head != nullptr) {
        ASSERT_EQ((OrderKey{head->txn.ts, head->txn.id}), first->first);
      }
    }
  }
}

TEST(NattoOptionsTest, PresetsAreCumulative) {
  EXPECT_FALSE(NattoOptions::TsOnly().lecsf);
  EXPECT_TRUE(NattoOptions::Lecsf().lecsf);
  EXPECT_FALSE(NattoOptions::Lecsf().priority_abort);
  EXPECT_TRUE(NattoOptions::Pa().priority_abort);
  EXPECT_FALSE(NattoOptions::Pa().conditional_prepare);
  EXPECT_TRUE(NattoOptions::Cp().conditional_prepare);
  EXPECT_FALSE(NattoOptions::Cp().recsf);
  EXPECT_TRUE(NattoOptions::Recsf().recsf);
}

TEST(NattoTest, EngineNamesFollowAblation) {
  auto cluster = MakeCluster();
  EXPECT_EQ(NattoEngine(cluster.get(), NattoOptions::TsOnly()).name(),
            "Natto-TS");
  EXPECT_EQ(NattoEngine(cluster.get(), NattoOptions::Recsf()).name(),
            "Natto-RECSF");
}

TEST(NattoTest, RefreshEstimatesGuardsAgainstDuplicateLoops) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  NattoGateway* gw = engine.gateway_at(0);
  // The engine constructor already started the refresh loop. Regression:
  // a second (and third) call used to spawn extra self-rescheduling loops,
  // doubling the fetch rate forever; now they are no-ops.
  gw->RefreshEstimates();
  gw->RefreshEstimates();
  cluster->simulator()->RunUntil(Seconds(1));
  // One loop at the default 100 ms period: the initial fetch plus ~10
  // rescheduled ones. Duplicate loops would have produced ~2-3x this.
  EXPECT_GE(gw->refresh_fetches(), 10u);
  EXPECT_LE(gw->refresh_fetches(), 12u);
}

// An abort is attributed to its first definite abort point. Two refusals
// with different causes that overtake Begin must leave the first cause on
// the decision, not the last.
TEST(NattoTest, RefusalsOvertakingBeginKeepTheFirstCause) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  const TxnId id = MakeTxnId(1, 1);
  std::optional<txn::TxnResult> result;
  cluster->simulator()->ScheduleAt(Seconds(2), [&]() {
    txn::TxnRequest req;
    req.id = id;
    req.read_set = {1, 4};
    req.write_set = {1, 4};
    req.origin_site = 0;
    req.compute_writes = testutil::IncrementWrites();
    engine.Execute(req, [&](const txn::TxnResult& r) { result = r; });
    // Begin is still on the wire to the local coordinator.
    NattoVote first;
    first.id = id;
    first.partition = 1;
    first.cause = obs::AbortCause::kOccConflict;
    NattoVote second = first;
    second.partition = 4;
    second.cause = obs::AbortCause::kOrderViolation;
    engine.coordinator_at(0)->HandleVote(first);
    engine.coordinator_at(0)->HandleVote(second);
  });
  cluster->simulator()->RunUntil(Seconds(4));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, txn::TxnOutcome::kAborted);
  EXPECT_EQ(result->abort_cause, obs::AbortCause::kOccConflict)
      << obs::AbortCauseName(result->abort_cause);
}

TEST(NattoTest, SingleTxnCommitsAtTimestamp) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  // Warm the proxies up first (Sec 4).
  auto probe = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                           txn::Priority::kHigh, {1, 4}, {1, 4}, 0);
  cluster->simulator()->RunUntil(Seconds(6));
  ASSERT_TRUE(probe->committed());
  // The execution timestamp is one estimated one-way to SG (107 ms); total
  // completion stays within ~2 overlapped WAN round trips.
  EXPECT_GE(probe->latency_ms(), 214.0);
  EXPECT_LE(probe->latency_ms(), 600.0);
  EXPECT_EQ(engine.DebugValue(1), 1);
  EXPECT_EQ(engine.DebugValue(4), 1);
}

TEST(NattoTest, NearbyServerDefersProcessingUntilTimestamp) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  // Keys only on partition 1 (WA) issued from WA: even though the server is
  // local, the txn must still complete with sane latency (ts == local now +
  // local estimate, tiny).
  auto local = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                           txn::Priority::kLow, {1}, {1}, 1);
  cluster->simulator()->RunUntil(Seconds(6));
  ASSERT_TRUE(local->committed());
  // Dominated by prepare replication (WA->PR, 136 ms RTT), not the WAN.
  EXPECT_LE(local->latency_ms(), 400.0);
}

TEST(NattoTest, SequentialConflictingTxnsObserveEachOther) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  auto p1 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                        txn::Priority::kLow, {2}, {2}, 0);
  auto p2 = ScheduleTxn(cluster.get(), &engine, Seconds(4), MakeTxnId(1, 2),
                        txn::Priority::kHigh, {2}, {2}, 0);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(p1->committed());
  ASSERT_TRUE(p2->committed());
  EXPECT_EQ(p2->result->reads[0].value, 1);
  EXPECT_EQ(engine.DebugValue(2), 2);
}

// --- Priority abort (Fig 3) -------------------------------------------------

TEST(NattoTest, PriorityAbortClearsQueuedLowTxn) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Pa());
  // Low from VA on {1,4}: ts = +107 ms (one-way to SG); it reaches WA at
  // +33.5 ms and buffers. High from WA on {1,4} issued 40 ms later conflicts
  // with the queued low at WA -> priority abort.
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(40),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 4},
                          {1, 4}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(high->committed());
  EXPECT_TRUE(low->aborted());
  EXPECT_GE(NattoCounter(cluster.get(), "priority_aborts"), 1);
  EXPECT_EQ(engine.DebugValue(1), 1);  // only the high one applied
}

TEST(NattoTest, WithoutPaHighWaitsAndBothCommit) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Lecsf());  // PA off
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(40),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 4},
                          {1, 4}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(low->committed());
  EXPECT_TRUE(high->committed());
  EXPECT_EQ(NattoCounter(cluster.get(), "priority_aborts"), 0);
  // The high transaction waited for the low one's full commit.
  EXPECT_EQ(high->result->reads[0].value, 1);
  EXPECT_EQ(engine.DebugValue(1), 2);
}

TEST(NattoTest, PaSuppressedWhenLowFinishesInTime) {
  auto cluster = MakeCluster();
  NattoOptions opts = NattoOptions::Pa();
  opts.pa_completion_estimate = true;
  NattoEngine engine(cluster.get(), opts);
  // Low is local-ish and early: it completes long before the distant high
  // transaction's execution timestamp, so the abort is suppressed.
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1}, {1}, 1);
  // High from PR reads {1,3}: ts = +117 ms (PR->NSW); it reaches WA at
  // +68 ms, while the low local txn (ts ~ +1 ms) is long prepared; no
  // conflict in the queue remains, so no priority abort should fire.
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(1),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 3},
                          {1, 3}, 2);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(low->committed());
  EXPECT_TRUE(high->committed());
  EXPECT_EQ(NattoCounter(cluster.get(), "priority_aborts"), 0);
}

// --- Conditional prepare (Fig 4) --------------------------------------------

TEST(NattoTest, ConditionalPrepareAfterRemotePriorityAbort) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Cp());
  // Low from VA on {1,2}: ts = +40 ms (one-way VA->PR); prepares at PR at
  // +40 ms, still queued at WA until +40 ms.
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 2}, {1, 2}, 0);
  // High from WA on {1,2} 5 ms later: arrives at WA at +5.5 ms (< low's ts
  // -> priority abort there), and at PR at +73 ms where low is already
  // prepared -> conditional prepare.
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(5),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 2},
                          {1, 2}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(low->aborted());
  EXPECT_TRUE(high->committed());
  EXPECT_GE(NattoCounter(cluster.get(), "priority_aborts"), 1);
  EXPECT_GE(NattoCounter(cluster.get(), "conditional_prepares"), 1);
  EXPECT_GE(NattoCounter(cluster.get(), "cp_satisfied"), 1);
  EXPECT_EQ(NattoCounter(cluster.get(), "cp_failed"), 0);
  // The high transaction read pre-low state everywhere.
  for (const auto& r : high->result->reads) EXPECT_EQ(r.value, 0);
  EXPECT_EQ(engine.DebugValue(1), 1);
  EXPECT_EQ(engine.DebugValue(2), 1);
}

TEST(NattoTest, WithoutCpHighWaitsForAbortAcknowledgement) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Pa());  // CP off
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 2}, {1, 2}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(5),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 2},
                          {1, 2}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(high->committed());
  EXPECT_EQ(NattoCounter(cluster.get(), "conditional_prepares"), 0);
}

TEST(NattoTest, CpIsFasterThanWaiting) {
  double with_cp = 0, without_cp = 0;
  for (bool cp : {true, false}) {
    auto cluster = MakeCluster();
    NattoEngine engine(cluster.get(),
                       cp ? NattoOptions::Cp() : NattoOptions::Pa());
    ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                txn::Priority::kLow, {1, 2}, {1, 2}, 0);
    auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(5),
                            MakeTxnId(2, 1), txn::Priority::kHigh, {1, 2},
                            {1, 2}, 1);
    cluster->simulator()->RunUntil(Seconds(8));
    ASSERT_TRUE(high->committed());
    (cp ? with_cp : without_cp) = high->latency_ms();
  }
  EXPECT_LT(with_cp, without_cp);
}

// A conditional prepare whose condition fails: the blocker commits, so the
// server moves the high transaction from prepared back to waiting, and it
// prepares again once the blocker's writes are applied.
//
// Sites 0-4 lead partitions 0-4 (RTTs in ms below). Low from site 0 on
// {1,2} gets ts = +50 ms (one-way 0->2); high from site 1 on {1,2,4}, sent
// at +10 ms, gets ts = +130 ms (one-way 1->4). At site 1 the high one
// arrives while low is queued, but low's commit is expected there by
// +109 ms (votes by +54, plus one-way 0->1), so the priority abort is
// suppressed. At site 2, where low is prepared, the high one predicts that
// site 1 priority-aborts low: its estimate adds the one-way 0->2 instead
// (+154 ms, after high's timestamp). So it prepares conditionally, low
// commits, and the condition fails.
TEST(NattoTest, FailedConditionalPrepareWaitsAndReadsTheBlocker) {
  net::LatencyMatrix matrix({"s0", "s1", "s2", "s3", "s4"});
  matrix.SetRtt(0, 1, Millis(10));
  matrix.SetRtt(0, 2, Millis(100));
  matrix.SetRtt(0, 3, Millis(100));
  matrix.SetRtt(0, 4, Millis(200));
  matrix.SetRtt(1, 2, Millis(100));
  matrix.SetRtt(1, 3, Millis(4));
  matrix.SetRtt(1, 4, Millis(240));
  matrix.SetRtt(2, 3, Millis(4));
  matrix.SetRtt(2, 4, Millis(200));
  matrix.SetRtt(3, 4, Millis(200));
  auto cluster = MakeCluster(1, {}, std::move(matrix));
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 2}, {1, 2}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(10),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 2, 4},
                          {1, 2, 4}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  EXPECT_EQ(NattoCounter(cluster.get(), "pa_suppressed"), 1);
  EXPECT_EQ(NattoCounter(cluster.get(), "priority_aborts"), 0);
  EXPECT_EQ(NattoCounter(cluster.get(), "conditional_prepares"), 1);
  EXPECT_EQ(NattoCounter(cluster.get(), "cp_satisfied"), 0);
  EXPECT_EQ(NattoCounter(cluster.get(), "cp_failed"), 1);
  ASSERT_TRUE(low->committed());
  ASSERT_TRUE(high->committed());
  for (const auto& r : high->result->reads) {
    if (r.key != 4) {
      EXPECT_EQ(r.value, 1) << "key " << r.key;
    }
  }
  EXPECT_EQ(engine.DebugValue(1), 2);
  EXPECT_EQ(engine.DebugValue(2), 2);
  EXPECT_EQ(engine.DebugValue(4), 1);
}

// --- ECSF (Figs 5, 6) --------------------------------------------------------

TEST(NattoTest, LecsfServesCommittedUnreplicatedState) {
  // T2 processed while T1 is committed-but-unreplicated at the leader:
  // LECSF commits T2; without it T2's first attempt aborts on OCC.
  for (bool lecsf : {true, false}) {
    auto cluster = MakeCluster();
    NattoEngine engine(cluster.get(), lecsf ? NattoOptions::Lecsf()
                                            : NattoOptions::TsOnly());
    auto t1 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                          txn::Priority::kLow, {2}, {2}, 0);
    auto t2 = ScheduleTxn(cluster.get(), &engine,
                          Seconds(2) + Millis(260), MakeTxnId(1, 2),
                          txn::Priority::kLow, {2}, {2}, 0);
    cluster->simulator()->RunUntil(Seconds(8));
    ASSERT_TRUE(t1->committed());
    ASSERT_TRUE(t2->result.has_value());
    if (lecsf) {
      EXPECT_TRUE(t2->committed()) << "LECSF should serve T1's writes early";
      EXPECT_EQ(t2->result->reads[0].value, 1);
      EXPECT_EQ(engine.DebugValue(2), 2);
    } else {
      EXPECT_TRUE(t2->aborted())
          << "without LECSF the conflict window extends one replication RTT";
    }
  }
}

TEST(NattoTest, RecsfForwardsReadsOfBlockedHighTxn) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  // Blocker commits writing key 2; high from NSW arrives at PR while the
  // blocker is prepared -> waits -> RECSF forwards its read.
  auto blocker = ScheduleTxn(cluster.get(), &engine, Seconds(2),
                             MakeTxnId(1, 1), txn::Priority::kLow, {2}, {2},
                             0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(1),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {2}, {2}, 3);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(blocker->committed());
  ASSERT_TRUE(high->committed());
  EXPECT_GE(NattoCounter(cluster.get(), "recsf_forwards"), 1);
  EXPECT_EQ(high->result->reads[0].value, 1);  // read the blocker's write
  EXPECT_EQ(engine.DebugValue(2), 2);
}

// --- Ordering ----------------------------------------------------------------

TEST(NattoTest, LateArrivalAbortsOnOrderViolation) {
  // Under heavy delay variance some transactions arrive after their
  // timestamp and behind conflicting later-timestamped prepares; those must
  // abort rather than break the global order.
  txn::ClusterOptions copts;
  copts.delay_variance_ratio = 0.40;
  auto cluster = MakeCluster(3, copts);
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  // Hammer one hot key from two sites.
  for (int i = 0; i < 120; ++i) {
    ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(10 * i),
                MakeTxnId(1, 100 + i), txn::Priority::kLow, {2}, {2}, i % 5);
  }
  cluster->simulator()->RunUntil(Seconds(12));
  EXPECT_GT(NattoCounter(cluster.get(), "order_violation_aborts") +
                NattoCounter(cluster.get(), "occ_aborts"),
            0);
}

TEST(NattoTest, UserAbortReleasesEverything) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  auto p1 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                        txn::Priority::kHigh, {5}, {5}, 0,
                        [](const std::vector<txn::ReadResult>&) {
                          txn::WriteDecision d;
                          d.user_abort = true;
                          return d;
                        });
  auto p2 = ScheduleTxn(cluster.get(), &engine, Seconds(4), MakeTxnId(1, 2),
                        txn::Priority::kLow, {5}, {5}, 0);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(p1->result.has_value());
  EXPECT_EQ(p1->result->outcome, txn::TxnOutcome::kUserAborted);
  EXPECT_TRUE(p2->committed());
  EXPECT_EQ(engine.DebugValue(5), 1);
}

TEST(NattoTest, ReadOnlyTxnCommits) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  auto probe = ScheduleTxn(
      cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
      txn::Priority::kHigh, {0, 1, 2, 3, 4}, {}, 0,
      [](const std::vector<txn::ReadResult>&) { return txn::WriteDecision{}; });
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(probe->committed());
  EXPECT_EQ(probe->result->reads.size(), 5u);
}

}  // namespace
}  // namespace natto::core
