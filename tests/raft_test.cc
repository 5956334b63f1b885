#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "raft/group.h"
#include "raft/raft.h"

namespace natto::raft {
namespace {

struct RaftFixture : public ::testing::Test {
  sim::Simulator simulator;
  net::LatencyMatrix matrix = net::LatencyMatrix::AzureFive();
  net::Transport transport{&simulator, &matrix, net::MakeConstantDelay(),
                           net::TransportOptions{}, 5};
  Rng rng{17};

  std::unique_ptr<RaftGroup> MakeGroup(std::vector<int> sites) {
    return std::make_unique<RaftGroup>(&transport, sites,
                                       RaftReplica::Options{}, rng);
  }
};

TEST_F(RaftFixture, InitialLeaderIsSeated) {
  auto g = MakeGroup({0, 1, 2});
  EXPECT_TRUE(g->leader()->IsLeader());
  EXPECT_FALSE(g->replica(1)->IsLeader());
  EXPECT_EQ(g->leader()->term(), 1u);
}

TEST_F(RaftFixture, CommitsAfterMajorityRoundTrip) {
  auto g = MakeGroup({0, 1, 2});  // leader VA; followers WA, PR
  SimTime committed_at = -1;
  ASSERT_TRUE(
      g->leader()->Propose(42, [&]() { committed_at = simulator.Now(); }));
  simulator.Run();
  // Majority = leader + nearest follower (WA, RTT 67 ms).
  EXPECT_EQ(committed_at, Millis(67));
  EXPECT_EQ(g->leader()->commit_index(), 1u);
}

TEST_F(RaftFixture, GroupCommitCoalescesWindowedProposals) {
  // A 5 ms group-commit window: proposals arriving inside it ship as one
  // AppendEntries per follower, observable through raft.entries_per_append.
  RaftReplica::Options opts;
  opts.group_commit_delay = Millis(5);
  auto g = std::make_unique<RaftGroup>(&transport, std::vector<int>{0, 1, 2},
                                       opts, rng);
  obs::MetricsRegistry registry;
  for (size_t r = 0; r < g->size(); ++r) {
    g->replica(r)->RegisterMetrics(&registry);
  }
  int commits = 0;
  SimTime last_commit_at = -1;
  // Three proposals spread over 2 ms — all inside the first window.
  for (int i = 0; i < 3; ++i) {
    simulator.ScheduleAfter(Millis(i), [&]() {
      ASSERT_TRUE(g->leader()->Propose(1, [&]() {
        ++commits;
        last_commit_at = simulator.Now();
      }));
    });
  }
  simulator.Run();
  EXPECT_EQ(commits, 3);
  obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::HistogramData& h = snap.histograms.at("raft.entries_per_append");
  // One flush, two followers: two appends, each carrying all 3 entries.
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 6.0);
  // The window trades latency for amortization: all three entries committed
  // together one window plus one majority round-trip (WA, 67 ms RTT) after
  // the first proposal.
  EXPECT_EQ(last_commit_at, Millis(5) + Millis(67));
}

TEST_F(RaftFixture, ZeroWindowCoalescesOnlySameInstantProposals) {
  // Default group_commit_delay = 0 keeps the historical behavior: the flush
  // runs at the same simulated instant, so proposals at different times get
  // separate AppendEntries.
  auto g = MakeGroup({0, 1, 2});
  obs::MetricsRegistry registry;
  for (size_t r = 0; r < g->size(); ++r) {
    g->replica(r)->RegisterMetrics(&registry);
  }
  int commits = 0;
  for (int i = 0; i < 2; ++i) {
    simulator.ScheduleAfter(Millis(i), [&]() {
      ASSERT_TRUE(g->leader()->Propose(1, [&]() { ++commits; }));
    });
  }
  simulator.Run();
  EXPECT_EQ(commits, 2);
  obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::HistogramData& h = snap.histograms.at("raft.entries_per_append");
  // Two flushes x two followers, one entry each (the second flush may ride
  // a pipeline resend, but every non-empty append records its size).
  EXPECT_EQ(h.sum, static_cast<double>(h.count));
  EXPECT_GE(h.count, 4u);
}

TEST_F(RaftFixture, FollowerProposeIsRejected) {
  auto g = MakeGroup({0, 1, 2});
  bool called = false;
  EXPECT_FALSE(g->replica(1)->Propose(1, [&]() { called = true; }));
  simulator.Run();
  EXPECT_FALSE(called);
  EXPECT_EQ(g->replica(1)->log_size(), 0u);
}

TEST_F(RaftFixture, SingleReplicaGroupCommitsImmediately) {
  auto g = MakeGroup({0});
  bool committed = false;
  ASSERT_TRUE(g->leader()->Propose(1, [&]() { committed = true; }));
  EXPECT_TRUE(committed);
}

TEST_F(RaftFixture, ManyEntriesCommitInOrderOnAllReplicas) {
  auto g = MakeGroup({0, 1, 2});
  std::vector<std::vector<PayloadId>> applied(3);
  for (int r = 0; r < 3; ++r) {
    g->replica(r)->SetOnApply(
        [&applied, r](PayloadId p) { applied[r].push_back(p); });
  }
  const int kEntries = 50;
  int commits = 0;
  for (int i = 1; i <= kEntries; ++i) {
    simulator.ScheduleAfter(Millis(i), [&, i]() {
      ASSERT_TRUE(g->leader()->Propose(static_cast<PayloadId>(i),
                                       [&commits]() { ++commits; }));
    });
  }
  simulator.Run();
  EXPECT_EQ(commits, kEntries);
  // Every replica applied the same sequence 1..N.
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(applied[r].size(), static_cast<size_t>(kEntries)) << "r=" << r;
    for (int i = 0; i < kEntries; ++i) {
      EXPECT_EQ(applied[r][i], static_cast<PayloadId>(i + 1));
    }
  }
}

TEST_F(RaftFixture, BatchesUnderLoad) {
  auto g = MakeGroup({0, 1, 2});
  int commits = 0;
  // 100 proposals in the same instant: replication must coalesce.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(g->leader()->Propose(i, [&commits]() { ++commits; }));
  }
  uint64_t before = transport.messages_sent();
  simulator.Run();
  EXPECT_EQ(commits, 100);
  // Far fewer than 100 AppendEntries round trips per follower.
  EXPECT_LT(transport.messages_sent() - before, 60u);
}

TEST_F(RaftFixture, ElectsNewLeaderAfterCrash) {
  auto g = MakeGroup({0, 1, 2});
  g->StartTimers();
  bool committed = false;
  ASSERT_TRUE(g->leader()->Propose(7, [&]() { committed = true; }));
  simulator.RunUntil(Seconds(1));
  EXPECT_TRUE(committed);

  transport.SetNodeCrashed(g->leader()->id(), true);
  simulator.RunUntil(Seconds(5));

  int leaders = 0;
  for (size_t r = 1; r < g->size(); ++r) {
    if (g->replica(r)->IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  // The new leader's term moved past the crashed leader's.
  for (size_t r = 1; r < g->size(); ++r) {
    if (g->replica(r)->IsLeader()) {
      EXPECT_GT(g->replica(r)->term(), 1u);
      // And it still has the committed entry.
      EXPECT_GE(g->replica(r)->log_size(), 1u);
    }
  }
}

TEST_F(RaftFixture, NewLeaderAcceptsProposals) {
  auto g = MakeGroup({0, 1, 2});
  g->StartTimers();
  simulator.RunUntil(Seconds(1));
  transport.SetNodeCrashed(g->leader()->id(), true);
  simulator.RunUntil(Seconds(5));

  RaftReplica* new_leader = nullptr;
  for (size_t r = 1; r < g->size(); ++r) {
    if (g->replica(r)->IsLeader()) new_leader = g->replica(r);
  }
  ASSERT_NE(new_leader, nullptr);
  bool committed = false;
  ASSERT_TRUE(new_leader->Propose(99, [&]() { committed = true; }));
  simulator.RunUntil(Seconds(10));
  EXPECT_TRUE(committed);
}

// A leader partitioned away from both followers (minority side) must step
// down once its heartbeats go unacknowledged, while the majority side
// elects a replacement; after the heal the old leader rejoins as a
// follower and group proposals commit through the new leader.
TEST_F(RaftFixture, MinorityPartitionedLeaderStepsDownAndCommitsResume) {
  auto g = MakeGroup({0, 1, 2});
  g->StartTimers();
  bool committed = false;
  ASSERT_TRUE(g->leader()->Propose(1, [&]() { committed = true; }));
  simulator.RunUntil(Seconds(1));
  ASSERT_TRUE(committed);
  ASSERT_TRUE(g->replica(0)->IsLeader());

  // Cut site 0 (the leader) off from sites 1 and 2.
  transport.SetSitePartitioned(0, 1, true);
  transport.SetSitePartitioned(0, 2, true);
  simulator.RunUntil(Seconds(6));

  // The stranded leader noticed the quorum loss and stepped down...
  EXPECT_FALSE(g->replica(0)->IsLeader());
  // ...and the majority side elected exactly one new leader at a higher
  // term, which the group now tracks and a majority agrees on.
  int leaders = 0;
  RaftReplica* new_leader = nullptr;
  for (size_t r = 1; r < g->size(); ++r) {
    if (g->replica(r)->IsLeader()) {
      ++leaders;
      new_leader = g->replica(r);
    }
  }
  ASSERT_EQ(leaders, 1);
  EXPECT_GT(new_leader->term(), 1u);
  EXPECT_EQ(g->leader(), new_leader);
  int agreed = g->AgreedLeaderIndex();
  ASSERT_GE(agreed, 1);
  EXPECT_EQ(g->replica(static_cast<size_t>(agreed)), new_leader);

  // Heal. The stranded ex-leader rejoins with a term inflated by its
  // futile elections, forcing one more election round (it may even win it
  // — its log is complete); commits resume through whoever wins, and the
  // group converges on a single leader at a single term.
  transport.SetSitePartitioned(0, 1, false);
  transport.SetSitePartitioned(0, 2, false);
  bool recommitted = false;
  bool failed = false;
  simulator.ScheduleAfter(Seconds(2), [&]() {
    g->Propose(2, [&]() { recommitted = true; }, [&](bool) { failed = true; });
  });
  simulator.RunUntil(Seconds(12));
  EXPECT_TRUE(recommitted);
  EXPECT_FALSE(failed);
  leaders = 0;
  for (size_t r = 0; r < g->size(); ++r) {
    if (g->replica(r)->IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  agreed = g->AgreedLeaderIndex();
  ASSERT_GE(agreed, 0);
  EXPECT_TRUE(g->replica(static_cast<size_t>(agreed))->IsLeader());
  for (size_t r = 1; r < g->size(); ++r) {
    EXPECT_EQ(g->replica(r)->term(), g->replica(0)->term()) << "r=" << r;
  }
}

// Group-level propose failure handling: with a timeout armed, a proposal
// accepted by a leader that crashes before the entry commits reports
// on_failed(timed_out=true); with the leader crashed and no replacement
// yet, on_failed(false) fires synchronously.
TEST_F(RaftFixture, ProposeTimeoutFiresWhenAcceptingLeaderDies) {
  auto g = MakeGroup({0, 1, 2});
  g->StartTimers();
  g->EnableFailureHandling(/*propose_timeout=*/Millis(500));
  simulator.RunUntil(Millis(10));

  bool committed = false;
  bool timed_out = false;
  g->Propose(7, [&]() { committed = true; },
             [&](bool t) { timed_out = t; });
  // Kill the leader before any AppendEntries response can arrive (site 0
  // to the nearest follower is a >1 ms one-way in AzureFive).
  transport.SetNodeCrashed(g->replica(0)->id(), true);
  g->replica(0)->SetCrashed(true);

  // With the tracked leader crashed and no replacement elected yet,
  // Propose fails synchronously with timed_out=false.
  EXPECT_EQ(g->current_leader(), nullptr);
  bool sync_failed = false;
  bool sync_timed_out = true;
  g->Propose(8, []() {}, [&](bool t) {
    sync_failed = true;
    sync_timed_out = t;
  });
  EXPECT_TRUE(sync_failed);
  EXPECT_FALSE(sync_timed_out);

  // The accepted-but-uncommitted proposal reports a timeout.
  simulator.RunUntil(Millis(600));
  EXPECT_FALSE(committed);
  EXPECT_TRUE(timed_out);
}

// Pre-vote regression (Raft thesis §4.2.3): an isolated replica keeps
// pre-voting at term+1 without ever incrementing its real term, so its
// rejoin cannot depose the healthy leader — no election fires at all, and
// the group stays at term 1 throughout.
TEST_F(RaftFixture, PreVoteIsolatedReplicaRejoinsWithoutDeposingLeader) {
  RaftReplica::Options opts;
  opts.pre_vote = true;
  auto g = std::make_unique<RaftGroup>(&transport, std::vector<int>{0, 1, 2},
                                       opts, rng);
  g->StartTimers();
  int elections = 0;
  g->SetOnLeaderChange([&](RaftReplica*) { ++elections; });
  simulator.RunUntil(Seconds(1));
  ASSERT_TRUE(g->replica(0)->IsLeader());

  // Cut the site-2 follower off in both directions for many election
  // timeouts' worth of simulated time.
  transport.SetSitePartitioned(2, 0, true);
  transport.SetSitePartitioned(2, 1, true);
  simulator.RunUntil(Seconds(8));
  // Its pre-votes all fizzled; without pre-vote this term would be inflated
  // by a dozen futile elections.
  EXPECT_EQ(g->replica(2)->term(), 1u);
  EXPECT_FALSE(g->replica(2)->IsLeader());

  transport.SetSitePartitioned(2, 0, false);
  transport.SetSitePartitioned(2, 1, false);
  simulator.RunUntil(Seconds(10));
  // Rejoin is a non-event: same leader, same term, zero elections.
  EXPECT_TRUE(g->replica(0)->IsLeader());
  EXPECT_EQ(g->replica(0)->term(), 1u);
  EXPECT_EQ(elections, 0);

  // The group still commits (the rejoined replica catches up).
  bool committed = false;
  ASSERT_TRUE(g->leader()->Propose(5, [&]() { committed = true; }));
  simulator.RunUntil(Seconds(11));
  EXPECT_TRUE(committed);
}

// A peer that has heard from a live leader within the minimum election
// timeout refuses pre-votes (leader stickiness), so a single disruptive replica
// cannot even collect a pre-vote majority while the leader is healthy.
TEST_F(RaftFixture, PreVoteDeniedWhileLeaderIsLive) {
  RaftReplica::Options opts;
  opts.pre_vote = true;
  auto g = std::make_unique<RaftGroup>(&transport, std::vector<int>{0, 1, 2},
                                       opts, rng);
  g->StartTimers();
  simulator.RunUntil(Seconds(1));
  ASSERT_TRUE(g->replica(0)->IsLeader());
  uint64_t term_before = g->replica(0)->term();

  // Sever only leader <-> follower-1: follower 1's election timer fires
  // and it pre-votes at term+1, but follower 2 still hears the live leader
  // inside the minimum election timeout and denies (leader stickiness), so no
  // majority forms and nobody's term moves.
  transport.SetSitePartitioned(0, 1, true);
  simulator.RunUntil(Seconds(4));
  EXPECT_TRUE(g->replica(0)->IsLeader());
  EXPECT_EQ(g->replica(0)->term(), term_before);
  EXPECT_EQ(g->replica(1)->term(), term_before);
  EXPECT_FALSE(g->replica(1)->IsLeader());

  transport.SetSitePartitioned(0, 1, false);
  simulator.RunUntil(Seconds(5));
  EXPECT_TRUE(g->replica(0)->IsLeader());
  EXPECT_EQ(g->replica(0)->term(), term_before);
}

// Deliberate leadership transfer: the leader picks a caught-up follower,
// sends TimeoutNow, and the follower wins an immediate election without
// losing any committed entry.
TEST_F(RaftFixture, TransferLeadershipHandsOffWithoutLosingCommits) {
  auto g = MakeGroup({0, 1, 2});
  obs::MetricsRegistry registry;
  for (size_t r = 0; r < g->size(); ++r) {
    g->replica(r)->RegisterMetrics(&registry);
  }
  g->StartTimers();
  bool committed = false;
  ASSERT_TRUE(g->leader()->Propose(1, [&]() { committed = true; }));
  simulator.RunUntil(Seconds(1));
  ASSERT_TRUE(committed);
  ASSERT_TRUE(g->replica(0)->IsLeader());

  EXPECT_TRUE(g->replica(0)->TransferLeadership());
  simulator.RunUntil(Seconds(3));

  int leaders = 0;
  RaftReplica* new_leader = nullptr;
  for (size_t r = 0; r < g->size(); ++r) {
    if (g->replica(r)->IsLeader()) {
      ++leaders;
      new_leader = g->replica(r);
    }
  }
  ASSERT_EQ(leaders, 1);
  ASSERT_NE(new_leader, g->replica(0));
  EXPECT_GT(new_leader->term(), 1u);
  // The transfer target held every committed entry.
  EXPECT_GE(new_leader->log_size(), 1u);
  EXPECT_EQ(registry.Snapshot().counter("raft.leader_transfers"), 1u);

  // The group tracked the handoff and commits flow through the new leader.
  EXPECT_EQ(g->leader(), new_leader);
  bool recommitted = false;
  ASSERT_TRUE(new_leader->Propose(2, [&]() { recommitted = true; }));
  simulator.RunUntil(Seconds(5));
  EXPECT_TRUE(recommitted);
}

// Gray fail-slow leader: the node heartbeats on time (so no election
// timeout ever fires) but services every inbound message at 400x cost, so
// its propose->commit latency EWMA crosses the fail-away threshold and it
// hands leadership to a healthy follower on its own.
TEST_F(RaftFixture, FailAwayTransfersOffFailSlowLeader) {
  RaftReplica::Options opts;
  // Pre-vote rides along as in the real defense stack: the deposed slow
  // node's backlog delays the new leader's heartbeats past its election
  // timeout, and without pre-vote it would bump its term and take the
  // lease right back.
  opts.pre_vote = true;
  // Well above a healthy leader's commit latency on AzureFive (sites 0/1/2
  // are 67-136 ms RTT apart, so a healthy commit EWMA settles near 70-140
  // ms depending on which site leads) but far below the saturated gray
  // leader's seconds-long commits. A threshold inside the healthy band
  // would make the replacement leader fail away too and churn terms.
  opts.fail_away_commit_latency = Millis(400);
  auto g = std::make_unique<RaftGroup>(&transport, std::vector<int>{0, 1, 2},
                                       opts, rng);
  obs::MetricsRegistry registry;
  for (size_t r = 0; r < g->size(); ++r) {
    g->replica(r)->RegisterMetrics(&registry);
  }
  g->StartTimers();
  simulator.RunUntil(Seconds(1));
  ASSERT_TRUE(g->replica(0)->IsLeader());

  // 400 x 100 us default service cost = 40 ms per message serviced by the
  // leader; append responses queue behind each other and commit latency
  // climbs far past the 400 ms threshold.
  transport.SetNodeSlow(g->replica(0)->id(), 400.0, Seconds(30));
  int commits = 0;
  for (int i = 0; i < 60; ++i) {
    simulator.ScheduleAt(Seconds(1) + Millis(50) * i, [&]() {
      g->Propose(9, [&]() { ++commits; }, [](bool) {});
    });
  }
  simulator.RunUntil(Seconds(8));

  EXPECT_FALSE(g->replica(0)->IsLeader());
  EXPECT_GE(registry.Snapshot().counter("raft.leader_transfers"), 1u);
  int leaders = 0;
  for (size_t r = 1; r < g->size(); ++r) {
    if (g->replica(r)->IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_GT(commits, 0);
}

// φ-accrual suspicion: followers feed the detector from accepted
// AppendEntries; when the leader gray-stalls (pings fine, service frozen)
// their suspicion crosses the threshold and they elect a replacement.
TEST_F(RaftFixture, SuspicionElectsAwayFromGrayStalledLeader) {
  RaftReplica::Options opts;
  opts.pre_vote = true;
  auto g = std::make_unique<RaftGroup>(&transport, std::vector<int>{0, 1, 2},
                                       opts, rng);
  net::FailureDetector fd;
  for (size_t r = 0; r < g->size(); ++r) {
    int stream = fd.AddStream("r" + std::to_string(r));
    g->replica(r)->EnableSuspicion(&fd, stream);
  }
  g->StartTimers();
  int elections = 0;
  g->SetOnLeaderChange([&](RaftReplica*) { ++elections; });
  simulator.RunUntil(Seconds(2));
  ASSERT_TRUE(g->replica(0)->IsLeader());
  ASSERT_EQ(elections, 0);

  transport.SetNodeStalled(g->replica(0)->id(), Seconds(2) + Seconds(2));
  simulator.RunUntil(Seconds(6));

  int leaders = 0;
  for (size_t r = 0; r < g->size(); ++r) {
    if (g->replica(r)->IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_FALSE(g->replica(0)->IsLeader());
  EXPECT_GE(elections, 1);
}

// A commit callback that proposes twice grows (and here reallocates) the
// leader's callback list while the commit loop is still firing callbacks.
// Each callback must fire exactly once, in log order, without the loop
// reading the list's old storage.
TEST_F(RaftFixture, CommitCallbackThatProposesTwiceFiresEachOnce) {
  auto g = MakeGroup({0, 1, 2});
  RaftReplica* leader = g->leader();
  std::vector<int> fired;
  ASSERT_TRUE(leader->Propose(1, [&]() {
    fired.push_back(1);
    ASSERT_TRUE(leader->Propose(2, [&]() { fired.push_back(2); }));
    ASSERT_TRUE(leader->Propose(3, [&]() { fired.push_back(3); }));
  }));
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(leader->commit_index(), 3u);
}

// On a single-replica group every propose commits at once, so a callback
// that proposes re-enters the commit loop; callbacks still fire in log
// order.
TEST_F(RaftFixture, ReentrantCommitCallbacksFireInLogOrder) {
  auto g = MakeGroup({0});
  RaftReplica* leader = g->leader();
  std::vector<int> fired;
  ASSERT_TRUE(leader->Propose(1, [&]() {
    fired.push_back(1);
    ASSERT_TRUE(leader->Propose(2, [&]() { fired.push_back(2); }));
    ASSERT_TRUE(leader->Propose(3, [&]() { fired.push_back(3); }));
  }));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST_F(RaftFixture, QuiescentWithoutTimersAfterCommit) {
  auto g = MakeGroup({0, 1, 2});
  ASSERT_TRUE(g->leader()->Propose(1, []() {}));
  simulator.Run();  // must terminate (no heartbeat timers started)
  EXPECT_EQ(g->leader()->commit_index(), 1u);
}

}  // namespace
}  // namespace natto::raft
