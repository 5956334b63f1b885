// Substrate example: the Raft replication layer under a leader failure.
// The paper's prototypes do not implement fault recovery; this repository's
// replication substrate does implement leader election, and this example
// demonstrates it end-to-end: replicate entries, crash the leader, watch a
// follower take over and keep committing.
#include <cstdio>

#include "net/latency_matrix.h"
#include "net/transport.h"
#include "raft/group.h"
#include "sim/simulator.h"

using namespace natto;

int main() {
  sim::Simulator simulator;
  net::LatencyMatrix matrix = net::LatencyMatrix::AzureFive();
  net::Transport transport(&simulator, &matrix, net::MakeConstantDelay(),
                           net::TransportOptions{}, 1);

  Rng rng(7);
  raft::RaftGroup group(&transport, {0, 1, 2}, raft::RaftReplica::Options{},
                        rng);
  group.StartTimers();

  int committed = 0;
  for (int i = 1; i <= 5; ++i) {
    simulator.ScheduleAt(Millis(100) * i, [&group, &committed, i]() {
      const bool accepted = group.leader()->Propose(
          static_cast<raft::PayloadId>(i), [&committed]() { ++committed; });
      std::printf("t=%.0fms propose #%d: %s\n", 0.1 * 1000 * i, i,
                  accepted ? "OK" : "Unavailable: not the leader");
    });
  }
  simulator.RunUntil(Seconds(1));
  std::printf("committed %d entries under the initial leader (%s)\n",
              committed, matrix.site_name(0).c_str());

  // Crash the leader; a follower must win an election.
  transport.SetNodeCrashed(group.leader()->id(), true);
  std::printf("\n-- leader at %s crashed --\n", matrix.site_name(0).c_str());
  simulator.RunUntil(Seconds(6));

  raft::RaftReplica* new_leader = nullptr;
  for (size_t r = 1; r < group.size(); ++r) {
    if (group.replica(r)->IsLeader()) new_leader = group.replica(r);
  }
  if (new_leader == nullptr) {
    std::printf("no new leader elected!\n");
    return 1;
  }
  std::printf("new leader elected at site %s, term %llu\n",
              matrix.site_name(new_leader->site()).c_str(),
              static_cast<unsigned long long>(new_leader->term()));

  int committed_after = 0;
  for (int i = 6; i <= 10; ++i) {
    simulator.ScheduleAfter(Millis(50) * (i - 5), [new_leader,
                                                   &committed_after, i]() {
      (void)new_leader->Propose(static_cast<raft::PayloadId>(i),
                                [&committed_after]() { ++committed_after; });
    });
  }
  simulator.RunUntil(Seconds(10));
  std::printf("committed %d more entries under the new leader\n",
              committed_after);
  std::printf("log sizes: ");
  for (size_t r = 0; r < group.size(); ++r) {
    std::printf("%llu ",
                static_cast<unsigned long long>(group.replica(r)->log_size()));
  }
  std::printf("\n");
  return committed_after == 5 ? 0 : 1;
}
