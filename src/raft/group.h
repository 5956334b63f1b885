#ifndef NATTO_RAFT_GROUP_H_
#define NATTO_RAFT_GROUP_H_

#include <functional>
#include <memory>
#include <vector>

#include "raft/raft.h"

namespace natto::raft {

/// Convenience owner of one partition's replica group: builds the replicas
/// at the given sites, wires them, and seats replicas[0] as the initial
/// leader. Tracks leadership across elections (each replica announces via
/// its became-leader callback) and routes proposals to the live leader, so
/// engines keep working after a failover instead of proposing to a corpse.
class RaftGroup {
 public:
  RaftGroup(net::Transport* transport, const std::vector<int>& sites,
            RaftReplica::Options options, Rng& seed_rng,
            SimDuration max_clock_skew = 0);

  /// The replica this group currently believes leads it. Never null (the
  /// tracked leader may be crashed or deposed mid-election; use
  /// current_leader() for a liveness-checked handle). When a majority of
  /// live replicas agree on a leader, agreement with the tracked one is
  /// NATTO_CHECKed.
  RaftReplica* leader();

  /// The tracked leader if it is live, nullptr while it is crashed (no
  /// usable leader until the next election completes).
  RaftReplica* current_leader();

  /// Replica index a majority of live replicas at the group's highest term
  /// believe is leader, or -1 while no such majority exists (election in
  /// progress, or quorum down).
  int AgreedLeaderIndex() const;

  RaftReplica* replica(size_t i) { return replicas_[i].get(); }
  size_t size() const { return replicas_.size(); }

  /// Fires on every leadership change after construction (i.e. on
  /// re-elections, not the initial seating), with the new leader.
  void SetOnLeaderChange(std::function<void(RaftReplica*)> cb) {
    on_leader_change_ = std::move(cb);
  }

  /// Enables election timers on every replica (fault-tolerance runs).
  void StartTimers();

  /// Arms the Propose helpers with a completion timeout (installed together
  /// with a fault schedule). Without it the helpers add no timer events, so
  /// fault-free runs stay byte-identical to the pre-fault-layer behavior.
  void EnableFailureHandling(SimDuration propose_timeout);

  /// Replicates `payload` through the current leader. Exactly one callback
  /// fires: `on_committed` once a majority has the entry, or
  /// `on_failed(timed_out)` — synchronously with timed_out=false when no
  /// live leader accepts the proposal, or later with timed_out=true when
  /// failure handling is armed and the accepting leader dies (or is
  /// deposed) before the entry commits.
  void Propose(PayloadId payload, std::function<void()> on_committed,
               std::function<void(bool timed_out)> on_failed);

  /// Replicates a decision that must eventually become durable (commit
  /// records whose outcome was already reported): retries through leader
  /// changes until some leader commits it, then fires `on_committed` exactly
  /// once. Bounded by `kMaxCommitRetries` as an unrecoverable-outage
  /// backstop.
  void ProposeWithRetry(PayloadId payload, std::function<void()> on_committed);

 private:
  void ProposeAttempt(PayloadId payload,
                      std::shared_ptr<std::function<void()>> cb,
                      int attempts_left);

  static constexpr int kMaxCommitRetries = 200;

  net::Transport* transport_;
  std::vector<std::unique_ptr<RaftReplica>> replicas_;
  int current_idx_ = 0;
  uint64_t current_term_ = 1;
  SimDuration propose_timeout_ = 0;
  std::function<void(RaftReplica*)> on_leader_change_;
};

}  // namespace natto::raft

#endif  // NATTO_RAFT_GROUP_H_
