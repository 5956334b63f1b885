#ifndef NATTO_RAFT_RAFT_H_
#define NATTO_RAFT_RAFT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/failure_detector.h"
#include "net/node.h"
#include "obs/metrics.h"

namespace natto::raft {

/// Label of a replicated record. Engines keep the record's data (prepare
/// results, write data) in their own state and label the entry with the
/// transaction id; Raft never reads the label, and only tests observe it
/// (SetOnApply).
using PayloadId = TxnId;

struct LogEntry {
  uint64_t term = 0;
  PayloadId payload = 0;
};

/// A single Raft replica. All replicas of one partition form a group wired
/// together with `SetPeers`. This is a from-scratch, simulation-hosted Raft
/// covering leader election, log replication and commitment (no
/// persistence/snapshots/membership change — the paper's prototypes likewise
/// implement no fault recovery, but elections are implemented and tested so
/// the replication substrate is honest about quorums).
class RaftReplica : public net::Node {
 public:
  /// Leader heartbeat period; also the follower suspicion-check period.
  static constexpr SimDuration kHeartbeatInterval = Millis(50);

  struct Options {
    /// Leader-side group-commit window: a proposal opens a flush window of
    /// this length, and every further proposal accepted before it fires is
    /// coalesced into the same AppendEntries per follower. 0 (default)
    /// keeps the historical behavior — only proposals made at the same
    /// simulated instant share an AppendEntries — and is byte-identical to
    /// builds without the knob.
    SimDuration group_commit_delay = 0;
    /// Pre-vote (Raft thesis §4.2.3): before incrementing its term a
    /// would-be candidate polls the group with the term it intends to use;
    /// peers grant only if the candidate's log is current AND they have not
    /// heard from a live leader within the minimum election timeout. An
    /// isolated replica therefore stops inflating its term, and its rejoin
    /// no longer deposes a healthy leader. Off by default: enabling it
    /// changes election message flow, so fault goldens opt in explicitly.
    bool pre_vote = false;
    /// Leader-side gray-failure fail-away: when > 0, the leader tracks an
    /// EWMA of its propose->commit latency and, once the EWMA crosses this
    /// threshold, hands leadership to its best-caught-up fresh follower via
    /// TimeoutNow (leadership transfer, Raft thesis §3.10). Catches
    /// fail-slow leaders that still heartbeat on time. 0 (default) = off.
    SimDuration fail_away_commit_latency = 0;
  };

  RaftReplica(net::Transport* transport, int site, sim::NodeClock clock,
              Options options, Rng rng);

  /// Wires the group; `peers` must include this replica, identical order on
  /// every member. Call once before use.
  void SetPeers(std::vector<RaftReplica*> peers);

  /// Deterministically seats this replica as leader of term 1 (the harness
  /// uses this; elections still take over on failures).
  void BecomeInitialLeader();

  /// Enables election timeouts and heartbeats. Optional for latency-only
  /// experiments with a designated initial leader.
  void StartTimers();

  bool IsLeader() const { return role_ == Role::kLeader; }
  uint64_t term() const { return term_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t log_size() const { return log_.size(); }

  /// Takes this replica out of (or back into) service. The transport already
  /// drops traffic to/from a crashed node; this additionally freezes the
  /// replica's own timers and refuses proposals so a crashed leader cannot
  /// keep committing locally. Recovery restarts it as a follower with its
  /// term, log and vote intact (they model persisted state).
  void SetCrashed(bool crashed);
  bool crashed() const { return crashed_; }

  /// Index (into the peers vector) of the replica this one believes leads
  /// its current term: itself when leader, the sender of accepted
  /// AppendEntries when follower, -1 when unknown (candidate, fresh term).
  int leader_hint() const { return leader_hint_; }

  /// Fires whenever this replica wins an election (including the initial
  /// seating). RaftGroup uses it to track the live leader.
  void SetOnBecameLeader(std::function<void(RaftReplica*)> cb) {
    on_became_leader_ = std::move(cb);
  }

  /// Leader-only: appends `payload` to the log and replicates it;
  /// `on_committed` fires on this node once a majority has the entry.
  /// Returns false, dropping the callback, if this replica is not a live
  /// leader.
  bool Propose(PayloadId payload, std::function<void()> on_committed);

  /// Fires for every payload as it commits on this replica (leader and
  /// followers), in log order. Used by tests to check replica agreement.
  void SetOnApply(std::function<void(PayloadId)> on_apply) {
    on_apply_ = std::move(on_apply);
  }

  /// Mirrors replication stats into `registry`: `raft.entries_per_append`
  /// records the entry count of every non-empty AppendEntries this replica
  /// ships as leader, and `raft.leader_transfers` counts deliberate
  /// fail-away handoffs (distinct from timeout-driven elections).
  void RegisterMetrics(obs::MetricsRegistry* registry);

  /// Wires φ-accrual suspicion of this replica's current leader: accepted
  /// AppendEntries feed `stream` of `fd`, and a periodic follower-side
  /// check (every kHeartbeatInterval) starts an election — pre-vote
  /// protected when enabled — once suspicion reaches φ = 8. This
  /// reacts to a gray-stalled leader in a few heartbeat intervals instead
  /// of a full election timeout. One-shot; only gray-defense runs call it
  /// (the periodic check adds kernel events, so default runs must not).
  void EnableSuspicion(net::FailureDetector* fd, int stream);

  /// Leader-only: picks the best-caught-up follower with a fresh ack and
  /// sends it TimeoutNow, making it start an immediate election (bypassing
  /// pre-vote and leader stickiness — the leader itself asked to be
  /// deposed). Returns false when no suitable target exists. The old
  /// leader keeps serving until the new term's AppendEntries arrives.
  bool TransferLeadership();

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  struct PeerState {
    /// Replication is pipelined: `sent_index` is the highest log position
    /// already shipped (not necessarily acknowledged); `match_index` is the
    /// highest acknowledged position. On a consistency-check failure the
    /// leader rewinds `sent_index` to `match_index` and resends.
    uint64_t sent_index = 0;
    uint64_t match_index = 0;
    uint64_t last_sent_commit = 0;  // commit index last shipped to this peer
    SimTime last_send = 0;
  };

  int Majority() const { return static_cast<int>(peers_.size()) / 2 + 1; }

  void BecomeFollower(uint64_t term);
  /// Relinquishes leadership within the current term (quorum loss), keeping
  /// voted_for_ so the node cannot vote twice in the term.
  void StepDown();
  /// Election entry point: runs a pre-vote round first when enabled,
  /// otherwise (or once the pre-vote wins) a real term-incrementing one.
  void StartElection();
  void StartPreVote();
  void StartRealElection();
  void SuspicionTick();
  void BecomeLeader();
  void BroadcastAppend();
  void MaybeSendTo(size_t peer_index, bool force = false);
  void AdvanceCommit();
  void ApplyCommitted();
  /// Drops the callbacks of entries past the commit index: they can no
  /// longer fire on this replica.
  void DropUncommittedCallbacks();
  void ResetElectionTimer();
  void HeartbeatTick();

  // RPC handlers (invoked via transport closures from peers).
  void HandleAppendEntries(uint64_t term, uint64_t prev_index,
                           uint64_t prev_term, std::vector<LogEntry> entries,
                           uint64_t leader_commit, size_t from_index);
  void HandleAppendResponse(uint64_t term, bool success, uint64_t match_index,
                            size_t from_index);
  void HandleRequestVote(uint64_t term, uint64_t last_log_index,
                         uint64_t last_log_term, size_t from_index);
  void HandleVoteResponse(uint64_t term, bool granted, size_t from_index);
  void HandlePreVote(uint64_t term, uint64_t last_log_index,
                     uint64_t last_log_term, size_t from_index,
                     uint64_t round);
  void HandlePreVoteResponse(uint64_t term, bool granted, uint64_t round);
  void HandleTimeoutNow(uint64_t term);

  Options options_;
  Rng rng_;

  std::vector<RaftReplica*> peers_;
  size_t self_index_ = 0;

  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  int voted_for_ = -1;  // peer index, -1 = none
  int votes_received_ = 0;

  std::vector<LogEntry> log_;  // log_[i] is entry at index i+1
  uint64_t commit_index_ = 0;
  uint64_t applied_index_ = 0;

  std::vector<PeerState> peer_state_;
  // Callbacks for locally proposed entries, keyed by log index, in index
  // order. The first callbacks_head_ have fired; ApplyCommitted erases them
  // when it finishes.
  std::vector<std::pair<uint64_t, std::function<void()>>> pending_callbacks_;
  size_t callbacks_head_ = 0;
  std::function<void(PayloadId)> on_apply_;
  std::function<void(RaftReplica*)> on_became_leader_;

  obs::Histogram* entries_per_append_metric_ = nullptr;
  obs::Counter* leader_transfers_metric_ = nullptr;

  bool timers_started_ = false;
  bool flush_scheduled_ = false;
  bool crashed_ = false;
  int leader_hint_ = -1;
  uint64_t election_epoch_ = 0;  // invalidates stale timers
  SimTime last_heartbeat_seen_ = 0;
  // Leader-side ack freshness per peer, for the quorum-loss step-down check.
  std::vector<SimTime> last_ack_;

  // Pre-vote round state: responses carry the round id back so retries
  // within one (un-incremented) term never double-count.
  int prevotes_received_ = 0;
  uint64_t prevote_round_ = 0;

  // Fail-away state (only maintained when fail_away_commit_latency > 0):
  // outstanding propose timestamps by log index, the commit-latency EWMA in
  // micros (< 0 until the first sample), and a cooldown so one slow window
  // triggers one transfer, not a storm.
  std::vector<std::pair<uint64_t, SimTime>> propose_times_;
  double commit_latency_ewma_ = -1.0;
  SimTime fail_away_cooldown_until_ = 0;

  // φ-accrual suspicion of the current leader; null unless gray defense is
  // enabled for this run.
  net::FailureDetector* fd_ = nullptr;
  int fd_stream_ = -1;
  SimTime suspicion_cooldown_until_ = 0;
};

}  // namespace natto::raft

#endif  // NATTO_RAFT_RAFT_H_
