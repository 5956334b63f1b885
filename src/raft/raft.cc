#include "raft/raft.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace natto::raft {

namespace {

/// Election timeouts are drawn uniformly from [min, max].
constexpr SimDuration kElectionTimeoutMin = Millis(300);
constexpr SimDuration kElectionTimeoutMax = Millis(600);
/// Wire bytes charged per replicated log entry.
constexpr size_t kEntryBytes = 128;
/// Fixed wire bytes per AppendEntries/vote message.
constexpr size_t kHeaderBytes = 64;
/// Suspicion threshold: φ = 8 is ~1e-8 odds the heartbeat is merely late,
/// the classic accrual-detector operating point.
constexpr double kPhiSuspect = 8.0;

}  // namespace

RaftReplica::RaftReplica(net::Transport* transport, int site,
                         sim::NodeClock clock, Options options, Rng rng)
    : net::Node(transport, site, clock),
      options_(options),
      rng_(std::move(rng)) {}

void RaftReplica::SetPeers(std::vector<RaftReplica*> peers) {
  NATTO_CHECK(!peers.empty());
  peers_ = std::move(peers);
  peer_state_.assign(peers_.size(), PeerState{});
  last_ack_.assign(peers_.size(), 0);
  bool found = false;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i] == this) {
      self_index_ = i;
      found = true;
    }
  }
  NATTO_CHECK(found) << "peers must include self";
}

void RaftReplica::BecomeInitialLeader() {
  NATTO_CHECK(!peers_.empty()) << "SetPeers first";
  term_ = 1;
  BecomeLeader();
}

void RaftReplica::StartTimers() {
  if (timers_started_) return;
  timers_started_ = true;
  last_heartbeat_seen_ = TrueNow();
  ResetElectionTimer();
  if (role_ == Role::kLeader) HeartbeatTick();
}

void RaftReplica::SetCrashed(bool crashed) {
  if (crashed_ == crashed) return;
  crashed_ = crashed;
  if (crashed_) {
    // Leader-side callbacks for uncommitted entries die with the process.
    DropUncommittedCallbacks();
    return;
  }
  // Restart as a follower: term, log and vote survive (persisted state);
  // volatile leadership state does not. Keeping voted_for_ prevents a
  // second vote in the same term after a crash-recover cycle.
  role_ = Role::kFollower;
  votes_received_ = 0;
  leader_hint_ = -1;
  if (timers_started_) {
    last_heartbeat_seen_ = TrueNow();
    ResetElectionTimer();
  }
}

bool RaftReplica::Propose(PayloadId payload,
                          std::function<void()> on_committed) {
  if (crashed_ || role_ != Role::kLeader) return false;
  log_.push_back(LogEntry{term_, payload});
  uint64_t index = log_.size();
  if (on_committed) pending_callbacks_.emplace_back(index, std::move(on_committed));
  if (options_.fail_away_commit_latency > 0) {
    propose_times_.emplace_back(index, TrueNow());
  }
  // Single-replica group commits immediately.
  if (peers_.size() == 1) {
    AdvanceCommit();
    return true;
  }
  // Group commit: the first pending proposal opens a flush window of
  // group_commit_delay; everything proposed before it fires ships in one
  // AppendEntries per follower. The default window of 0 coalesces only
  // proposals made at the same simulated instant (zero added latency: the
  // flush runs at the same simulated time, after the current event cascade).
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    transport()->simulator()->ScheduleAfter(
        options_.group_commit_delay, [this]() {
          flush_scheduled_ = false;
          if (!crashed_ && role_ == Role::kLeader) BroadcastAppend();
        });
  }
  return true;
}

void RaftReplica::RegisterMetrics(obs::MetricsRegistry* registry) {
  NATTO_CHECK(registry != nullptr);
  entries_per_append_metric_ =
      registry->GetHistogram("raft.entries_per_append");
  leader_transfers_metric_ = registry->GetCounter("raft.leader_transfers");
}

void RaftReplica::EnableSuspicion(net::FailureDetector* fd, int stream) {
  NATTO_CHECK(fd != nullptr);
  NATTO_CHECK(fd_ == nullptr) << "EnableSuspicion is one-shot";
  fd_ = fd;
  fd_stream_ = stream;
  After(kHeartbeatInterval, [this]() { SuspicionTick(); });
}

void RaftReplica::SuspicionTick() {
  // The tick outlives role changes (a deposed leader becomes a suspecting
  // follower again), so reschedule unconditionally first.
  After(kHeartbeatInterval, [this]() { SuspicionTick(); });
  if (crashed_ || !timers_started_ || role_ != Role::kFollower) return;
  if (leader_hint_ == -1) return;  // no leader to suspect; timers handle it
  if (TrueNow() < suspicion_cooldown_until_) return;
  // A few real inter-arrival samples first: the prior alone would make the
  // very first post-election heartbeat gap a false positive.
  if (fd_->samples(fd_stream_) < 4) return;
  double phi = fd_->Phi(fd_stream_, TrueNow());
  if (phi < kPhiSuspect) return;
  // The leader's heartbeats have gone improbably quiet (stall, crash, or a
  // severed inbound path). Election timers would catch this too — in
  // 300-600 ms; φ crosses the threshold in a few heartbeat intervals.
  suspicion_cooldown_until_ = TrueNow() + 2 * kElectionTimeoutMax;
  StartElection();
}

void RaftReplica::BecomeFollower(uint64_t term) {
  term_ = term;
  role_ = Role::kFollower;
  voted_for_ = -1;
  votes_received_ = 0;
  leader_hint_ = -1;
  propose_times_.clear();
  commit_latency_ewma_ = -1.0;
  // Leader-side callbacks for uncommitted entries will never fire on this
  // replica; drop them (engines treat missing callbacks as lost leadership,
  // which only matters in fault tests).
  DropUncommittedCallbacks();
}

void RaftReplica::ResetElectionTimer() {
  if (!timers_started_) return;
  uint64_t epoch = ++election_epoch_;
  SimDuration timeout = rng_.UniformInt(kElectionTimeoutMin,
                                        kElectionTimeoutMax);
  After(timeout, [this, epoch]() {
    if (epoch != election_epoch_) return;  // superseded
    if (crashed_) return;
    if (role_ == Role::kLeader) return;
    StartElection();
  });
}

void RaftReplica::StartElection() {
  if (options_.pre_vote) {
    StartPreVote();
  } else {
    StartRealElection();
  }
}

void RaftReplica::StartPreVote() {
  // Poll the group with the term we would campaign under, without touching
  // term_, voted_for_, or role: a pre-vote that fizzles (live leader, stale
  // log, unreachable majority) leaves no trace on the group's state.
  ++prevote_round_;
  prevotes_received_ = 1;  // self
  uint64_t solicit_term = term_ + 1;
  uint64_t last_index = log_.size();
  uint64_t last_term = log_.empty() ? 0 : log_.back().term;
  uint64_t round = prevote_round_;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (i == self_index_) continue;
    RaftReplica* peer = peers_[i];
    SendTo(peer->id(), kHeaderBytes,
           [peer, solicit_term, last_index, last_term, self = self_index_,
            round]() {
             peer->HandlePreVote(solicit_term, last_index, last_term, self,
                                 round);
           });
  }
  ResetElectionTimer();  // retry the pre-vote if this round goes nowhere
  if (prevotes_received_ >= Majority()) StartRealElection();
}

void RaftReplica::HandlePreVote(uint64_t term, uint64_t last_log_index,
                                uint64_t last_log_term, size_t from_index,
                                uint64_t round) {
  if (crashed_) return;
  bool granted = false;
  if (term > term_) {
    uint64_t my_last_term = log_.empty() ? 0 : log_.back().term;
    bool up_to_date = last_log_term > my_last_term ||
                      (last_log_term == my_last_term &&
                       last_log_index >= log_.size());
    // Leader stickiness: while in contact with a live leader (or being
    // one), refuse — this is what stops an isolated replica's rejoin from
    // deposing a healthy leader via term inflation.
    bool leader_live =
        role_ == Role::kLeader ||
        (leader_hint_ != -1 &&
         TrueNow() - last_heartbeat_seen_ < kElectionTimeoutMin);
    granted = up_to_date && !leader_live;
  }
  // No local state changes: a pre-vote is a question, not a vote.
  RaftReplica* candidate = peers_[from_index];
  SendTo(candidate->id(), kHeaderBytes,
         [candidate, term, granted, round]() {
           candidate->HandlePreVoteResponse(term, granted, round);
         });
}

void RaftReplica::HandlePreVoteResponse(uint64_t term, bool granted,
                                        uint64_t round) {
  if (crashed_ || !granted) return;
  if (role_ == Role::kLeader) return;
  // Stale if a newer round started or our term moved past the solicited
  // one (a real election happened meanwhile).
  if (round != prevote_round_ || term != term_ + 1) return;
  ++prevotes_received_;
  if (prevotes_received_ >= Majority()) {
    prevotes_received_ = 0;
    StartRealElection();
  }
}

void RaftReplica::HandleTimeoutNow(uint64_t term) {
  if (crashed_ || term < term_ || role_ == Role::kLeader) return;
  // The leader asked to be deposed: campaign immediately, skipping
  // pre-vote and leader stickiness (both exist to protect a leader that
  // wants to stay).
  StartRealElection();
}

bool RaftReplica::TransferLeadership() {
  if (crashed_ || role_ != Role::kLeader || peers_.size() == 1) return false;
  // Best-caught-up follower with a fresh ack; it must hold every committed
  // entry so the handoff cannot lose acknowledged writes.
  SimDuration stale_after = 2 * kElectionTimeoutMax;
  size_t best = self_index_;
  uint64_t best_match = 0;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (i == self_index_) continue;
    if (TrueNow() - last_ack_[i] > stale_after) continue;
    uint64_t match = peer_state_[i].match_index;
    if (match < commit_index_) continue;
    if (best == self_index_ || match > best_match) {
      best = i;
      best_match = match;
    }
  }
  if (best == self_index_) return false;
  if (leader_transfers_metric_) leader_transfers_metric_->Inc();
  RaftReplica* target = peers_[best];
  uint64_t term = term_;
  SendTo(target->id(), kHeaderBytes,
         [target, term]() { target->HandleTimeoutNow(term); });
  return true;
}

void RaftReplica::StartRealElection() {
  role_ = Role::kCandidate;
  ++term_;
  voted_for_ = static_cast<int>(self_index_);
  votes_received_ = 1;
  leader_hint_ = -1;
  uint64_t last_index = log_.size();
  uint64_t last_term = log_.empty() ? 0 : log_.back().term;
  uint64_t term = term_;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (i == self_index_) continue;
    RaftReplica* peer = peers_[i];
    SendTo(peer->id(), kHeaderBytes,
           [peer, term, last_index, last_term, self = self_index_]() {
             peer->HandleRequestVote(term, last_index, last_term, self);
           });
  }
  ResetElectionTimer();
  if (votes_received_ >= Majority()) BecomeLeader();
}

void RaftReplica::HandleRequestVote(uint64_t term, uint64_t last_log_index,
                                    uint64_t last_log_term,
                                    size_t from_index) {
  if (crashed_) return;
  if (term > term_) BecomeFollower(term);
  bool granted = false;
  if (term == term_ &&
      (voted_for_ == -1 || voted_for_ == static_cast<int>(from_index))) {
    uint64_t my_last_term = log_.empty() ? 0 : log_.back().term;
    bool up_to_date = last_log_term > my_last_term ||
                      (last_log_term == my_last_term &&
                       last_log_index >= log_.size());
    if (up_to_date) {
      granted = true;
      voted_for_ = static_cast<int>(from_index);
      ResetElectionTimer();
    }
  }
  RaftReplica* candidate = peers_[from_index];
  uint64_t reply_term = term_;
  SendTo(candidate->id(), kHeaderBytes,
         [candidate, reply_term, granted, self = self_index_]() {
           candidate->HandleVoteResponse(reply_term, granted, self);
         });
}

void RaftReplica::HandleVoteResponse(uint64_t term, bool granted,
                                     size_t from_index) {
  (void)from_index;
  if (crashed_) return;
  if (term > term_) {
    BecomeFollower(term);
    return;
  }
  if (role_ != Role::kCandidate || term != term_) return;
  if (granted) {
    ++votes_received_;
    if (votes_received_ >= Majority()) BecomeLeader();
  }
}

void RaftReplica::BecomeLeader() {
  role_ = Role::kLeader;
  leader_hint_ = static_cast<int>(self_index_);
  for (size_t i = 0; i < peer_state_.size(); ++i) {
    peer_state_[i].sent_index = log_.size();
    peer_state_[i].match_index = 0;
    peer_state_[i].last_sent_commit = 0;
    peer_state_[i].last_send = 0;
    last_ack_[i] = TrueNow();
  }
  if (on_became_leader_) on_became_leader_(this);
  // A fresh leader must establish each follower's log prefix: rewind the
  // pipeline so the first append carries a consistency check the follower
  // can answer from its own log tail.
  BroadcastAppend();
  if (timers_started_) HeartbeatTick();
}

void RaftReplica::HeartbeatTick() {
  if (crashed_ || role_ != Role::kLeader || !timers_started_) return;
  // Quorum-loss step-down: a leader cut off from a majority (minority side
  // of a partition) must stop acting as leader so clients fail over to the
  // majority's new leader instead of proposing into a dead end.
  if (peers_.size() > 1) {
    SimDuration stale_after = 2 * kElectionTimeoutMax;
    int fresh = 1;  // self
    for (size_t i = 0; i < peers_.size(); ++i) {
      if (i == self_index_) continue;
      if (TrueNow() - last_ack_[i] <= stale_after) ++fresh;
    }
    if (fresh < Majority()) {
      StepDown();
      return;
    }
  }
  // Gray-failure fail-away: this leader is reachable and heartbeating, but
  // its commits have gone slow (fail-slow host, half-open inbound path).
  // Hand leadership to a healthy follower instead of waiting for clients
  // to time out against us.
  if (options_.fail_away_commit_latency > 0 && commit_latency_ewma_ >= 0 &&
      commit_latency_ewma_ >=
          static_cast<double>(options_.fail_away_commit_latency) &&
      TrueNow() >= fail_away_cooldown_until_) {
    if (TransferLeadership()) {
      commit_latency_ewma_ = -1.0;
      propose_times_.clear();
      fail_away_cooldown_until_ = TrueNow() + 2 * kElectionTimeoutMax;
    }
  }
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (i == self_index_) continue;
    PeerState& ps = peer_state_[i];
    // If a follower has been silent for a while (crashed peer, lost
    // leadership handshake), rewind the pipeline and retransmit.
    if (ps.match_index < ps.sent_index &&
        TrueNow() - ps.last_send > 4 * kHeartbeatInterval) {
      ps.sent_index = ps.match_index;
    }
    MaybeSendTo(i, /*force=*/true);
  }
  After(kHeartbeatInterval, [this]() { HeartbeatTick(); });
}

void RaftReplica::BroadcastAppend() {
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (i == self_index_) continue;
    MaybeSendTo(i);
  }
  AdvanceCommit();
}

void RaftReplica::MaybeSendTo(size_t peer_index, bool force) {
  if (role_ != Role::kLeader) return;
  PeerState& ps = peer_state_[peer_index];
  std::vector<LogEntry> entries;
  if (ps.sent_index < log_.size()) {
    entries.assign(log_.begin() + static_cast<long>(ps.sent_index), log_.end());
  } else if (!force && ps.last_sent_commit >= commit_index_) {
    // Nothing new to send: no entries, and the peer already knows the
    // current commit index. Heartbeats pass force=true.
    return;
  }
  uint64_t prev_index = ps.sent_index;
  uint64_t prev_term =
      prev_index == 0 ? 0 : log_[static_cast<size_t>(prev_index) - 1].term;
  if (!entries.empty() && entries_per_append_metric_ != nullptr) {
    // Histogram::Record is not thread-safe and its running sum is
    // order-sensitive; leaders on different site lanes share the registry.
    obs::Histogram* metric = entries_per_append_metric_;
    auto value = static_cast<double>(entries.size());
    transport()->simulator()->DeferOrdered(
        [metric, value] { metric->Record(value); });
  }
  ps.sent_index += entries.size();
  ps.last_send = TrueNow();
  ps.last_sent_commit = commit_index_;
  size_t bytes = kHeaderBytes + entries.size() * kEntryBytes;
  RaftReplica* peer = peers_[peer_index];
  uint64_t term = term_;
  uint64_t leader_commit = commit_index_;
  SendTo(peer->id(), bytes,
         [peer, term, prev_index, prev_term, entries = std::move(entries),
          leader_commit, self = self_index_]() mutable {
           peer->HandleAppendEntries(term, prev_index, prev_term,
                                     std::move(entries), leader_commit, self);
         });
}

void RaftReplica::StepDown() {
  role_ = Role::kFollower;
  votes_received_ = 0;
  leader_hint_ = -1;
  propose_times_.clear();
  commit_latency_ewma_ = -1.0;
  // voted_for_ is kept: stepping down does not entitle this node to a
  // second vote in the same term.
  DropUncommittedCallbacks();
  last_heartbeat_seen_ = TrueNow();
  ResetElectionTimer();
}

void RaftReplica::HandleAppendEntries(uint64_t term, uint64_t prev_index,
                                      uint64_t prev_term,
                                      std::vector<LogEntry> entries,
                                      uint64_t leader_commit,
                                      size_t from_index) {
  if (crashed_) return;
  if (term > term_) BecomeFollower(term);
  RaftReplica* leader = peers_[from_index];
  bool success = false;
  if (term == term_) {
    if (role_ == Role::kCandidate) role_ = Role::kFollower;
    leader_hint_ = static_cast<int>(from_index);
    last_heartbeat_seen_ = TrueNow();
    // Every accepted append is a leader heartbeat for the φ detector: under
    // load the stream gets denser, so suspicion adapts to the real cadence.
    if (fd_ != nullptr) fd_->Heartbeat(fd_stream_, TrueNow());
    ResetElectionTimer();
    // Consistency check on the entry preceding the batch.
    bool prev_ok =
        prev_index == 0 ||
        (prev_index <= log_.size() &&
         log_[static_cast<size_t>(prev_index) - 1].term == prev_term);
    if (prev_ok) {
      success = true;
      // Append, truncating any conflicting suffix.
      uint64_t index = prev_index;
      for (const LogEntry& e : entries) {
        ++index;
        if (index <= log_.size()) {
          if (log_[static_cast<size_t>(index) - 1].term != e.term) {
            log_.resize(static_cast<size_t>(index) - 1);
            log_.push_back(e);
          }
        } else {
          log_.push_back(e);
        }
      }
      uint64_t new_commit = std::min<uint64_t>(leader_commit, index);
      if (new_commit > commit_index_) {
        commit_index_ = new_commit;
        ApplyCommitted();
      }
    }
  }
  uint64_t match = success ? prev_index + entries.size() : 0;
  uint64_t reply_term = term_;
  bool ok = success;
  SendTo(leader->id(), kHeaderBytes,
         [leader, reply_term, ok, match, self = self_index_]() {
           leader->HandleAppendResponse(reply_term, ok, match, self);
         });
}

void RaftReplica::HandleAppendResponse(uint64_t term, bool success,
                                       uint64_t match_index,
                                       size_t from_index) {
  if (crashed_) return;
  if (term > term_) {
    BecomeFollower(term);
    return;
  }
  if (role_ != Role::kLeader || term != term_) return;
  last_ack_[from_index] = TrueNow();
  PeerState& ps = peer_state_[from_index];
  if (success) {
    ps.match_index = std::max(ps.match_index, match_index);
    ps.sent_index = std::max(ps.sent_index, ps.match_index);
    AdvanceCommit();
  } else {
    // Consistency check failed: rewind the pipeline to the acknowledged
    // prefix (backing up one extra step until the logs meet).
    uint64_t rewind = std::min(ps.sent_index, ps.match_index);
    if (rewind == ps.sent_index && rewind > 0) --rewind;
    ps.sent_index = rewind;
    MaybeSendTo(from_index, /*force=*/true);
  }
}

void RaftReplica::AdvanceCommit() {
  if (role_ != Role::kLeader) return;
  // The leader's own match index is its log size. ApplyCommitted's
  // callbacks can re-enter this function and refill `matches`, so it is
  // read only before that call.
  std::vector<uint64_t>& matches = commit_matches_;
  matches.clear();
  for (size_t i = 0; i < peers_.size(); ++i) {
    matches.push_back(i == self_index_ ? log_.size()
                                       : peer_state_[i].match_index);
  }
  std::sort(matches.begin(), matches.end(), std::greater<>());
  uint64_t majority_match = matches[static_cast<size_t>(Majority()) - 1];
  // Only entries of the current term commit by counting (Raft Sec 5.4.2).
  while (majority_match > commit_index_ &&
         log_[static_cast<size_t>(majority_match) - 1].term != term_) {
    --majority_match;
  }
  if (majority_match > commit_index_) {
    commit_index_ = majority_match;
    ApplyCommitted();
    // Ship the new commit index to idle peers promptly.
    for (size_t i = 0; i < peers_.size(); ++i) {
      if (i != self_index_) MaybeSendTo(i);
    }
  }
}

void RaftReplica::ApplyCommitted() {
  // Fail-away bookkeeping: resolve propose timestamps for entries that just
  // committed and fold them into the commit-latency EWMA.
  if (!propose_times_.empty()) {
    size_t keep = 0;
    for (size_t i = 0; i < propose_times_.size(); ++i) {
      if (propose_times_[i].first <= commit_index_) {
        double sample =
            static_cast<double>(TrueNow() - propose_times_[i].second);
        commit_latency_ewma_ = commit_latency_ewma_ < 0
                                   ? sample
                                   : 0.8 * commit_latency_ewma_ + 0.2 * sample;
      } else {
        propose_times_[keep++] = propose_times_[i];
      }
    }
    propose_times_.resize(keep);
  }
  while (applied_index_ < commit_index_) {
    ++applied_index_;
    if (on_apply_) on_apply_(log_[static_cast<size_t>(applied_index_) - 1].payload);
  }
  // Fire leader-side completion callbacks for newly committed entries. The
  // list is in index order. A callback may propose, which appends to (and
  // may reallocate) the list, or re-enter this function, so the loop keeps
  // only the member head offset across the call and re-reads the list.
  while (callbacks_head_ < pending_callbacks_.size() &&
         pending_callbacks_[callbacks_head_].first <= commit_index_) {
    std::function<void()> cb =
        std::move(pending_callbacks_[callbacks_head_++].second);
    cb();
  }
  pending_callbacks_.erase(
      pending_callbacks_.begin(),
      pending_callbacks_.begin() + static_cast<ptrdiff_t>(callbacks_head_));
  callbacks_head_ = 0;
}

void RaftReplica::DropUncommittedCallbacks() {
  while (!pending_callbacks_.empty() &&
         pending_callbacks_.back().first > commit_index_) {
    pending_callbacks_.pop_back();
  }
}

}  // namespace natto::raft
