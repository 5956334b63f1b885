#include "raft/group.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "net/transport.h"

namespace natto::raft {

RaftGroup::RaftGroup(net::Transport* transport, const std::vector<int>& sites,
                     RaftReplica::Options options, Rng& seed_rng,
                     SimDuration max_clock_skew)
    : transport_(transport) {
  NATTO_CHECK(!sites.empty());
  for (int site : sites) {
    auto clock = sim::NodeClock::WithRandomSkew(seed_rng, max_clock_skew);
    replicas_.push_back(std::make_unique<RaftReplica>(
        transport, site, clock, options, seed_rng.Fork()));
  }
  std::vector<RaftReplica*> peers;
  peers.reserve(replicas_.size());
  for (auto& r : replicas_) peers.push_back(r.get());
  for (auto& r : replicas_) r->SetPeers(peers);
  replicas_.front()->BecomeInitialLeader();
  // Track every later election. The initial seating above ran before this
  // hook, so current_idx_/current_term_ start at their constructor values
  // (0 / 1) by design.
  for (size_t i = 0; i < replicas_.size(); ++i) {
    replicas_[i]->SetOnBecameLeader([this, i](RaftReplica* r) {
      if (r->term() < current_term_) return;  // stale announcement
      current_term_ = r->term();
      if (static_cast<int>(i) != current_idx_) {
        current_idx_ = static_cast<int>(i);
        if (on_leader_change_) on_leader_change_(r);
      }
    });
  }
}

void RaftGroup::StartTimers() {
  for (auto& r : replicas_) r->StartTimers();
}

void RaftGroup::EnableFailureHandling(SimDuration propose_timeout) {
  NATTO_CHECK(propose_timeout > 0);
  propose_timeout_ = propose_timeout;
}

int RaftGroup::AgreedLeaderIndex() const {
  // The reference term is the highest term at which some live replica
  // actually recognizes a leader. A stranded minority replica restarts
  // elections and inflates its own term without ever seating anyone;
  // including hint-less terms here would mask the majority's agreement.
  uint64_t max_term = 0;
  for (const auto& r : replicas_) {
    if (!r->crashed() && r->leader_hint() >= 0 && r->term() > max_term) {
      max_term = r->term();
    }
  }
  // Boyer–Moore majority vote over the live replicas' hints at max_term,
  // then a confirming count — no allocation on this hot path.
  int candidate = -1;
  int balance = 0;
  for (const auto& r : replicas_) {
    if (r->crashed() || r->term() != max_term) continue;
    int h = r->leader_hint();
    if (h < 0) continue;
    if (balance == 0) {
      candidate = h;
      balance = 1;
    } else {
      balance += (h == candidate) ? 1 : -1;
    }
  }
  if (candidate < 0) return -1;
  int votes = 0;
  for (const auto& r : replicas_) {
    if (r->crashed() || r->term() != max_term) continue;
    if (r->leader_hint() == candidate) ++votes;
  }
  int majority = static_cast<int>(replicas_.size()) / 2 + 1;
  return votes >= majority ? candidate : -1;
}

RaftReplica* RaftGroup::leader() {
  int agreed = AgreedLeaderIndex();
  if (agreed >= 0) {
    NATTO_CHECK(agreed == current_idx_)
        << "tracked leader " << current_idx_
        << " disagrees with the quorum's leader " << agreed;
  }
  return replicas_[static_cast<size_t>(current_idx_)].get();
}

RaftReplica* RaftGroup::current_leader() {
  RaftReplica* l = replicas_[static_cast<size_t>(current_idx_)].get();
  return l->crashed() ? nullptr : l;
}

void RaftGroup::Propose(PayloadId payload, std::function<void()> on_committed,
                        std::function<void(bool)> on_failed) {
  RaftReplica* l = current_leader();
  if (l == nullptr) {
    on_failed(false);
    return;
  }
  if (propose_timeout_ <= 0) {
    // Fault-free fast path: no timer, no completion token — identical event
    // stream to proposing at the leader directly.
    if (!l->Propose(payload, std::move(on_committed))) on_failed(false);
    return;
  }
  auto done = std::make_shared<bool>(false);
  const bool accepted =
      l->Propose(payload, [done, cb = std::move(on_committed)]() {
        if (*done) return;  // already timed out
        *done = true;
        cb();
      });
  if (!accepted) {
    on_failed(false);
    return;
  }
  transport_->simulator()->ScheduleAfter(
      propose_timeout_, [done, fail = std::move(on_failed)]() {
        if (*done) return;
        *done = true;
        fail(true);
      });
}

void RaftGroup::ProposeWithRetry(PayloadId payload,
                                 std::function<void()> on_committed) {
  ProposeAttempt(payload,
                 std::make_shared<std::function<void()>>(
                     std::move(on_committed)),
                 kMaxCommitRetries);
}

void RaftGroup::ProposeAttempt(PayloadId payload,
                               std::shared_ptr<std::function<void()>> cb,
                               int attempts_left) {
  Propose(
      payload,
      [cb]() {
        if (*cb) (*cb)();
      },
      [this, payload, cb, attempts_left](bool /*timed_out*/) {
        if (attempts_left <= 0) return;  // unrecoverable outage backstop
        // Re-propose after an election has had time to make progress. The
        // payload is opaque, so a duplicate log entry from a retry racing a
        // slow commit is harmless, and each attempt's completion token
        // guarantees the callback fires at most once overall.
        transport_->simulator()->ScheduleAfter(
            4 * RaftReplica::kHeartbeatInterval,
            [this, payload, cb, attempts_left]() {
              ProposeAttempt(payload, cb, attempts_left - 1);
            });
      });
}

}  // namespace natto::raft
