#include "natto/natto.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

namespace natto::core {

namespace {

bool Overlaps(const std::vector<Key>& a, const std::vector<Key>& b) {
  for (Key x : a) {
    for (Key y : b) {
      if (x == y) return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// NattoOptions presets
// ---------------------------------------------------------------------------

NattoOptions NattoOptions::TsOnly() {
  NattoOptions o;
  o.lecsf = o.priority_abort = o.conditional_prepare = o.recsf = false;
  return o;
}

NattoOptions NattoOptions::Lecsf() {
  NattoOptions o = TsOnly();
  o.lecsf = true;
  return o;
}

NattoOptions NattoOptions::Pa() {
  NattoOptions o = Lecsf();
  o.priority_abort = true;
  return o;
}

NattoOptions NattoOptions::Cp() {
  NattoOptions o = Pa();
  o.conditional_prepare = true;
  return o;
}

NattoOptions NattoOptions::Recsf() {
  NattoOptions o = Cp();
  o.recsf = true;
  return o;
}

// ---------------------------------------------------------------------------
// NattoServer
// ---------------------------------------------------------------------------

NattoServer::NattoServer(NattoEngine* engine, int partition, int site,
                         sim::NodeClock clock)
    : net::Node(engine->cluster()->transport(), site, clock),
      engine_(engine),
      partition_(partition),
      kv_(engine->cluster()->options().default_value) {
  obs::MetricsRegistry* reg = engine->cluster()->metrics();
  const std::string prefix =
      "natto.server.p" + std::to_string(partition) + ".";
  stats_.priority_aborts = reg->GetCounter(prefix + "priority_aborts");
  stats_.pa_suppressed = reg->GetCounter(prefix + "pa_suppressed");
  stats_.conditional_prepares =
      reg->GetCounter(prefix + "conditional_prepares");
  stats_.cp_satisfied = reg->GetCounter(prefix + "cp_satisfied");
  stats_.cp_failed = reg->GetCounter(prefix + "cp_failed");
  stats_.order_violation_aborts =
      reg->GetCounter(prefix + "order_violation_aborts");
  stats_.occ_aborts = reg->GetCounter(prefix + "occ_aborts");
  stats_.recsf_forwards = reg->GetCounter(prefix + "recsf_forwards");
  stats_.stale_retries = reg->GetCounter(prefix + "stale_retries");
}

void NattoServer::HandleReadPrepare(const NattoWireTxn& txn) {
  if (finished_.contains(txn.id)) {
    stats_.stale_retries->Inc();
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->Instant(txn.id, "stale_retry_refused", partition_, TrueNow());
      tr->AttributeAbort(txn.id, obs::AbortCause::kStaleRetry);
    }
    SendVote(txn.coordinator,
             {.id = txn.id, .cause = obs::AbortCause::kStaleRetry});
    return;
  }
  const txn::Topology& topo = engine_->cluster()->topology();
  Enqueue(TxnState{.txn = txn,
                   .local_reads = topo.LocalKeys(txn.read_set, partition_),
                   .local_writes = topo.LocalKeys(txn.write_set, partition_)});
}

void NattoServer::Enqueue(TxnState st) {
  SimTime now = LocalNow();
  const NattoWireTxn& w = st.txn;

  // Late arrival: abort only if it violates timestamp order with an already
  // prepared conflicting transaction that has a LARGER timestamp (Sec 2.2 /
  // Sec 3.2).
  if (now > w.ts) {
    bool violated = false;
    for (Key k : st.local_reads) {
      auto it = key_order_ts_.find(k);
      if (it != key_order_ts_.end() && it->second > w.ts) violated = true;
    }
    for (Key k : st.local_writes) {
      auto it = key_order_ts_.find(k);
      if (it != key_order_ts_.end() && it->second > w.ts) violated = true;
    }
    if (violated) {
      stats_.order_violation_aborts->Inc();
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->Instant(w.id, "order_violation", partition_, TrueNow());
        tr->AttributeAbort(w.id, obs::AbortCause::kOrderViolation);
      }
      finished_.insert(w.id);
      SendVote(w.coordinator,
               {.id = w.id, .cause = obs::AbortCause::kOrderViolation});
      return;
    }
  }

  // Priority-abort pass (Sec 3.3.1), generalized to multiple levels: a
  // strictly higher level preempts lower ones in both directions. Both
  // checks visit only the conflicting transactions, taken from the key
  // index in queue order (all queued before all waiting), so victims,
  // suppression counts and messages match a walk of the whole stage.
  if (engine_->options().priority_abort) {
    const OrderKey my_key{w.ts, w.id};
    const int my_level = txn::PriorityLevel(w.priority);
    const bool estimate = engine_->options().pa_completion_estimate;
    if (my_level > 0) {
      // Abort conflicting queued lower-level transactions ordered before us.
      table_.Conflicting(Stage::kQueued, st.local_reads, st.local_writes, 0,
                         my_level - 1, &candidates_);
      for (const OrderKey& key : candidates_) {
        if (key >= my_key) break;
        if (estimate &&
            LowWillFinishInTime(*table_.Find(Stage::kQueued, key.second),
                                st)) {
          stats_.pa_suppressed->Inc();
          continue;
        }
        PriorityAbort(*table_.Take(key.second));
      }
    }
    // A transaction ordered before a conflicting queued or waiting
    // higher-level transaction is aborted on arrival.
    auto blocked_by_higher = [&](Stage stage) {
      table_.Conflicting(stage, st.local_reads, st.local_writes, my_level + 1,
                         std::numeric_limits<int>::max(), &candidates_);
      for (auto key = std::upper_bound(candidates_.begin(), candidates_.end(),
                                       my_key);
           key != candidates_.end(); ++key) {
        if (estimate &&
            LowWillFinishInTime(st, *table_.Find(stage, key->second))) {
          stats_.pa_suppressed->Inc();
          continue;
        }
        return true;
      }
      return false;
    };
    if (blocked_by_higher(Stage::kQueued) ||
        blocked_by_higher(Stage::kWaiting)) {
      PriorityAbort(st);
      return;
    }
  }

  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->SpanBegin(w.id, "queue", partition_, TrueNow());
  }
  const SimTime ts = w.ts;
  table_.Insert(Stage::kQueued, std::move(st));
  if (now >= ts) {
    DrainReady();
  } else {
    AtLocalTime(ts, [this]() { DrainReady(); });
  }
}

void NattoServer::DrainReady() {
  while (const TxnState* head = table_.First(Stage::kQueued)) {
    if (head->txn.ts > LocalNow()) return;
    TxnState st = *table_.Take(head->txn.id);
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanEnd(st.txn.id, "queue", partition_, TrueNow());
    }
    ProcessTxn(std::move(st));
  }
}

void NattoServer::ProcessTxn(TxnState st) {
  // Conflicts with waiting (already processed, lock-blocked) transactions.
  const bool conflicts_waiting =
      table_.AnyConflicting(Stage::kWaiting, st.local_reads, st.local_writes);

  if (!txn::IsPrioritized(st.txn.priority)) {
    // Carousel-style OCC for base-level transactions.
    if (conflicts_waiting ||
        table_.AnyConflicting(Stage::kPrepared, st.local_reads,
                              st.local_writes)) {
      stats_.occ_aborts->Inc();
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->Instant(st.txn.id, "occ_conflict", partition_, TrueNow());
        tr->AttributeAbort(st.txn.id, obs::AbortCause::kOccConflict);
      }
      finished_.insert(st.txn.id);
      SendVote(st.txn.coordinator,
               {.id = st.txn.id, .cause = obs::AbortCause::kOccConflict});
      return;
    }
    PrepareNow(std::move(st), /*conditional=*/false, 0);
    return;
  }

  // High priority: locking-based. Wait (never abort) on conflicts.
  if (conflicts_waiting) {
    Wait(std::move(st));
    return;
  }
  table_.Conflicting(Stage::kPrepared, st.local_reads, st.local_writes, 0,
                     std::numeric_limits<int>::max(), &candidates_);
  if (candidates_.empty()) {
    PrepareNow(std::move(st), /*conditional=*/false, 0);
    return;
  }
  const TxnState* blocker =
      candidates_.size() == 1
          ? table_.Find(Stage::kPrepared, candidates_[0].second)
          : nullptr;

  // Conditional prepare (Sec 3.3.2): a single low-priority prepared blocker
  // that another common participant is expected to priority-abort.
  if (engine_->options().conditional_prepare && blocker != nullptr &&
      txn::PriorityLevel(blocker->txn.priority) <
          txn::PriorityLevel(st.txn.priority) &&
      !blocker->conditional && EstimatePriorityAbortElsewhere(st, *blocker)) {
    PrepareNow(std::move(st), /*conditional=*/true, blocker->txn.id);
    return;
  }

  // Blocked: buffer in timestamp order; RECSF forwards the reads.
  if (engine_->options().recsf && blocker != nullptr) {
    ForwardReadsRemote(st, *blocker);
  }
  Wait(std::move(st));
}

void NattoServer::Wait(TxnState st) {
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->SpanBegin(st.txn.id, "blocked", partition_, TrueNow());
  }
  rescan_.emplace_back(st.txn.ts, st.txn.id);
  table_.Insert(Stage::kWaiting, std::move(st));
}

void NattoServer::MarkRescan(const TxnState& gone) {
  table_.Conflicting(Stage::kWaiting, gone.local_reads, gone.local_writes, 0,
                     std::numeric_limits<int>::max(), &candidates_);
  rescan_.insert(rescan_.end(), candidates_.begin(), candidates_.end());
}

void NattoServer::PrepareNow(TxnState st, bool conditional,
                             TxnId condition_on) {
  TxnId id = st.txn.id;
  st.read_version += 1;
  st.conditional = conditional;
  st.condition_on = condition_on;

  for (Key k : st.local_reads) {
    SimTime& t = key_order_ts_[k];
    t = std::max(t, st.txn.ts);
  }
  for (Key k : st.local_writes) {
    SimTime& t = key_order_ts_[k];
    t = std::max(t, st.txn.ts);
  }
  if (conditional) {
    stats_.conditional_prepares->Inc();
    conditioned_.emplace_back(condition_on, id);
  }
  const char* span_name = conditional ? "conditional_prepare" : "prepare";
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->SpanBegin(id, span_name, partition_, TrueNow());
  }

  int version = st.read_version;
  net::NodeId coord = st.txn.coordinator;
  ServeReads(table_.Insert(Stage::kPrepared, std::move(st)));

  // Replicate the prepare record, then vote. The vote is built when the
  // replication completes so it reflects the *current* conditional state:
  // a condition may resolve (or fail) while the prepare is replicating.
  engine_->cluster()->group(partition_)->Propose(
      id,
      [this, id, version, coord, span_name]() {
        if (obs::Tracer* tr = engine_->cluster()->tracer()) {
          tr->SpanEnd(id, span_name, partition_, TrueNow());
        }
        const TxnState* st = table_.Find(Stage::kPrepared, id);
        if (st == nullptr) return;  // aborted or CP discarded
        if (st->read_version != version) return;  // superseded
        SendVote(coord, {.id = id,
                         .ok = true,
                         .read_version = version,
                         .conditional = st->conditional,
                         .condition_on = st->condition_on});
      },
      [this, id, version, coord, span_name](bool timed_out) {
        // Prepare record lost to a leader failure: vote no; the
        // coordinator's abort cleans up the prepared state here.
        if (obs::Tracer* tr = engine_->cluster()->tracer()) {
          tr->SpanEnd(id, span_name, partition_, TrueNow());
        }
        const TxnState* st = table_.Find(Stage::kPrepared, id);
        if (st == nullptr || st->read_version != version) return;
        SendVote(coord, {.id = id, .read_version = version,
                         .cause = txn::LostProposalCause(timed_out)});
      });
}

void NattoServer::SendVote(net::NodeId coordinator, NattoVote vote) {
  vote.partition = partition_;
  auto* co = engine_->coordinator_by_node(coordinator);
  SendTo(coordinator, kMessageHeaderBytes,
         [co, vote]() { co->HandleVote(vote); });
}

void NattoServer::ServeReads(TxnState& st) {
  std::vector<txn::ReadResult> results = txn::ReadAll(kv_, st.local_reads);
  auto* gw = engine_->gateway_by_node(st.txn.client);
  TxnId id = st.txn.id;
  int partition = partition_;
  int version = st.read_version;
  SendTo(st.txn.client, WireKvBytes(results.size()),
         [gw, id, partition, version, results]() {
           gw->HandleReadResults(id, partition, version, results);
         });
}

void NattoServer::PriorityAbort(const TxnState& victim) {
  stats_.priority_aborts->Inc();
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->Instant(victim.txn.id, "priority_abort", partition_, TrueNow());
    tr->AttributeAbort(victim.txn.id, obs::AbortCause::kPriorityAbort);
  }
  finished_.insert(victim.txn.id);
  TxnId id = victim.txn.id;
  auto* co = engine_->coordinator_by_node(victim.txn.coordinator);
  SendTo(victim.txn.coordinator, kMessageHeaderBytes,
         [co, id]() { co->HandlePriorityAbort(id); });
}

void NattoServer::HandleCommit(TxnId id,
                               std::vector<std::pair<Key, Value>> writes) {
  if (finished_.contains(id)) return;
  if (table_.Find(Stage::kPrepared, id) == nullptr) return;

  auto complete = [this, id](const std::vector<std::pair<Key, Value>>& w) {
    for (const auto& [k, v] : w) kv_.Apply(k, v, id);
    if (table_.Find(Stage::kPrepared, id) != nullptr) {
      MarkRescan(*table_.Take(id));
    }
    finished_.insert(id);
    ResolveConditions(id, /*low_aborted=*/false);
    RescanWaiting();
  };

  if (engine_->options().lecsf) {
    // LECSF (Sec 3.4): the commit is already fault tolerant at the
    // coordinator, so make the writes visible before replicating them.
    complete(writes);
    engine_->cluster()->group(partition_)->ProposeWithRetry(id, []() {});
  } else {
    // The coordinator already reported the commit, so the write data must
    // eventually replicate even across leader changes.
    engine_->cluster()->group(partition_)->ProposeWithRetry(
        id, [complete, writes = std::move(writes)]() { complete(writes); });
  }
}

void NattoServer::HandleAbort(TxnId id) {
  if (finished_.contains(id)) return;
  finished_.insert(id);
  // Remove from whichever stage it reached; only a queued transaction
  // blocks no waiter.
  Stage from{};
  if (std::optional<TxnState> gone = table_.Take(id, &from);
      gone && from != Stage::kQueued) {
    MarkRescan(*gone);
  }
  ResolveConditions(id, /*low_aborted=*/true);
  RescanWaiting();
}

void NattoServer::ResolveConditions(TxnId low, bool low_aborted) {
  // The conditional prepares on `low`, in id order.
  std::vector<TxnId> conditioned;
  for (size_t i = 0; i < conditioned_.size();) {
    if (conditioned_[i].first != low) {
      ++i;
      continue;
    }
    conditioned.push_back(conditioned_[i].second);
    conditioned_[i] = conditioned_.back();
    conditioned_.pop_back();
  }
  std::sort(conditioned.begin(), conditioned.end());
  for (TxnId id : conditioned) {
    TxnState* st = table_.Find(Stage::kPrepared, id);
    if (st == nullptr || !st->conditional || st->condition_on != low) {
      continue;  // aborted or committed while conditional
    }
    net::NodeId coord = st->txn.coordinator;
    int partition = partition_;
    if (low_aborted) {
      // Condition satisfied: the conditional prepare becomes firm.
      stats_.cp_satisfied->Inc();
      st->conditional = false;
      st->condition_on = 0;
      auto* co = engine_->coordinator_by_node(coord);
      SendTo(coord, kMessageHeaderBytes, [co, id, partition]() {
        co->HandleConditionResolved(id, partition, /*satisfied=*/true);
      });
    } else {
      // Condition failed: discard the conditional prepare and re-run the
      // normal path (the blocker just committed, so the retry will read its
      // writes once applied).
      stats_.cp_failed->Inc();
      TxnState moved = *table_.Take(id);
      MarkRescan(moved);
      moved.conditional = false;
      moved.condition_on = 0;
      auto* co = engine_->coordinator_by_node(coord);
      SendTo(coord, kMessageHeaderBytes, [co, id, partition]() {
        co->HandleConditionResolved(id, partition, /*satisfied=*/false);
      });
      Wait(std::move(moved));
    }
  }
}

// Restarting after each wake-up, as a scan of every waiter, cannot change
// the result of one ordered pass: a wake-up only grows the prepared stage
// and removes the woken waiter, so a waiter the pass already found blocked
// stays blocked. A waiter left blocked by a pass stays blocked until a
// conflicting waiter or prepared transaction leaves, and MarkRescan marks
// it then; new waiters are marked by Wait. So the pass visits only marked
// waiters and wakes what a scan of every waiter would wake, in the same
// order.
void NattoServer::RescanWaiting() {
  std::sort(rescan_.begin(), rescan_.end());
  rescan_.erase(std::unique(rescan_.begin(), rescan_.end()), rescan_.end());
  const size_t marked = rescan_.size();
  for (size_t i = 0; i < marked; ++i) {
    const OrderKey key = rescan_[i];
    const TxnState* st = table_.Find(Stage::kWaiting, key.second);
    if (st == nullptr) continue;  // woken or aborted since marked
    if (table_.AnyConflicting(Stage::kWaiting, st->local_reads,
                              st->local_writes, key) ||
        table_.AnyConflicting(Stage::kPrepared, st->local_reads,
                              st->local_writes)) {
      continue;
    }
    TxnState ready = *table_.Take(key.second);
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanEnd(ready.txn.id, "blocked", partition_, TrueNow());
    }
    PrepareNow(std::move(ready), /*conditional=*/false, 0);
  }
  rescan_.erase(rescan_.begin(),
                rescan_.begin() + static_cast<ptrdiff_t>(marked));
}

bool NattoServer::LowWillFinishInTime(const TxnState& low,
                                      const TxnState& high) const {
  // Expected time at which the low-priority transaction's commit reaches
  // this server, estimated from measured mean delays (Sec 3.3.1).
  const txn::Topology& topo = engine_->cluster()->topology();
  int coord_site = low.txn.coordinator_site;
  SimDuration votes_done = 0;
  for (const auto& [p, est] : low.txn.est_arrivals) {
    SimDuration repl = engine_->MajorityReplicationDelay(p);
    SimDuration to_coord =
        engine_->MeanOneWay(topo.LeaderSite(p), coord_site);
    votes_done = std::max(votes_done, repl + to_coord);
  }
  int coord_partition = topo.PartitionLedAt(coord_site);
  SimDuration coord_repl =
      coord_partition >= 0 ? engine_->MajorityReplicationDelay(coord_partition)
                           : 0;
  SimDuration decision = std::max(votes_done, coord_repl);
  SimDuration commit_here =
      decision + engine_->MeanOneWay(coord_site, site());
  return low.txn.ts + commit_here < high.txn.ts;
}

bool NattoServer::EstimatePriorityAbortElsewhere(const TxnState& high,
                                                 const TxnState& low) const {
  const txn::Topology& topo = engine_->cluster()->topology();
  for (const auto& [p, high_arrival] : high.txn.est_arrivals) {
    if (p == partition_) continue;
    // Do both transactions touch partition p with a real conflict there?
    std::vector<Key> hr = topo.LocalKeys(high.txn.read_set, p);
    std::vector<Key> hw = topo.LocalKeys(high.txn.write_set, p);
    std::vector<Key> lr = topo.LocalKeys(low.txn.read_set, p);
    std::vector<Key> lw = topo.LocalKeys(low.txn.write_set, p);
    bool conflict = Overlaps(hw, lw) || Overlaps(hw, lr) || Overlaps(hr, lw);
    if (!conflict) continue;
    // The other server priority-aborts `low` if `high` arrives while `low`
    // is still queued there, i.e. before low's execution timestamp.
    if (high_arrival < low.txn.ts) {
      if (engine_->options().pa_completion_estimate &&
          LowWillFinishInTime(low, high)) {
        continue;  // that server will suppress the priority abort
      }
      return true;
    }
  }
  return false;
}

void NattoServer::ForwardReadsRemote(const TxnState& high,
                                     const TxnState& blocker) {
  stats_.recsf_forwards->Inc();
  // Keys the blocker will overwrite are served by the blocker's coordinator
  // as soon as it commits; the rest are unaffected by the blocker and can be
  // read here immediately.
  std::vector<Key> covered;
  std::vector<Key> rest;
  for (Key k : high.local_reads) {
    if (std::find(blocker.local_writes.begin(), blocker.local_writes.end(),
                  k) != blocker.local_writes.end()) {
      covered.push_back(k);
    } else {
      rest.push_back(k);
    }
  }
  int version = high.read_version + 1;  // version the upcoming prepare uses
  TxnId reader = high.txn.id;
  int partition = partition_;

  if (!covered.empty()) {
    auto* co = engine_->coordinator_by_node(blocker.txn.coordinator);
    TxnId writer = blocker.txn.id;
    net::NodeId client = high.txn.client;
    SendTo(blocker.txn.coordinator, WireKeysBytes(covered.size()),
           [co, writer, reader, partition, covered, version, client]() {
             co->HandleRecsfRead(writer, reader, partition, covered, version,
                                 client);
           });
  }
  if (!rest.empty()) {
    std::vector<txn::ReadResult> results = txn::ReadAll(kv_, rest);
    auto* gw = engine_->gateway_by_node(high.txn.client);
    SendTo(high.txn.client, WireKvBytes(results.size()),
           [gw, reader, partition, version, results]() {
             gw->HandleReadResults(reader, partition, version, results);
           });
  }
}

// ---------------------------------------------------------------------------
// NattoCoordinator
// ---------------------------------------------------------------------------

NattoCoordinator::NattoCoordinator(NattoEngine* engine, int site,
                                   sim::NodeClock clock)
    : CoordinatorCore(engine->cluster(), site, clock, "natto"),
      engine_(engine) {}

void NattoCoordinator::HandleBegin(const NattoWireTxn& txn,
                                   std::vector<int> participants) {
  if (Begin(txn.id, engine_->gateway_by_node(txn.client),
            std::move(participants)) != nullptr) {
    MaybeDecide(txn.id);
  }
}

void NattoCoordinator::HandleVote(const NattoVote& vote) {
  CoordinatorTxn* st = Lazy(vote.id);
  if (st == nullptr) return;
  if (vote.ok) {
    VoteState& vs = st->votes[vote.partition];
    vs.have = true;
    vs.version = vote.read_version;
    vs.conditional = vote.conditional;
  } else {
    Fail(*st, vote.cause);
  }
  MaybeDecide(vote.id);
}

void NattoCoordinator::HandleConditionResolved(TxnId id, int partition,
                                               bool satisfied) {
  CoordinatorTxn* st = Lazy(id);
  if (st == nullptr) return;
  VoteState& vs = st->votes[partition];
  vs.conditional = false;
  // A failed condition discards the vote; the server re-runs the normal
  // path and will vote again with a fresh read version.
  if (!satisfied) vs.have = false;
  MaybeDecide(id);
}

void NattoCoordinator::HandlePriorityAbort(TxnId id) {
  CoordinatorTxn* st = Lazy(id);
  if (st == nullptr) return;
  st->priority_aborted = true;
  MaybeDecide(id);
}

void NattoCoordinator::HandleRound2(TxnId id,
                                    std::vector<std::pair<Key, Value>> writes,
                                    std::vector<std::pair<int, int>> versions,
                                    bool user_abort) {
  CoordinatorTxn* st = Lazy(id);
  if (st == nullptr) return;
  if (user_abort) {
    st->user_abort = true;
    MaybeDecide(id);
    return;
  }
  st->have_writes = true;
  st->writes = std::move(writes);
  st->round2_versions.clear();
  for (const auto& [p, v] : versions) st->round2_versions[p] = v;
  int generation = ++st->round2_generation;
  if (st->writes.empty()) {
    st->replicated_version = generation;
    MaybeDecide(id);
    return;
  }
  ProposeLocal(id, [this, id, generation]() {
    CoordinatorTxn* s = Find(id);
    if (s == nullptr) return;
    if (generation >= s->replicated_version) {
      s->replicated_version = generation;
    }
    MaybeDecide(id);
  });
}

void NattoCoordinator::TryDecide(TxnId id, CoordinatorTxn& st) {
  if (st.priority_aborted) {
    Decide(id, /*commit=*/false, obs::AbortCause::kPriorityAbort);
    return;
  }
  if (st.failed) {
    Decide(id, /*commit=*/false, RefusalCause(st));
    return;
  }
  if (st.user_abort) {
    Decide(id, /*commit=*/false, obs::AbortCause::kUserAbort);
    return;
  }
  if (st.participants.empty() || !st.have_writes) return;
  if (st.replicated_version < st.round2_generation) return;
  for (int p : st.participants) {
    auto v = st.votes.find(p);
    if (v == st.votes.end() || !v->second.have) return;
    if (v->second.conditional) return;  // condition unresolved
    auto rv = st.round2_versions.find(p);
    if (rv == st.round2_versions.end() || rv->second != v->second.version) {
      return;  // client's writes were computed from superseded reads
    }
  }
  Decide(id, /*commit=*/true, obs::AbortCause::kNone);
}

void NattoCoordinator::FanOut(TxnId id, const CoordinatorTxn& st,
                              bool commit) {
  const txn::Topology& topo = engine_->cluster()->topology();
  for (int p : st.participants) {
    txn::SendOutcome(this, engine_->server(p), id, commit, topo, p, st.writes);
  }
}

void NattoCoordinator::AfterDecide(TxnId id, const CoordinatorTxn& st,
                                   bool commit) {
  if (!commit) {
    recsf_waiting_.erase(id);
    return;
  }
  // Keep committed write data available for RECSF readers.
  committed_writes_[id] = st.writes;
  auto pending = recsf_waiting_.find(id);
  if (pending != recsf_waiting_.end()) {
    for (const PendingRecsf& r : pending->second) ServeRecsf(r, st.writes);
    recsf_waiting_.erase(pending);
  }
  // Bound the cache: drop the entry once it can no longer be useful.
  After(Seconds(10), [this, id]() { committed_writes_.erase(id); });
}

void NattoCoordinator::HandleRecsfRead(TxnId writer, TxnId reader,
                                       int partition, std::vector<Key> keys,
                                       int read_version, net::NodeId client) {
  auto cw = committed_writes_.find(writer);
  if (cw != committed_writes_.end()) {
    ServeRecsf(PendingRecsf{reader, partition, std::move(keys), read_version,
                            client},
               cw->second);
    return;
  }
  if (Find(writer) != nullptr) {
    recsf_waiting_[writer].push_back(PendingRecsf{
        reader, partition, std::move(keys), read_version, client});
  }
  // Writer already aborted: the reader's normal path will serve the reads.
}

void NattoCoordinator::ServeRecsf(
    const PendingRecsf& req, const std::vector<std::pair<Key, Value>>& writes) {
  std::vector<txn::ReadResult> results;
  for (Key k : req.keys) {
    for (const auto& [wk, wv] : writes) {
      if (wk == k) {
        // Version is synthetic: RECSF readers match on read_version, not on
        // storage versions.
        results.push_back(txn::ReadResult{k, wv, 0});
        break;
      }
    }
  }
  auto* gw = engine_->gateway_by_node(req.client);
  TxnId reader = req.reader;
  int partition = req.partition;
  int version = req.read_version;
  SendTo(req.client, WireKvBytes(results.size()),
         [gw, reader, partition, version, results]() {
           gw->HandleReadResults(reader, partition, version, results);
         });
}

// ---------------------------------------------------------------------------
// NattoGateway
// ---------------------------------------------------------------------------

namespace {

/// Client-side delay-estimate refresh period (paper: 100 ms).
constexpr SimDuration kEstimateRefresh = Millis(100);

}  // namespace

NattoGateway::NattoGateway(NattoEngine* engine, int site, sim::NodeClock clock)
    : GatewayCore(engine->cluster(), site, clock), engine_(engine) {
  obs::MetricsRegistry* reg = engine->cluster()->metrics();
  const std::string prefix = "natto.gateway.s" + std::to_string(site) + ".";
  refresh_fetches_metric_ = reg->GetCounter(prefix + "refresh_fetches");
  quota_demotions_metric_ = reg->GetCounter(prefix + "quota_demotions");
}

void NattoGateway::RefreshEstimates() {
  if (refresh_running_) return;  // a refresh loop is already scheduled
  refresh_running_ = true;
  RefreshTick();
}

void NattoGateway::RefreshTick() {
  refresh_fetches_metric_->Inc();
  auto* proxy = engine_->proxy_at(site());
  // Fetch the proxy's current estimates with a local round trip.
  SendTo(proxy->id(), kMessageHeaderBytes, [this, proxy]() {
    const txn::Topology& topo = engine_->cluster()->topology();
    std::vector<std::pair<int, SimDuration>> ests;
    for (int p = 0; p < topo.num_partitions(); ++p) {
      if (proxy->HasEstimate(p)) {
        ests.emplace_back(p, proxy->EstimateDelayTo(p));
      }
    }
    proxy->SendTo(
        this->id(), kMessageHeaderBytes + ests.size() * 16, [this, ests]() {
          for (const auto& [p, d] : ests) cached_estimates_[p] = d;
        });
  });
  After(kEstimateRefresh, [this]() { RefreshTick(); });
}

SimDuration NattoGateway::EstimatedOneWay(int partition) const {
  auto it = cached_estimates_.find(partition);
  if (it != cached_estimates_.end()) return it->second;
  // Cold start (before the first proxy fetch): fall back to the matrix
  // average; the harness warms proxies up before measurement anyway.
  return engine_->MeanOneWay(
      site(), engine_->cluster()->topology().LeaderSite(partition));
}

bool NattoGateway::AdmitPrioritized() {
  double quota = engine_->options().high_priority_quota_tps;
  if (quota <= 0) return true;
  // Token bucket: refill at the quota rate, burst capacity of one second.
  SimTime now = TrueNow();
  quota_tokens_ = std::min(
      quota, quota_tokens_ + quota * ToSeconds(now - quota_last_refill_));
  quota_last_refill_ = now;
  if (quota_tokens_ >= 1.0) {
    quota_tokens_ -= 1.0;
    return true;
  }
  quota_demotions_metric_->Inc();
  return false;
}

void NattoGateway::StartTxn(const txn::TxnRequest& request,
                            txn::TxnCallback done) {
  const txn::Topology& topo = engine_->cluster()->topology();
  auto* coord = engine_->coordinator_at(site());

  std::vector<int> participants =
      topo.Participants(request.read_set, request.write_set);

  NattoWireTxn w;
  w.id = request.id;
  w.priority = request.priority;
  if (txn::IsPrioritized(w.priority) && !AdmitPrioritized()) {
    // Over the datacenter's priority quota: process at base priority
    // (Sec 3.2's shared-environment policy).
    w.priority = txn::Priority::kLow;
  }
  w.read_set = request.read_set;
  w.write_set = request.write_set;
  w.coordinator = coord->id();
  w.client = id();
  w.coordinator_site = coord->site();

  SimTime now = LocalNow();
  SimDuration max_est = 0;
  for (int p : participants) {
    SimDuration est = EstimatedOneWay(p);
    w.est_arrivals.emplace_back(p, now + est);
    max_est = std::max(max_est, est);
  }
  w.ts = now + max_est;

  NattoClientTxn& st = Register(request, std::move(done),
                                txn::PriorityLevel(w.priority),
                                /*round1_span=*/false);
  st.participants = participants;

  SendTo(coord->id(),
         WireKeysBytes(request.read_set.size() + request.write_set.size()),
         [coord, w, participants]() { coord->HandleBegin(w, participants); });

  size_t rp_bytes =
      WireKeysBytes(request.read_set.size() + request.write_set.size()) +
      participants.size() * 16;  // piggybacked arrival estimates
  for (int p : participants) {
    auto* srv = engine_->server(p);
    SendTo(srv->id(), rp_bytes, [srv, w]() { srv->HandleReadPrepare(w); });
  }
}

void NattoGateway::HandleReadResults(TxnId id, int partition, int read_version,
                                     std::vector<txn::ReadResult> reads) {
  NattoClientTxn* st = Find(id);
  if (st == nullptr) return;
  auto version = st->read_versions.try_emplace(partition, -1).first;
  if (read_version < version->second) return;  // stale
  if (read_version > version->second) {
    version->second = read_version;
    const txn::Topology& topo = engine_->cluster()->topology();
    for (Key k : st->request.read_set) {
      if (topo.PartitionOfKey(k) == partition) st->reads.erase(k);
    }
  }
  for (const txn::ReadResult& r : reads) st->reads[r.key] = r;
  MaybeSendRound2(id);
}

void NattoGateway::MaybeSendRound2(TxnId id) {
  NattoClientTxn* st = Find(id);
  if (st == nullptr) return;
  const txn::Topology& topo = engine_->cluster()->topology();

  // All participants must have delivered a complete read set (possibly
  // empty) for some version.
  int generation = 0;
  for (int p : st->participants) {
    auto version = st->read_versions.find(p);
    if (version == st->read_versions.end() || version->second < 1) return;
    for (Key k : st->request.read_set) {
      if (topo.PartitionOfKey(k) != p) continue;
      if (!st->reads.contains(k)) return;  // partial (RECSF half)
    }
    generation += version->second;
  }

  // Skip if nothing changed since the last send.
  if (generation <= st->round2_sent_generation) return;
  st->round2_sent_generation = generation;
  ComputeRound2(id, *st);
}

void NattoGateway::SendRound2(TxnId id, NattoClientTxn& st,
                              const std::vector<txn::ReadResult>& /*ordered*/,
                              bool user_abort) {
  auto* coord = engine_->coordinator_at(site());
  if (user_abort) {
    SendTo(coord->id(), kMessageHeaderBytes, [coord, id]() {
      coord->HandleRound2(id, {}, {}, /*user_abort=*/true);
    });
    return;
  }
  std::vector<std::pair<int, int>> versions;
  for (int p : st.participants) {
    versions.emplace_back(p, st.read_versions.find(p)->second);
  }
  SendTo(coord->id(), txn::kRound2Bytes,
         [coord, id, writes = st.writes, versions]() {
           coord->HandleRound2(id, writes, versions, /*user_abort=*/false);
         });
}

// ---------------------------------------------------------------------------
// NattoEngine
// ---------------------------------------------------------------------------

NattoEngine::NattoEngine(txn::Cluster* cluster, NattoOptions options)
    : EngineCore(cluster), options_(options) {
  const txn::Topology& topo = cluster_->topology();
  for (int p = 0; p < topo.num_partitions(); ++p) {
    servers_.push_back(std::make_unique<NattoServer>(
        this, p, topo.LeaderSite(p), cluster_->MakeClock()));
  }
  for (int s = 0; s < topo.num_sites(); ++s) {
    proxies_.push_back(std::make_unique<net::Prober>(
        cluster_->transport(), s, cluster_->MakeClock(),
        options_.estimate_quantile));
    for (int p = 0; p < topo.num_partitions(); ++p) {
      proxies_.back()->AddTarget(p, servers_[p].get());
    }
    proxies_.back()->Start();
    coordinators_.Add(std::make_unique<NattoCoordinator>(
        this, cluster_->CoordinatorSite(s), cluster_->MakeClock()));
    gateways_
        .Add(std::make_unique<NattoGateway>(this, s, cluster_->MakeClock()))
        ->RefreshEstimates();
  }
}

std::string NattoEngine::name() const {
  if (options_.recsf) return "Natto-RECSF";
  if (options_.conditional_prepare) return "Natto-CP";
  if (options_.priority_abort) return "Natto-PA";
  if (options_.lecsf) return "Natto-LECSF";
  return "Natto-TS";
}

SimDuration NattoEngine::MeanOneWay(int site_a, int site_b) const {
  return cluster_->matrix().OneWay(site_a, site_b);
}

SimDuration NattoEngine::MajorityReplicationDelay(int partition) const {
  const txn::Topology& topo = cluster_->topology();
  const net::LatencyMatrix& m = cluster_->matrix();
  const std::vector<int>& sites = topo.ReplicaSites(partition);
  int leader = sites[0];
  std::vector<SimDuration> rtts;
  for (size_t r = 1; r < sites.size(); ++r) {
    rtts.push_back(m.Rtt(leader, sites[r]));
  }
  if (rtts.empty()) return 0;
  std::sort(rtts.begin(), rtts.end());
  // Majority = leader + floor(n/2) followers; the slowest of those followers
  // gates commitment.
  size_t needed = sites.size() / 2;  // followers needed beyond the leader
  return rtts[needed - 1];
}

Value NattoEngine::DebugValue(Key key) {
  int p = cluster_->topology().PartitionOfKey(key);
  return servers_[p]->kv()->Get(key).value;
}

}  // namespace natto::core
