#include "spanner/spanner.h"

#include <utility>

namespace natto::spanner {

namespace {

/// Deadlock safety net: a request still waiting after this long applies
/// pure age-based wound-wait to its blockers, overriding the
/// priority-suppression rules. Needed because POW's "is the holder waiting"
/// predicate is partition-local, which leaves cross-partition cycles
/// undetected (real deployments run a deadlock detector here).
constexpr SimDuration kDeadlockProbe = Seconds(2);

/// Wound-wait age comparison: smaller (ts, id) is older.
bool Older(SimTime ts_a, TxnId id_a, SimTime ts_b, TxnId id_b) {
  if (ts_a != ts_b) return ts_a < ts_b;
  return id_a < id_b;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpannerServer
// ---------------------------------------------------------------------------

SpannerServer::SpannerServer(SpannerEngine* engine, int partition, int site,
                             sim::NodeClock clock)
    : net::Node(engine->cluster()->transport(), site, clock),
      engine_(engine),
      partition_(partition),
      kv_(engine->cluster()->options().default_value) {
  obs::MetricsRegistry* m = engine->cluster()->metrics();
  const std::string prefix = "spanner.p" + std::to_string(partition) + ".";
  wounds_issued_ = m->GetCounter(prefix + "wounds_issued");
  stale_vote_no_ = m->GetCounter(prefix + "stale_vote_no");
  locks_.RegisterMetrics(m, prefix + "locks");
}

int SpannerServer::LockPriority(const SpannerTxnMeta& meta) const {
  if (engine_->options().policy == PreemptPolicy::kNone) return 0;
  return txn::PriorityLevel(meta.priority);
}

void SpannerServer::HandleReadLock(const SpannerTxnMeta& meta,
                                   std::vector<Key> keys) {
  if (finished_.contains(meta.id)) return;  // wounded before arrival
  LocalTxn& lt = txns_[meta.id];
  lt.meta = meta;
  lt.read_keys = keys;
  TxnId id = meta.id;
  engine_->cluster()->tracer()->SpanBegin(id, "read_lock", partition_);
  AcquireAll(id, keys, store::LockMode::kShared,
             [this, id]() { ServeReads(id); });
}

void SpannerServer::AcquireAll(TxnId id, const std::vector<Key>& keys,
                               store::LockMode mode,
                               std::function<void()> when_all) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  LocalTxn& lt = it->second;
  if (keys.empty()) {
    when_all();
    return;
  }
  lt.outstanding_grants = static_cast<int>(keys.size());
  SpannerTxnMeta meta = lt.meta;
  int prio = LockPriority(meta);
  for (Key k : keys) {
    auto granted_cb = [this, id, when_all]() {
      auto it2 = txns_.find(id);
      if (it2 == txns_.end()) return;
      if (--it2->second.outstanding_grants == 0) when_all();
    };
    store::LockTable::AcquireResult res =
        locks_.Acquire(k, id, mode, prio, meta.ts, granted_cb);
    if (res.granted) {
      auto it2 = txns_.find(id);
      if (it2 == txns_.end()) return;  // wounded re-entrantly
      if (--it2->second.outstanding_grants == 0) {
        when_all();
        // `when_all` may erase the txn; stop touching state.
        if (!txns_.contains(id)) return;
      }
    } else {
      ResolveBlockers(meta, res.blockers);
      if (!txns_.contains(id)) return;  // self got wounded during resolution
      After(kDeadlockProbe, [this, id, k]() { DeadlockProbe(id, k); });
    }
  }
  // This transaction may now be waiting; under POW that makes it eligible
  // for preemption by high-priority requesters already queued behind its
  // holds (preemption decisions would otherwise never be re-evaluated,
  // leaving a deadlock window).
  MaybePreemptNowWaiting(id);
}

void SpannerServer::DeadlockProbe(TxnId id, Key key) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  if (!locks_.IsWaiting(id)) return;
  const SpannerTxnMeta& meta = it->second.meta;
  bool still_blocked = false;
  for (const store::LockTable::HolderInfo& h : locks_.Holders(key)) {
    if (h.txn == id) continue;
    still_blocked = true;
    auto vt = txns_.find(h.txn);
    if (vt == txns_.end()) continue;
    if (Older(meta.ts, meta.id, vt->second.meta.ts, vt->second.meta.id)) {
      WoundLocal(h.txn);
    }
  }
  if (still_blocked) {
    After(kDeadlockProbe, [this, id, key]() { DeadlockProbe(id, key); });
  }
}

void SpannerServer::MaybePreemptNowWaiting(TxnId id) {
  if (engine_->options().policy != PreemptPolicy::kPreemptOnWait) return;
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  int my_level = txn::PriorityLevel(it->second.meta.priority);
  if (!locks_.IsWaiting(id)) return;
  for (Key k : locks_.HeldKeys(id)) {
    for (const store::LockTable::HolderInfo& w : locks_.Waiters(k)) {
      if (w.priority > my_level) {  // a higher-priority txn is blocked on us
        WoundLocal(id);
        return;
      }
    }
  }
}

void SpannerServer::ResolveBlockers(const SpannerTxnMeta& meta,
                                    const std::vector<TxnId>& blockers) {
  PreemptPolicy policy = engine_->options().policy;
  for (TxnId b : blockers) {
    auto it = txns_.find(b);
    if (it == txns_.end()) continue;
    LocalTxn& victim = it->second;

    int req_level = txn::PriorityLevel(meta.priority);
    int vic_level = txn::PriorityLevel(victim.meta.priority);

    bool wound;
    if (policy == PreemptPolicy::kNone) {
      // Plain wound-wait: an older requester wounds younger holders,
      // priorities ignored.
      wound = Older(meta.ts, meta.id, victim.meta.ts, victim.meta.id);
    } else if (req_level > vic_level) {
      // (P): always preempt a conflicting lower-priority holder.
      // (POW) [38]: only if that holder is itself waiting for another lock.
      wound = policy == PreemptPolicy::kPreempt || locks_.IsWaiting(b);
    } else if (req_level < vic_level) {
      // Prioritizing policies never let a low-priority transaction kill a
      // high-priority one; deadlock cycles through this edge are broken by
      // the high->low preemption above (any low in a cycle is waiting).
      wound = false;
    } else {
      wound = Older(meta.ts, meta.id, victim.meta.ts, victim.meta.id);
    }
    if (wound) WoundLocal(b);
  }
}

void SpannerServer::WoundLocal(TxnId victim) {
  auto it = txns_.find(victim);
  if (it == txns_.end()) return;
  wounds_issued_->Inc();
  // The wound is not yet a definite abort (the coordinator ignores it if
  // the transaction already committed), so only an instant is recorded;
  // cause attribution happens at the coordinator's decision.
  engine_->cluster()->tracer()->Instant(victim, "wound", partition_);
  // A participant cannot unilaterally abort a transaction that may be
  // prepared elsewhere: the wound is routed through the victim's
  // coordinator, which aborts it globally iff it has not committed yet.
  // Lock release happens when the abort message comes back (this WAN round
  // trip is exactly the "distributed preemption" cost the paper's intro
  // calls out, and what makes Natto's local priority abort cheaper).
  SpannerTxnMeta meta = it->second.meta;
  auto* co = engine_->coordinator_by_node(meta.coordinator);
  SendTo(meta.coordinator, kMessageHeaderBytes,
         [co, victim]() { co->HandleWound(victim); });
}

void SpannerServer::ServeReads(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  LocalTxn& lt = it->second;
  if (lt.reads_served) return;
  lt.reads_served = true;
  engine_->cluster()->tracer()->SpanEnd(id, "read_lock", partition_);
  std::vector<txn::ReadResult> results = txn::ReadAll(kv_, lt.read_keys);
  auto* gw = engine_->gateway_by_node(lt.meta.client);
  int partition = partition_;
  SendTo(lt.meta.client, WireKvBytes(results.size()),
         [gw, id, partition, results]() {
           gw->HandleReadResults(id, partition, results);
         });
}

void SpannerServer::HandlePrepare(const SpannerTxnMeta& meta,
                                  std::vector<std::pair<Key, Value>> writes) {
  if (finished_.contains(meta.id)) {
    // Wounded before the prepare arrived: vote no.
    stale_vote_no_->Inc();
    auto* co = engine_->coordinator_by_node(meta.coordinator);
    int partition = partition_;
    TxnId id = meta.id;
    SendTo(meta.coordinator, kMessageHeaderBytes, [co, id, partition]() {
      co->HandleVote(id, partition, /*ok=*/false, obs::AbortCause::kWound);
    });
    return;
  }
  LocalTxn& lt = txns_[meta.id];  // created here for write-only participants
  lt.meta = meta;
  lt.writes = std::move(writes);
  engine_->cluster()->tracer()->SpanBegin(meta.id, "prepare", partition_);
  std::vector<Key> write_keys;
  write_keys.reserve(lt.writes.size());
  for (const auto& [k, v] : lt.writes) write_keys.push_back(k);
  TxnId id = meta.id;
  AcquireAll(id, write_keys, store::LockMode::kExclusive,
             [this, id]() { FinishPrepare(id); });
}

void SpannerServer::FinishPrepare(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  LocalTxn& lt = it->second;
  auto vote = [this, id, coord = lt.meta.coordinator]() {
    engine_->cluster()->tracer()->SpanEnd(id, "prepare", partition_);
    auto* co = engine_->coordinator_by_node(coord);
    int partition = partition_;
    SendTo(coord, kMessageHeaderBytes, [co, id, partition]() {
      co->HandleVote(id, partition, /*ok=*/true);
    });
  };
  if (lt.writes.empty()) {
    // Read-only participant: nothing to make durable.
    vote();
    return;
  }
  engine_->cluster()->group(partition_)->Propose(
      id, vote,
      [this, id, coord = lt.meta.coordinator](bool timed_out) {
        // Prepare record lost to a leader failure: vote no and let the
        // coordinator's abort clean up our lock/txn state.
        engine_->cluster()->tracer()->SpanEnd(id, "prepare", partition_);
        auto* co = engine_->coordinator_by_node(coord);
        int partition = partition_;
        obs::AbortCause cause = txn::LostProposalCause(timed_out);
        SendTo(coord, kMessageHeaderBytes, [co, id, partition, cause]() {
          co->HandleVote(id, partition, /*ok=*/false, cause);
        });
      });
}

void SpannerServer::HandleCommit(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  if (it->second.writes.empty()) {
    locks_.ReleaseAll(id);
    txns_.erase(it);
    finished_.insert(id);
    return;
  }
  // The decision is already fixed, so the commit record must eventually
  // replicate even across leader changes.
  engine_->cluster()->group(partition_)->ProposeWithRetry(
      id, [this, id]() {
        auto it2 = txns_.find(id);
        if (it2 == txns_.end()) return;
        for (const auto& [k, v] : it2->second.writes) kv_.Apply(k, v, id);
        txns_.erase(it2);
        finished_.insert(id);
        locks_.ReleaseAll(id);
      });
}

void SpannerServer::HandleAbort(TxnId id) {
  txns_.erase(id);
  finished_.insert(id);
  locks_.ReleaseAll(id);
}


// ---------------------------------------------------------------------------
// SpannerCoordinator
// ---------------------------------------------------------------------------

SpannerCoordinator::SpannerCoordinator(SpannerEngine* engine, int site,
                                       sim::NodeClock clock)
    : CoordinatorCore(engine->cluster(), site, clock, "spanner",
                      obs::AbortCause::kWound),
      engine_(engine) {
  wounds_received_ =
      engine->cluster()->metrics()->GetCounter(metric_prefix() +
                                               "wounds_received");
}

void SpannerCoordinator::HandleBegin(const SpannerTxnMeta& meta,
                                     std::vector<int> participants) {
  CoordinatorTxn* st = Begin(meta.id, engine_->gateway_by_node(meta.client),
                             std::move(participants));
  if (st == nullptr) return;
  st->meta = meta;
  MaybeDecide(meta.id);
}

void SpannerCoordinator::HandleRound2(TxnId id,
                                      std::vector<std::pair<Key, Value>> writes,
                                      bool user_abort) {
  CoordinatorTxn* st = Lazy(id);
  if (st == nullptr) return;
  st->have_round2 = true;
  if (user_abort) {
    st->user_abort = true;
  } else {
    st->writes = std::move(writes);
  }
  MaybeDecide(id);
}

void SpannerCoordinator::HandleVote(TxnId id, int partition, bool ok,
                                    obs::AbortCause cause) {
  if (!ok) {
    Refuse(id, cause);
    return;
  }
  CoordinatorTxn* st = Lazy(id);
  if (st == nullptr) return;
  st->ok_votes.insert(partition);
  MaybeCommit(id);
}

void SpannerCoordinator::HandleWound(TxnId id) {
  CoordinatorTxn* st = Lazy(id);
  if (st == nullptr) return;
  wounds_received_->Inc();
  // A wound that overtakes Begin (possible under jitter) aborts the
  // transaction as soon as Begin arrives.
  Fail(*st, obs::AbortCause::kWound);
  MaybeDecide(id);
}

void SpannerCoordinator::TryDecide(TxnId id, CoordinatorTxn& st) {
  if (st.failed) {
    Decide(id, /*commit=*/false, RefusalCause(st));
    return;
  }
  if (st.user_abort) {
    Decide(id, /*commit=*/false, obs::AbortCause::kUserAbort);
    return;
  }
  if (st.have_round2 && !st.prepare_started) {
    st.prepare_started = true;
    const txn::Topology& topo = engine_->cluster()->topology();
    for (int p : st.participants) {
      std::vector<std::pair<Key, Value>> local =
          topo.LocalEntries(st.writes, p);
      auto* srv = engine_->server(p);
      SpannerTxnMeta meta = st.meta;
      SendTo(srv->id(), WireKvBytes(local.size()),
             [srv, meta, local]() { srv->HandlePrepare(meta, local); });
    }
  }
  MaybeCommit(id);
}

void SpannerCoordinator::MaybeCommit(TxnId id) {
  CoordinatorTxn* st = Find(id);
  if (st == nullptr || !st->begun || !st->prepare_started) return;
  if (st->ok_votes.size() != st->participants.size()) return;
  if (st->writes.empty()) {
    Decide(id, /*commit=*/true, obs::AbortCause::kNone);
    return;
  }
  // Replicate the commit decision + write data at the coordinator, then
  // commit (the sequential step Carousel overlaps).
  ProposeLocal(id, [this, id]() {
    Decide(id, /*commit=*/true, obs::AbortCause::kNone);
  });
}

void SpannerCoordinator::FanOut(TxnId id, const CoordinatorTxn& st,
                                bool commit) {
  for (int p : st.participants) {
    auto* srv = engine_->server(p);
    if (commit) {
      SendTo(srv->id(), kMessageHeaderBytes,
             [srv, id]() { srv->HandleCommit(id); });
    } else {
      SendTo(srv->id(), kMessageHeaderBytes,
             [srv, id]() { srv->HandleAbort(id); });
    }
  }
}

// ---------------------------------------------------------------------------
// SpannerGateway
// ---------------------------------------------------------------------------

SpannerGateway::SpannerGateway(SpannerEngine* engine, int site,
                               sim::NodeClock clock)
    : GatewayCore(engine->cluster(), site, clock), engine_(engine) {}

void SpannerGateway::StartTxn(const txn::TxnRequest& request,
                              txn::TxnCallback done) {
  const txn::Topology& topo = engine_->cluster()->topology();
  auto* coord = engine_->coordinator_at(site());

  SpannerTxnMeta meta;
  meta.id = request.id;
  meta.priority = request.priority;
  meta.ts = LocalNow();
  meta.coordinator = coord->id();
  meta.client = id();

  std::vector<int> participants =
      topo.Participants(request.read_set, request.write_set);
  std::vector<int> read_partitions = topo.Participants(request.read_set, {});

  txn::ClientTxn& st = Register(request, std::move(done),
                                txn::PriorityLevel(request.priority),
                                /*round1_span=*/true);
  st.awaiting.insert(read_partitions.begin(), read_partitions.end());
  TxnId id = request.id;

  SendTo(coord->id(), kMessageHeaderBytes, [coord, meta, participants]() {
    coord->HandleBegin(meta, participants);
  });

  if (read_partitions.empty()) {
    MaybeFinishRound1(id);
    return;
  }
  for (int p : read_partitions) {
    std::vector<Key> keys = topo.LocalKeys(request.read_set, p);
    auto* srv = engine_->server(p);
    SendTo(srv->id(), WireKeysBytes(keys.size()),
           [srv, meta, keys]() { srv->HandleReadLock(meta, keys); });
  }
}

void SpannerGateway::SendRound2(
    TxnId id, txn::ClientTxn& st,
    const std::vector<txn::ReadResult>& /*ordered*/, bool user_abort) {
  auto* coord = engine_->coordinator_at(site());
  if (user_abort) {
    SendTo(coord->id(), kMessageHeaderBytes, [coord, id]() {
      coord->HandleRound2(id, {}, /*user_abort=*/true);
    });
    return;
  }
  SendTo(coord->id(), txn::kRound2Bytes,
         [coord, id, writes = st.writes]() {
           coord->HandleRound2(id, writes, /*user_abort=*/false);
         });
}

// ---------------------------------------------------------------------------
// SpannerEngine
// ---------------------------------------------------------------------------

SpannerEngine::SpannerEngine(txn::Cluster* cluster, SpannerOptions options)
    : EngineCore(cluster), options_(options) {
  const txn::Topology& topo = cluster_->topology();
  for (int p = 0; p < topo.num_partitions(); ++p) {
    servers_.push_back(std::make_unique<SpannerServer>(
        this, p, topo.LeaderSite(p), cluster_->MakeClock()));
  }
  for (int s = 0; s < topo.num_sites(); ++s) {
    coordinators_.Add(std::make_unique<SpannerCoordinator>(
        this, cluster_->CoordinatorSite(s), cluster_->MakeClock()));
    gateways_.Add(
        std::make_unique<SpannerGateway>(this, s, cluster_->MakeClock()));
  }
}

std::string SpannerEngine::name() const {
  switch (options_.policy) {
    case PreemptPolicy::kNone:
      return "2PL+2PC";
    case PreemptPolicy::kPreempt:
      return "2PL+2PC(P)";
    case PreemptPolicy::kPreemptOnWait:
      return "2PL+2PC(POW)";
  }
  return "2PL+2PC";
}

Value SpannerEngine::DebugValue(Key key) {
  int p = cluster_->topology().PartitionOfKey(key);
  return servers_[p]->kv()->Get(key).value;
}

}  // namespace natto::spanner
