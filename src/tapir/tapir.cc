#include "tapir/tapir.h"

#include <utility>

namespace natto::tapir {

namespace {

/// The keys of `read_versions`, in order.
std::vector<Key> KeysOf(
    const std::vector<std::pair<Key, uint64_t>>& read_versions) {
  std::vector<Key> keys;
  keys.reserve(read_versions.size());
  for (const auto& [k, v] : read_versions) keys.push_back(k);
  return keys;
}

}  // namespace

// ---------------------------------------------------------------------------
// TapirReplica
// ---------------------------------------------------------------------------

TapirReplica::TapirReplica(TapirEngine* engine, int partition, int replica,
                           int site, sim::NodeClock clock)
    : OccParticipant(engine->cluster(), partition, site, clock),
      engine_(engine) {
  obs::MetricsRegistry* m = engine->cluster()->metrics();
  const std::string prefix = "tapir.replica.p" + std::to_string(partition) +
                             ".r" + std::to_string(replica) + ".";
  prepare_vote_no_ = m->GetCounter(prefix + "prepare_vote_no");
}

void TapirReplica::HandleGet(TxnId id, std::vector<Key> keys,
                             net::NodeId reply_to) {
  std::vector<txn::ReadResult> results = txn::ReadAll(kv_, keys);
  auto* gw = engine_->gateway_by_node(reply_to);
  int partition = partition_;
  SendTo(reply_to, WireKvBytes(results.size()),
         [gw, id, partition, results]() {
           gw->HandleReadResults(id, partition, results);
         });
}

void TapirReplica::HandlePrepare(
    TxnId id, std::vector<std::pair<Key, uint64_t>> read_versions,
    std::vector<Key> write_keys, net::NodeId reply_to) {
  const std::vector<Key> read_keys = KeysOf(read_versions);
  // A stale read is refused like a conflict.
  obs::AbortCause cause = Check(id, read_keys, write_keys);
  if (cause == obs::AbortCause::kNone && !ReadsCurrent(read_versions)) {
    cause = obs::AbortCause::kOccConflict;
  }
  // A single no vote is not an abort (a prepare majority may still form),
  // so the cause travels with the vote and is attributed only when the
  // gateway actually decides to abort.
  const bool ok = cause == obs::AbortCause::kNone;
  if (ok) {
    prepared_.Add(id, read_keys, write_keys);
  } else {
    prepare_vote_no_->Inc();
  }
  auto* gw = engine_->gateway_by_node(reply_to);
  int partition = partition_;
  SendTo(reply_to, kMessageHeaderBytes, [gw, id, partition, ok, cause]() {
    gw->HandlePrepareVote(id, partition, ok, cause);
  });
}

void TapirReplica::HandleFinalizePrepare(
    TxnId id, std::vector<std::pair<Key, uint64_t>> read_versions,
    std::vector<Key> write_keys, net::NodeId reply_to) {
  // Adopt the majority decision even if local validation said no
  // (inconsistent replication: the consensus result overrides).
  if (!finished_.contains(id) && !prepared_.Contains(id)) {
    prepared_.Add(id, KeysOf(read_versions), write_keys);
  }
  auto* gw = engine_->gateway_by_node(reply_to);
  int partition = partition_;
  SendTo(reply_to, kMessageHeaderBytes,
         [gw, id, partition]() { gw->HandleFinalizeAck(id, partition); });
}

// ---------------------------------------------------------------------------
// TapirGateway
// ---------------------------------------------------------------------------

TapirGateway::TapirGateway(TapirEngine* engine, int site, sim::NodeClock clock)
    : GatewayCore(engine->cluster(), site, clock),
      engine_(engine),
      decisions_(engine->cluster()->metrics(),
                 "tapir.gateway.s" + std::to_string(site) + ".") {
  slow_path_starts_ = engine->cluster()->metrics()->GetCounter(
      "tapir.gateway.s" + std::to_string(site) + ".slow_path_starts");
}

void TapirGateway::StartTxn(const txn::TxnRequest& request,
                            txn::TxnCallback done) {
  const txn::Topology& topo = engine_->cluster()->topology();
  TapirTxn& st = Register(request, std::move(done),
                          txn::PriorityLevel(request.priority),
                          /*round1_span=*/true);
  st.participants = topo.Participants(request.read_set, request.write_set);

  // Read round: nearest replica of each partition holding read keys.
  std::vector<int> read_partitions = topo.Participants(request.read_set, {});
  st.awaiting.insert(read_partitions.begin(), read_partitions.end());
  TxnId id = request.id;

  if (read_partitions.empty()) {
    // Write-only transaction: go straight to the write computation.
    MaybeFinishRound1(id);
    return;
  }
  for (int p : read_partitions) {
    std::vector<Key> keys = topo.LocalKeys(request.read_set, p);
    int r = engine_->NearestReplica(p, site());
    auto* rep = engine_->replica(p, r);
    SendTo(rep->id(), WireKeysBytes(keys.size()),
           [rep, id, keys, reply = this->id()]() {
             rep->HandleGet(id, keys, reply);
           });
  }
}

void TapirGateway::SendRound2(TxnId id, TapirTxn& st,
                              const std::vector<txn::ReadResult>& /*ordered*/,
                              bool user_abort) {
  if (user_abort) {
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->AttributeAbort(id, obs::AbortCause::kUserAbort);
    }
    HandleDecision(id, txn::TxnOutcome::kUserAborted,
                   obs::AbortCause::kUserAbort);
    return;
  }
  for (int p : st.participants) {
    st.partitions[p] = PartitionState{};
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanBegin(id, "prepare", p, TrueNow());
    }
    SendFootprint(id, st, p, /*finalize=*/false);
  }
}

void TapirGateway::SendFootprint(TxnId id, TapirTxn& st, int p,
                                 bool finalize) {
  const txn::Topology& topo = engine_->cluster()->topology();
  std::vector<std::pair<Key, uint64_t>> read_versions;
  for (Key k : topo.LocalKeys(st.request.read_set, p)) {
    read_versions.emplace_back(k, st.reads[k].version);
  }
  std::vector<Key> write_keys = topo.LocalKeys(st.request.write_set, p);
  size_t bytes = WireKeysBytes(read_versions.size() + write_keys.size());
  for (int r = 0; r < topo.num_replicas(); ++r) {
    auto* rep = engine_->replica(p, r);
    SendTo(rep->id(), bytes,
           [rep, id, read_versions, write_keys, finalize,
            reply = this->id()]() {
             if (finalize) {
               rep->HandleFinalizePrepare(id, read_versions, write_keys,
                                          reply);
             } else {
               rep->HandlePrepare(id, read_versions, write_keys, reply);
             }
           });
  }
}

void TapirGateway::HandlePrepareVote(TxnId id, int partition, bool ok,
                                     obs::AbortCause cause) {
  TapirTxn* st = Find(id);
  if (st == nullptr) return;
  auto p = st->partitions.find(partition);
  if (p == st->partitions.end()) return;
  PartitionState& ps = p->second;
  if (ps.phase != PartitionPhase::kVoting) return;
  if (ok) {
    ++ps.ok_votes;
  } else {
    ++ps.fail_votes;
    if (st->fail_cause == obs::AbortCause::kNone) st->fail_cause = cause;
  }
  OnPartitionUpdate(id, partition);
}

void TapirGateway::OnPartitionUpdate(TxnId id, int partition) {
  TapirTxn* st = Find(id);
  if (st == nullptr) return;
  PartitionState& ps = st->partitions[partition];
  const int n = engine_->cluster()->topology().num_replicas();
  const int majority = n / 2 + 1;

  if (ps.phase == PartitionPhase::kVoting) {
    if (ps.ok_votes == n) {
      // Fast path: unanimous matching PREPARE-OK.
      ps.phase = PartitionPhase::kPreparedOk;
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->SpanEnd(id, "prepare", partition, TrueNow());
      }
    } else if (ps.fail_votes >= majority) {
      ps.phase = PartitionPhase::kAborted;
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->SpanEnd(id, "prepare", partition, TrueNow());
      }
    } else if (ps.ok_votes >= majority && ps.fail_votes > 0) {
      // Fast quorum impossible but a prepare majority exists: start the
      // slow path immediately (one consensus round to make it durable).
      ps.phase = PartitionPhase::kSlowPath;
      slow_path_starts_->Inc();
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->SpanBegin(id, "slow_path", partition, TrueNow());
      }
      SendFootprint(id, *st, partition, /*finalize=*/true);
    }
  }
  MaybeDecide(id);
}

void TapirGateway::HandleFinalizeAck(TxnId id, int partition) {
  TapirTxn* st = Find(id);
  if (st == nullptr) return;
  auto p = st->partitions.find(partition);
  if (p == st->partitions.end()) return;
  PartitionState& ps = p->second;
  if (ps.phase != PartitionPhase::kSlowPath) return;
  const txn::Topology& topo = engine_->cluster()->topology();
  if (++ps.finalize_acks >= topo.num_replicas() / 2 + 1) {
    ps.phase = PartitionPhase::kPreparedOk;
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanEnd(id, "slow_path", partition, TrueNow());
      tr->SpanEnd(id, "prepare", partition, TrueNow());
    }
  }
  MaybeDecide(id);
}

void TapirGateway::MaybeDecide(TxnId id) {
  TapirTxn* st = Find(id);
  if (st == nullptr) return;
  bool all_ok = true;
  for (int p : st->participants) {
    PartitionPhase phase = st->partitions[p].phase;
    if (phase == PartitionPhase::kAborted) {
      Decide(id, /*commit=*/false,
             st->fail_cause == obs::AbortCause::kNone
                 ? obs::AbortCause::kOccConflict
                 : st->fail_cause);
      return;
    }
    if (phase != PartitionPhase::kPreparedOk) all_ok = false;
  }
  if (all_ok) Decide(id, /*commit=*/true, obs::AbortCause::kNone);
}

void TapirGateway::Decide(TxnId id, bool commit, obs::AbortCause cause) {
  TapirTxn* st = Find(id);
  if (st == nullptr) return;
  obs::Tracer* tr = engine_->cluster()->tracer();
  decisions_.Record(tr, id, commit, TrueNow());
  if (tr != nullptr && !commit) tr->AttributeAbort(id, cause);

  const txn::Topology& topo = engine_->cluster()->topology();
  for (int p : st->participants) {
    for (int r = 0; r < topo.num_replicas(); ++r) {
      txn::SendOutcome(this, engine_->replica(p, r), id, commit, topo, p,
                       st->writes);
    }
  }
  // The decision fan-out is latency-critical: push any batched envelopes onto
  // the wire now instead of waiting for the max-delay timer. No-op when link
  // batching is off.
  transport()->Flush();

  HandleDecision(id,
                 commit ? txn::TxnOutcome::kCommitted
                        : txn::TxnOutcome::kAborted,
                 cause);
}

// ---------------------------------------------------------------------------
// TapirEngine
// ---------------------------------------------------------------------------

TapirEngine::TapirEngine(txn::Cluster* cluster)
    : EngineCore(cluster) {
  const txn::Topology& topo = cluster_->topology();
  replicas_.resize(topo.num_partitions());
  for (int p = 0; p < topo.num_partitions(); ++p) {
    for (int r = 0; r < topo.num_replicas(); ++r) {
      replicas_[p].push_back(std::make_unique<TapirReplica>(
          this, p, r, topo.ReplicaSites(p)[r], cluster_->MakeClock()));
    }
  }
  for (int s = 0; s < topo.num_sites(); ++s) {
    gateways_.Add(
        std::make_unique<TapirGateway>(this, s, cluster_->MakeClock()));
  }
}

int TapirEngine::NearestReplica(int partition, int site) const {
  const txn::Topology& topo = cluster_->topology();
  const net::LatencyMatrix& m = cluster_->matrix();
  int best = 0;
  SimDuration best_d = m.OneWay(site, topo.ReplicaSites(partition)[0]);
  for (int r = 1; r < topo.num_replicas(); ++r) {
    SimDuration d = m.OneWay(site, topo.ReplicaSites(partition)[r]);
    if (d < best_d) {
      best_d = d;
      best = r;
    }
  }
  return best;
}

Value TapirEngine::DebugValue(Key key) {
  int p = cluster_->topology().PartitionOfKey(key);
  return replicas_[p][0]->kv()->Get(key).value;
}

}  // namespace natto::tapir

