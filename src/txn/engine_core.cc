#include "txn/engine_core.h"

namespace natto::txn {

DecisionCounters::DecisionCounters(obs::MetricsRegistry* metrics,
                                   const std::string& prefix)
    : commits_(metrics->GetCounter(prefix + "commits")),
      aborts_(metrics->GetCounter(prefix + "aborts")) {}

void DecisionCounters::Record(obs::Tracer* tracer, TxnId id, bool commit,
                              SimTime now) {
  (commit ? commits_ : aborts_)->Inc();
  if (tracer != nullptr) {
    tracer->Instant(id, commit ? "decide_commit" : "decide_abort", -1, now);
  }
}

std::vector<ReadResult> ReadAll(const store::KvStore& kv,
                                const std::vector<Key>& keys) {
  std::vector<ReadResult> results;
  results.reserve(keys.size());
  for (Key k : keys) {
    store::VersionedValue v = kv.Get(k);
    results.push_back(ReadResult{k, v.value, v.version});
  }
  return results;
}

// ---------------------------------------------------------------------------
// GatewayBase
// ---------------------------------------------------------------------------

GatewayBase::GatewayBase(Cluster* cluster, int site, sim::NodeClock clock)
    : net::Node(cluster->transport(), site, clock), cluster_(cluster) {}

void GatewayBase::TraceBegin(TxnId id, int level, bool round1_span) {
  obs::Tracer* tr = cluster_->tracer();
  if (tr == nullptr) return;
  tr->TxnBegin(id, level, TrueNow());
  if (round1_span) tr->SpanBegin(id, "round1", /*partition=*/-1, TrueNow());
}

std::vector<ReadResult> GatewayBase::OrderedReads(const ClientTxn& st) {
  std::vector<ReadResult> ordered;
  ordered.reserve(st.request.read_set.size());
  for (Key k : st.request.read_set) {
    auto r = st.reads.find(k);
    NATTO_CHECK(r != st.reads.end()) << "missing read result for key " << k;
    ordered.push_back(r->second);
  }
  return ordered;
}

void GatewayBase::Finish(ClientTxn& st, TxnOutcome outcome,
                         obs::AbortCause cause) {
  const bool committed = outcome == TxnOutcome::kCommitted;
  if (obs::Tracer* tr = cluster_->tracer()) {
    const char* name = committed ? "committed"
                       : outcome == TxnOutcome::kUserAborted ? "user_aborted"
                                                             : "aborted";
    tr->TxnEnd(st.request.id, name, cause, TrueNow());
  }
  TxnResult result;
  result.outcome = outcome;
  result.abort_cause = committed ? obs::AbortCause::kNone : cause;
  if (committed) {
    for (Key k : st.request.read_set) {
      auto r = st.reads.find(k);
      if (r != st.reads.end()) result.reads.push_back(r->second);
    }
    result.writes = std::move(st.writes);
  }
  st.done(result);
}

// ---------------------------------------------------------------------------
// CoordinatorBase
// ---------------------------------------------------------------------------

CoordinatorBase::CoordinatorBase(Cluster* cluster, int site,
                                 sim::NodeClock clock,
                                 raft::PayloadIdAllocator* payload_ids,
                                 const std::string& family,
                                 obs::AbortCause default_refusal)
    : net::Node(cluster->transport(), site, clock),
      cluster_(cluster),
      payload_ids_(payload_ids),
      metric_prefix_(family + ".coord.s" + std::to_string(site) + "."),
      decisions_(cluster->metrics(), metric_prefix_),
      default_refusal_(default_refusal) {}

void CoordinatorBase::Fail(CoordTxn& st, obs::AbortCause cause) {
  st.failed = true;
  if (st.fail_cause == obs::AbortCause::kNone) st.fail_cause = cause;
}

obs::AbortCause CoordinatorBase::RefusalCause(const CoordTxn& st) const {
  return st.fail_cause == obs::AbortCause::kNone ? default_refusal_
                                                 : st.fail_cause;
}

void CoordinatorBase::Announce(TxnId id, bool commit, const CoordTxn& st,
                               obs::AbortCause cause) {
  decisions_.Record(cluster_->tracer(), id, commit, TrueNow());
  const TxnOutcome outcome = commit          ? TxnOutcome::kCommitted
                             : st.user_abort ? TxnOutcome::kUserAborted
                                             : TxnOutcome::kAborted;
  GatewayBase* gw = st.client;
  SendTo(gw->id(), kMessageHeaderBytes, [gw, id, outcome, cause]() {
    gw->HandleDecision(id, outcome, cause);
  });
}

void CoordinatorBase::ProposeLocal(TxnId id,
                                   std::function<void()> on_committed) {
  const int local_partition = cluster_->topology().PartitionLedAt(site());
  NATTO_CHECK(local_partition >= 0);
  cluster_->group(local_partition)
      ->Propose(payload_ids_->Next(), std::move(on_committed),
                [this, id](bool timed_out) {
                  Refuse(id, timed_out ? obs::AbortCause::kLeaderFailover
                                       : obs::AbortCause::kReplicationFailed);
                });
}

}  // namespace natto::txn
