#include "txn/engine_core.h"

namespace natto::txn {

DecisionCounters::DecisionCounters(Cluster* cluster, const std::string& prefix)
    : tracer_(cluster->tracer()),
      commits_(cluster->metrics()->GetCounter(prefix + "commits")),
      aborts_(cluster->metrics()->GetCounter(prefix + "aborts")) {}

void DecisionCounters::Record(TxnId id, bool commit) {
  (commit ? commits_ : aborts_)->Inc();
  tracer_->Instant(id, commit ? "decide_commit" : "decide_abort", -1);
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
  const char* name = committed ? "committed"
                     : outcome == TxnOutcome::kUserAborted ? "user_aborted"
                                                           : "aborted";
  cluster_->tracer()->TxnEnd(st.request.id, name, cause);
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
// OccParticipant
// ---------------------------------------------------------------------------

OccParticipant::OccParticipant(Cluster* cluster, int partition, int site,
                               sim::NodeClock clock)
    : net::Node(cluster->transport(), site, clock),
      partition_(partition),
      kv_(cluster->options().default_value) {}

void OccParticipant::HandleCommit(
    TxnId id, const std::vector<std::pair<Key, Value>>& writes) {
  if (finished_.contains(id)) return;
  for (const auto& [k, v] : writes) kv_.Apply(k, v, id);
  prepared_.Remove(id);
  finished_.insert(id);
}

void OccParticipant::HandleAbort(TxnId id) {
  prepared_.Remove(id);
  finished_.insert(id);
}

obs::AbortCause OccParticipant::Check(TxnId id, const std::vector<Key>& reads,
                                      const std::vector<Key>& writes) const {
  if (finished_.contains(id)) return obs::AbortCause::kStaleRetry;
  return prepared_.HasConflict(reads, writes) ? obs::AbortCause::kOccConflict
                                              : obs::AbortCause::kNone;
}

bool OccParticipant::ReadsCurrent(
    const std::vector<std::pair<Key, uint64_t>>& read_versions) const {
  for (const auto& [k, version] : read_versions) {
    if (kv_.Get(k).version > version) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// CoordinatorBase
// ---------------------------------------------------------------------------

CoordinatorBase::CoordinatorBase(Cluster* cluster, int site,
                                 sim::NodeClock clock,
                                 const std::string& family,
                                 obs::AbortCause default_refusal)
    : net::Node(cluster->transport(), site, clock),
      cluster_(cluster),
      metric_prefix_(family + ".coord.s" + std::to_string(site) + "."),
      decisions_(cluster, metric_prefix_),
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
  decisions_.Record(id, commit);
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
      ->Propose(id, std::move(on_committed), [this, id](bool timed_out) {
        Refuse(id, LostProposalCause(timed_out));
      });
}

}  // namespace natto::txn
