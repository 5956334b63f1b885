#ifndef NATTO_TXN_ENGINE_CORE_H_
#define NATTO_TXN_ENGINE_CORE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/txn_id_set.h"
#include "common/types.h"
#include "net/node.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "store/kv_store.h"
#include "store/prepared_set.h"
#include "txn/cluster.h"
#include "txn/transaction.h"

// The scaffolding the engines share. Natto is built on Carousel's basic
// protocol, so Carousel, Spanner and Natto run the same 2PC coordinator
// (CoordinatorCore), and all four engines run the same client library
// (GatewayCore). The OCC replicas of Carousel Basic, Carousel Fast and
// TAPIR share one participant (OccParticipant). Each engine keeps only its
// protocol hooks: votes and fast/slow paths, wounds, conditional prepare
// and RECSF.

namespace natto::txn {

/// `<prefix>commits` / `<prefix>aborts` plus the decide_commit /
/// decide_abort trace instant, recorded once per decision by the node that
/// decides.
class DecisionCounters {
 public:
  DecisionCounters(obs::MetricsRegistry* metrics, const std::string& prefix);

  void Record(obs::Tracer* tracer, TxnId id, bool commit, SimTime now);

 private:
  obs::Counter* commits_;
  obs::Counter* aborts_;
};

/// Round-1 results for `keys` from `kv`, in order.
std::vector<ReadResult> ReadAll(const store::KvStore& kv,
                                const std::vector<Key>& keys);

/// Wire size of a round-2 message before any per-engine extras: the header
/// only. The write values were never counted on the wire, and the goldens
/// and benchmark ceilings pin that size.
inline constexpr size_t kRound2Bytes = kMessageHeaderBytes;

/// Per-attempt state every gateway keeps. Engines derive from it to add
/// their own.
struct ClientTxn {
  TxnRequest request;
  TxnCallback done;
  std::unordered_map<Key, ReadResult> reads;
  std::vector<std::pair<Key, Value>> writes;
  /// Partitions whose round-1 reads are still outstanding.
  std::unordered_set<int> awaiting;
  bool sent_round2 = false;
};

/// The part of a gateway a coordinator talks to, plus the helpers that do
/// not depend on the engine's ClientTxn type.
class GatewayBase : public net::Node {
 public:
  GatewayBase(Cluster* cluster, int site, sim::NodeClock clock);

  /// Ends the attempt with the coordinator's decision; a no-op once the
  /// attempt has ended.
  virtual void HandleDecision(TxnId id, TxnOutcome outcome,
                              obs::AbortCause cause) = 0;

 protected:
  /// Opens the attempt's trace at priority `level`, with the round-1 span
  /// when `round1_span`.
  void TraceBegin(TxnId id, int level, bool round1_span);

  /// Round-1 reads in read-set order; every read must have arrived.
  static std::vector<ReadResult> OrderedReads(const ClientTxn& st);

  /// Records TxnEnd and hands `done` its result: the reads and writes of a
  /// committed attempt, the abort cause of any other.
  void Finish(ClientTxn& st, TxnOutcome outcome, obs::AbortCause cause);

  Cluster* cluster_;
};

/// Client library: the per-attempt table, round 1 (reads from every awaited
/// partition), the client's write computation, and the finish. `T` is the
/// engine's per-attempt state.
template <typename T = ClientTxn>
class GatewayCore : public GatewayBase {
 public:
  using GatewayBase::GatewayBase;

  /// Round-1 reads from `partition`. Duplicates (a fast path's extra
  /// replicas) and reads for ended attempts are dropped.
  void HandleReadResults(TxnId id, int partition,
                         std::vector<ReadResult> reads) {
    T* st = Find(id);
    if (st == nullptr || st->awaiting.erase(partition) == 0) return;
    for (const ReadResult& r : reads) st->reads[r.key] = r;
    MaybeFinishRound1(id);
  }

  void HandleDecision(TxnId id, TxnOutcome outcome,
                      obs::AbortCause cause) override {
    auto it = txns_.find(id);
    if (it == txns_.end()) return;
    T st = std::move(it->second);
    txns_.erase(it);
    Finish(st, outcome, cause);
  }

 protected:
  /// Registers a new attempt and opens its trace.
  T& Register(const TxnRequest& request, TxnCallback done, int level,
              bool round1_span) {
    TraceBegin(request.id, level, round1_span);
    T& st = txns_[request.id];
    st.request = request;
    st.done = std::move(done);
    return st;
  }

  T* Find(TxnId id) {
    auto it = txns_.find(id);
    return it == txns_.end() ? nullptr : &it->second;
  }

  /// Once every awaited partition has answered, closes round 1 and runs
  /// round 2 (at most once per attempt).
  void MaybeFinishRound1(TxnId id) {
    T* st = Find(id);
    if (st == nullptr || !st->awaiting.empty() || st->sent_round2) return;
    st->sent_round2 = true;
    if (obs::Tracer* tr = cluster_->tracer()) {
      tr->SpanEnd(id, "round1", /*partition=*/-1, TrueNow());
    }
    ComputeRound2(id, *st);
  }

  /// Runs the client's write computation over the reads in read-set order,
  /// keeps the writes unless the client aborts, and hands both to
  /// SendRound2.
  void ComputeRound2(TxnId id, T& st) {
    const std::vector<ReadResult> ordered = OrderedReads(st);
    WriteDecision d = st.request.compute_writes(ordered);
    if (!d.user_abort) st.writes = std::move(d.writes);
    SendRound2(id, st, ordered, d.user_abort);
  }

  /// Protocol hook: ships round 2 (`st.writes`, computed from `ordered`) or
  /// the client's abort.
  virtual void SendRound2(TxnId id, T& st,
                          const std::vector<ReadResult>& ordered,
                          bool user_abort) = 0;

 private:
  std::unordered_map<TxnId, T> txns_;
};

/// Sends the decision on `id` from `from` to participant node `to`: a commit
/// carrying the writes whose keys live on `partition`, or an abort.
template <typename Participant>
void SendOutcome(net::Node* from, Participant* to, TxnId id, bool commit,
                 const Topology& topo, int partition,
                 const std::vector<std::pair<Key, Value>>& writes) {
  if (commit) {
    auto local = topo.LocalEntries(writes, partition);
    from->SendTo(to->id(), WireKvBytes(local.size()),
                 [to, id, local]() { to->HandleCommit(id, local); });
  } else {
    from->SendTo(to->id(), kMessageHeaderBytes,
                 [to, id]() { to->HandleAbort(id); });
  }
}

/// One partition replica of an OCC engine (Carousel Basic and Fast, TAPIR):
/// the committed store, the footprints of the transactions prepared here
/// (the keys each reads and writes on this partition), the tombstones of
/// the finished ones, and the OCC rules over them. Engines derive from it
/// and keep their message flow, Raft calls and counters.
class OccParticipant : public net::Node {
 public:
  /// Applies the writes, drops the footprint and tombstones the id; a no-op
  /// once the id has finished.
  void HandleCommit(TxnId id,
                    const std::vector<std::pair<Key, Value>>& writes);

  /// Drops the footprint and tombstones the id.
  void HandleAbort(TxnId id);

  const store::KvStore* kv() const { return &kv_; }

 protected:
  OccParticipant(Cluster* cluster, int partition, int site,
                 sim::NodeClock clock);

  /// Why `id` may not prepare this footprint: kStaleRetry once the id has
  /// finished here (a late message), else kOccConflict when the footprint
  /// conflicts with a prepared one, else kNone.
  obs::AbortCause Check(TxnId id, const std::vector<Key>& reads,
                        const std::vector<Key>& writes) const;

  /// True iff no key was read at a version older than the committed one.
  bool ReadsCurrent(
      const std::vector<std::pair<Key, uint64_t>>& read_versions) const;

  int partition_;
  store::KvStore kv_;
  store::PreparedSet prepared_;
  TxnIdSet finished_;
};

/// Per-transaction state every 2PC coordinator keeps. Engines derive from
/// it to add their votes.
struct CoordTxn {
  /// Votes and round-2 messages can overtake Begin under network jitter and
  /// create the state first; no decision is made until Begin arrives.
  bool begun = false;
  GatewayBase* client = nullptr;
  std::vector<int> participants;
  /// A participant refused or replication failed. `fail_cause` is the first
  /// definite abort cause (see CoordinatorBase::Fail).
  bool failed = false;
  obs::AbortCause fail_cause = obs::AbortCause::kNone;
  bool user_abort = false;
  std::vector<std::pair<Key, Value>> writes;
};

/// The abort cause of a replication proposal that never committed:
/// kLeaderFailover when the accepting leader died or was deposed first
/// (`timed_out`, see RaftGroup::Propose), kReplicationFailed when no live
/// leader accepted it.
inline obs::AbortCause LostProposalCause(bool timed_out) {
  return timed_out ? obs::AbortCause::kLeaderFailover
                   : obs::AbortCause::kReplicationFailed;
}

/// The part of a coordinator that does not depend on the engine's CoordTxn
/// type: decision counters, the client notification and local replication.
class CoordinatorBase : public net::Node {
 protected:
  /// Registers `<family>.coord.s<site>.{commits,aborts}`. A refusal that
  /// carried no cause is attributed to `default_refusal`.
  CoordinatorBase(Cluster* cluster, int site, sim::NodeClock clock,
                  const std::string& family,
                  obs::AbortCause default_refusal = obs::AbortCause::kNone);

  /// `<family>.coord.s<site>.`, for the engine's own counters.
  const std::string& metric_prefix() const { return metric_prefix_; }

  /// Marks `st` failed. The first definite cause wins; later ones are
  /// ignored.
  static void Fail(CoordTxn& st, obs::AbortCause cause);

  /// The cause an abort of failed `st` reports.
  obs::AbortCause RefusalCause(const CoordTxn& st) const;

  /// Counts and traces the decision, then sends it to the client.
  void Announce(TxnId id, bool commit, const CoordTxn& st,
                obs::AbortCause cause);

  /// Makes decision data durable in the Raft group of the partition led at
  /// this site. A lost proposal refuses the transaction with
  /// LostProposalCause.
  void ProposeLocal(TxnId id, std::function<void()> on_committed);

  /// Fails the transaction (first cause wins) and decides if it has begun.
  virtual void Refuse(TxnId id, obs::AbortCause cause) = 0;

  Cluster* cluster_;

 private:
  std::string metric_prefix_;
  DecisionCounters decisions_;
  obs::AbortCause default_refusal_;
};

/// 2PC coordinator skeleton: lazily created per-transaction state, decisions
/// gated on Begin, the decided-transaction tombstones, and the decision
/// itself. `State` derives from CoordTxn.
template <typename State>
class CoordinatorCore : public CoordinatorBase {
 protected:
  using CoordinatorBase::CoordinatorBase;

  State* Find(TxnId id) {
    auto it = txns_.find(id);
    return it == txns_.end() ? nullptr : &it->second;
  }

  /// The transaction's state, created on first use; nullptr once decided
  /// (late messages are ignored).
  State* Lazy(TxnId id) {
    if (decided_.contains(id)) return nullptr;
    return &txns_.try_emplace(id).first->second;
  }

  /// Records Begin; nullptr once decided. The caller fills in its own
  /// fields, then calls MaybeDecide.
  State* Begin(TxnId id, GatewayBase* client, std::vector<int> participants) {
    State* st = Lazy(id);
    if (st == nullptr) return nullptr;
    st->begun = true;
    st->client = client;
    st->participants = std::move(participants);
    return st;
  }

  void Refuse(TxnId id, obs::AbortCause cause) override {
    State* st = Lazy(id);
    if (st == nullptr) return;
    Fail(*st, cause);
    MaybeDecide(id);
  }

  /// Runs the protocol's decision rule once Begin has arrived.
  void MaybeDecide(TxnId id) {
    State* st = Find(id);
    if (st != nullptr && st->begun) TryDecide(id, *st);
  }

  /// Protocol hook: decides (via Decide) when the protocol allows.
  virtual void TryDecide(TxnId id, State& st) = 0;

  /// Tombstones the transaction, notifies the client, then the participants
  /// (FanOut), and pushes any batched envelopes onto the wire at once: the
  /// decision fan-out is latency-critical.
  void Decide(TxnId id, bool commit, obs::AbortCause cause) {
    auto it = txns_.find(id);
    if (it == txns_.end()) return;
    State st = std::move(it->second);
    txns_.erase(it);
    decided_.insert(id);
    Announce(id, commit, st, cause);
    FanOut(id, st, commit);
    transport()->Flush();
    AfterDecide(id, st, commit);
  }

  /// Protocol hook: sends the decision to the participants.
  virtual void FanOut(TxnId id, const State& st, bool commit) = 0;

  /// Protocol hook run after the fan-out has been flushed.
  virtual void AfterDecide(TxnId, const State&, bool) {}

 private:
  std::unordered_map<TxnId, State> txns_;
  TxnIdSet decided_;
};

/// One node per site, plus the node-id index message closures resolve
/// their targets with.
template <typename T>
class SiteNodes {
 public:
  T* Add(std::unique_ptr<T> node) {
    T* raw = node.get();
    by_node_[raw->id()] = raw;
    nodes_.push_back(std::move(node));
    return raw;
  }
  T* at(int site) const { return nodes_[site].get(); }
  T* by_node(net::NodeId node) const {
    auto it = by_node_.find(node);
    NATTO_CHECK(it != by_node_.end());
    return it->second;
  }
  int size() const { return static_cast<int>(nodes_.size()); }

 private:
  std::vector<std::unique_ptr<T>> nodes_;
  std::unordered_map<net::NodeId, T*> by_node_;
};

/// Engine scaffolding: the per-site gateways and coordinators, and Execute
/// dispatch to the origin site's gateway. TAPIR's clients coordinate
/// themselves, so it registers no coordinators.
template <typename Gateway, typename Coordinator = net::Node>
class EngineCore : public TxnEngine {
 public:
  void Execute(const TxnRequest& request, TxnCallback done) override {
    NATTO_CHECK(request.origin_site >= 0 &&
                request.origin_site < gateways_.size());
    gateways_.at(request.origin_site)->StartTxn(request, std::move(done));
  }

  Cluster* cluster() { return cluster_; }
  Gateway* gateway_at(int site) { return gateways_.at(site); }
  Gateway* gateway_by_node(net::NodeId node) {
    return gateways_.by_node(node);
  }
  Coordinator* coordinator_at(int site) { return coordinators_.at(site); }
  Coordinator* coordinator_by_node(net::NodeId node) {
    return coordinators_.by_node(node);
  }

 protected:
  explicit EngineCore(Cluster* cluster) : cluster_(cluster) {}

  Cluster* cluster_;
  SiteNodes<Gateway> gateways_;
  SiteNodes<Coordinator> coordinators_;
};

}  // namespace natto::txn

#endif  // NATTO_TXN_ENGINE_CORE_H_
