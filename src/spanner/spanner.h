#ifndef NATTO_SPANNER_SPANNER_H_
#define NATTO_SPANNER_SPANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/txn_id_set.h"
#include "net/node.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "raft/raft.h"
#include "store/kv_store.h"
#include "store/lock_table.h"
#include "txn/cluster.h"
#include "txn/engine_core.h"
#include "txn/transaction.h"

namespace natto::spanner {

/// Prioritization policy of the 2PL+2PC system (Sec 4):
///  kNone — plain wound-wait; priorities ignored (the "2PL+2PC" baseline).
///  kPreempt — "2PL+2PC(P)": a high-priority transaction preempts
///    conflicting low-priority lock holders and smaller-timestamp waiters.
///  kPreemptOnWait — "2PL+2PC(POW)" [38]: a high-priority transaction
///    preempts a low-priority holder only if that holder is itself waiting
///    for another lock.
enum class PreemptPolicy { kNone, kPreempt, kPreemptOnWait };

struct SpannerOptions {
  PreemptPolicy policy = PreemptPolicy::kNone;
};

class SpannerEngine;

/// Metadata a server keeps about a transaction it is processing.
struct SpannerTxnMeta {
  TxnId id = 0;
  txn::Priority priority = txn::Priority::kLow;
  SimTime ts = 0;  // wound-wait age (client-assigned start timestamp)
  net::NodeId coordinator = -1;
  net::NodeId client = -1;
};

/// Partition leader: sequential read-lock phase, 2PC prepare with exclusive
/// locks and Raft-replicated prepare records, commit applies after
/// replication. Wound-wait plus the configured preemption policy.
class SpannerServer : public net::Node {
 public:
  SpannerServer(SpannerEngine* engine, int partition, int site,
                sim::NodeClock clock);

  void HandleReadLock(const SpannerTxnMeta& meta, std::vector<Key> keys);
  void HandlePrepare(const SpannerTxnMeta& meta,
                     std::vector<std::pair<Key, Value>> writes);
  void HandleCommit(TxnId id);
  void HandleAbort(TxnId id);

  store::KvStore* kv() { return &kv_; }

 private:
  struct LocalTxn {
    SpannerTxnMeta meta;
    int outstanding_grants = 0;
    std::vector<Key> read_keys;
    std::vector<std::pair<Key, Value>> writes;
    bool reads_served = false;
  };

  /// Applies wound-wait + preemption to the blockers of `meta`'s request.
  void ResolveBlockers(const SpannerTxnMeta& meta,
                       const std::vector<TxnId>& blockers);

  /// Requests a global abort of `victim` through its coordinator.
  void WoundLocal(TxnId victim);

  /// POW: a holder that just started waiting becomes preemptible.
  void MaybePreemptNowWaiting(TxnId id);

  /// Timeout fallback: age-based wounding of whoever still blocks `id`.
  void DeadlockProbe(TxnId id, Key key);

  void AcquireAll(TxnId id, const std::vector<Key>& keys,
                  store::LockMode mode, std::function<void()> when_all);
  void ServeReads(TxnId id);
  void FinishPrepare(TxnId id);

  int LockPriority(const SpannerTxnMeta& meta) const;

  SpannerEngine* engine_;
  int partition_;
  store::KvStore kv_;
  store::LockTable locks_;
  std::unordered_map<TxnId, LocalTxn> txns_;
  TxnIdSet finished_;

  // Registered under spanner.p<N>. (lock-table contention counters live
  // under spanner.p<N>.locks.).
  obs::Counter* wounds_issued_ = nullptr;
  obs::Counter* stale_vote_no_ = nullptr;
};

/// Coordinator-side state of one transaction.
struct CoordinatorTxn : txn::CoordTxn {
  SpannerTxnMeta meta;
  std::unordered_set<int> ok_votes;
  bool have_round2 = false;
  bool prepare_started = false;
};

/// 2PC coordinator colocated with the client's datacenter.
class SpannerCoordinator : public txn::CoordinatorCore<CoordinatorTxn> {
 public:
  SpannerCoordinator(SpannerEngine* engine, int site, sim::NodeClock clock);

  void HandleBegin(const SpannerTxnMeta& meta, std::vector<int> participants);
  void HandleRound2(TxnId id, std::vector<std::pair<Key, Value>> writes,
                    bool user_abort);
  /// No votes carry the refusing server's abort cause for attribution.
  void HandleVote(TxnId id, int partition, bool ok,
                  obs::AbortCause cause = obs::AbortCause::kNone);
  /// A participant wounded/preempted the transaction.
  void HandleWound(TxnId id);

 private:
  void MaybeCommit(TxnId id);
  void TryDecide(TxnId id, CoordinatorTxn& st) override;
  void FanOut(TxnId id, const CoordinatorTxn& st, bool commit) override;

  SpannerEngine* engine_;

  // Registered under spanner.coord.s<site>.
  obs::Counter* wounds_received_ = nullptr;
};

/// Client library: runs the sequential phases and reports the outcome.
class SpannerGateway : public txn::GatewayCore<> {
 public:
  SpannerGateway(SpannerEngine* engine, int site, sim::NodeClock clock);

  void StartTxn(const txn::TxnRequest& request, txn::TxnCallback done);

 private:
  void SendRound2(TxnId id, txn::ClientTxn& st,
                  const std::vector<txn::ReadResult>& ordered,
                  bool user_abort) override;

  SpannerEngine* engine_;
};

/// Spanner-like 2PL+2PC baseline (sequential reads, 2PC, replication) with
/// optional priority preemption.
class SpannerEngine
    : public txn::EngineCore<SpannerGateway, SpannerCoordinator> {
 public:
  SpannerEngine(txn::Cluster* cluster, SpannerOptions options);

  std::string name() const override;

  const SpannerOptions& options() const { return options_; }

  SpannerServer* server(int partition) { return servers_[partition].get(); }

  Value DebugValue(Key key) override;

 private:
  SpannerOptions options_;
  std::vector<std::unique_ptr<SpannerServer>> servers_;
};

}  // namespace natto::spanner

#endif  // NATTO_SPANNER_SPANNER_H_
