#ifndef NATTO_NATTO_NATTO_H_
#define NATTO_NATTO_NATTO_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/txn_id_set.h"
#include "natto/txn_table.h"
#include "net/node.h"
#include "net/prober.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "raft/raft.h"
#include "store/kv_store.h"
#include "txn/cluster.h"
#include "txn/engine_core.h"
#include "txn/transaction.h"

namespace natto::core {

/// Which of Natto's mechanisms are enabled. The presets mirror the paper's
/// ablation: TS ⊂ LECSF ⊂ PA ⊂ CP ⊂ RECSF (Sec 5.1).
struct NattoOptions {
  bool lecsf = true;               // local early committed state forwarding
  bool priority_abort = true;      // PA
  bool conditional_prepare = true; // CP
  bool recsf = true;               // remote ECSF

  /// PA refinement (Sec 3.3.1): skip aborting a low-priority transaction
  /// when it should complete before the high-priority one executes.
  bool pa_completion_estimate = true;

  /// Delay-estimator quantile (paper: p95 to avoid underestimating arrival
  /// times). The estimator ablation bench lowers this toward the mean.
  double estimate_quantile = 0.95;

  /// Shared-environment mode (Sec 3.2): per-datacenter token-bucket quota of
  /// prioritized transactions per second enforced by the trusted gateway;
  /// over-quota transactions are processed at low priority. 0 = unlimited
  /// (the paper's trusted-application default).
  double high_priority_quota_tps = 0.0;

  static NattoOptions TsOnly();
  static NattoOptions Lecsf();
  static NattoOptions Pa();
  static NattoOptions Cp();
  static NattoOptions Recsf();
};

class NattoEngine;

/// A prepare vote sent to the coordinator.
struct NattoVote {
  TxnId id = 0;
  int partition = 0;
  bool ok = false;
  int read_version = 0;          // matches the reads the client was served
  bool conditional = false;      // conditional prepare (Sec 3.3.2)
  TxnId condition_on = 0;        // ...on this txn being priority-aborted
  /// Taxonomy cause when ok == false.
  obs::AbortCause cause = obs::AbortCause::kNone;
};

/// Natto partition leader: timestamp-ordered transaction queue, OCC for
/// low-priority transactions, lock-style waiting for high-priority ones,
/// priority abort, conditional prepare and ECSF.
class NattoServer : public net::Node {
 public:
  NattoServer(NattoEngine* engine, int partition, int site,
              sim::NodeClock clock);

  void HandleReadPrepare(const NattoWireTxn& txn);
  void HandleCommit(TxnId id, std::vector<std::pair<Key, Value>> writes);
  void HandleAbort(TxnId id);

  store::KvStore* kv() { return &kv_; }

 private:
  using Stage = TxnTable::Stage;

  /// Inserts into the queue, runs the priority-abort pass and the
  /// late-arrival ordering check, and schedules processing.
  void Enqueue(TxnState st);

  /// Processes ready queue-head transactions in timestamp order.
  void DrainReady();
  void ProcessTxn(TxnState st);

  void PrepareNow(TxnState st, bool conditional, TxnId condition_on);
  void ServeReads(TxnState& st);
  /// Sends this partition's prepare vote to `coordinator`.
  void SendVote(net::NodeId coordinator, NattoVote vote);

  /// Priority-aborts a queued low-priority transaction.
  void PriorityAbort(const TxnState& victim);

  /// Moves `st` into the waiting stage and marks it for the next
  /// RescanWaiting.
  void Wait(TxnState st);

  /// Marks for the next RescanWaiting the waiters that `gone`, which just
  /// left the waiting or prepared stage, may have blocked.
  void MarkRescan(const TxnState& gone);

  /// Wakes, in queue order, each marked waiter that no earlier waiter and
  /// no prepared transaction conflicts with.
  void RescanWaiting();

  /// Resolution of conditional prepares conditioned on `low` (which just
  /// committed or aborted at this server).
  void ResolveConditions(TxnId low, bool low_aborted);

  /// Sec 3.3.1 refinement: expected completion time of `low` as seen here.
  bool LowWillFinishInTime(const TxnState& low, const TxnState& high) const;

  /// Sec 3.3.2: estimate whether another common participant priority-aborts
  /// `low` because of `high`.
  bool EstimatePriorityAbortElsewhere(const TxnState& high,
                                      const TxnState& low) const;

  /// RECSF (Sec 3.4): forward the blocked high-priority transaction's reads
  /// to the blocker's coordinator.
  void ForwardReadsRemote(const TxnState& high, const TxnState& blocker);

  NattoEngine* engine_;
  int partition_;
  store::KvStore kv_;

  /// Every queued, waiting and prepared transaction.
  TxnTable table_;
  /// (condition_on, id) of each conditional prepare. Entries whose
  /// transaction left the prepared stage are dropped when condition_on
  /// resolves.
  std::vector<std::pair<TxnId, TxnId>> conditioned_;
  /// Waiters RescanWaiting must examine: every other waiter is blocked.
  std::vector<OrderKey> rescan_;
  /// Conflict list of the current check, kept to reuse its capacity.
  std::vector<OrderKey> candidates_;
  TxnIdSet finished_;
  /// Largest prepare timestamp per key (late-arrival ordering checks).
  std::unordered_map<Key, SimTime> key_order_ts_;

  /// This server's counters in the cluster's metrics registry, named
  /// `natto.server.p<N>.<field>`.
  struct StatCounters {
    obs::Counter* priority_aborts;
    obs::Counter* pa_suppressed;  // completion-estimate suppressions
    obs::Counter* conditional_prepares;
    obs::Counter* cp_satisfied;
    obs::Counter* cp_failed;
    obs::Counter* order_violation_aborts;
    obs::Counter* occ_aborts;
    obs::Counter* recsf_forwards;
    obs::Counter* stale_retries;  // duplicate attempts refused as finished
  };
  StatCounters stats_;
};

/// A participant's latest prepare vote, as the coordinator sees it.
struct VoteState {
  bool have = false;
  int version = 0;
  bool conditional = false;
};

/// Coordinator-side state of one transaction.
struct CoordinatorTxn : txn::CoordTxn {
  bool priority_aborted = false;  // PA notice arrived before Begin
  std::unordered_map<int, VoteState> votes;
  bool have_writes = false;
  std::unordered_map<int, int> round2_versions;
  int replicated_version = -1;  // round2 generation made durable
  int round2_generation = 0;
};

/// Natto transaction coordinator: Carousel-style 2PC with conditional-vote
/// resolution and RECSF read serving.
class NattoCoordinator : public txn::CoordinatorCore<CoordinatorTxn> {
 public:
  NattoCoordinator(NattoEngine* engine, int site, sim::NodeClock clock);

  void HandleBegin(const NattoWireTxn& txn, std::vector<int> participants);
  void HandleVote(const NattoVote& vote);
  void HandleConditionResolved(TxnId id, int partition, bool satisfied);
  void HandlePriorityAbort(TxnId id);
  /// Round 2 from the client; `versions` echoes the read versions the
  /// writes were computed from.
  void HandleRound2(TxnId id, std::vector<std::pair<Key, Value>> writes,
                    std::vector<std::pair<int, int>> versions,
                    bool user_abort);
  /// RECSF: serve `keys` (written by committed txn `writer`) to `client`.
  void HandleRecsfRead(TxnId writer, TxnId reader, int partition,
                       std::vector<Key> keys, int read_version,
                       net::NodeId client);

 private:
  struct PendingRecsf {
    TxnId reader;
    int partition;
    std::vector<Key> keys;
    int read_version;
    net::NodeId client;
  };

  void TryDecide(TxnId id, CoordinatorTxn& st) override;
  void FanOut(TxnId id, const CoordinatorTxn& st, bool commit) override;
  void AfterDecide(TxnId id, const CoordinatorTxn& st, bool commit) override;
  void ServeRecsf(const PendingRecsf& req,
                  const std::vector<std::pair<Key, Value>>& writes);

  NattoEngine* engine_;
  /// Committed write data kept briefly for RECSF requests.
  std::unordered_map<TxnId, std::vector<std::pair<Key, Value>>> committed_writes_;
  std::unordered_map<TxnId, std::vector<PendingRecsf>> recsf_waiting_;
};

/// Client-side state of one attempt.
struct NattoClientTxn : txn::ClientTxn {
  std::vector<int> participants;
  /// Latest read version each participant served; reads of an older
  /// version are stale, a newer one replaces that partition's reads.
  std::unordered_map<int, int> read_versions;
  int round2_sent_generation = 0;
};

/// Client library for one datacenter: fetches delay estimates from the local
/// proxy, assigns execution timestamps, and runs the interactive 2FI rounds
/// (including re-execution when a conditional prepare fails).
class NattoGateway : public txn::GatewayCore<NattoClientTxn> {
 public:
  NattoGateway(NattoEngine* engine, int site, sim::NodeClock clock);

  void StartTxn(const txn::TxnRequest& request, txn::TxnCallback done);
  void HandleReadResults(TxnId id, int partition, int read_version,
                         std::vector<txn::ReadResult> reads);

  /// Starts the periodic estimate-refresh loop from the proxy. Idempotent:
  /// a second call while the loop is running is a no-op (without the guard
  /// each call would spawn another self-rescheduling loop forever).
  void RefreshEstimates();

  SimDuration EstimatedOneWay(int partition) const;

  /// Prioritized transactions demoted to low priority by the quota.
  uint64_t quota_demotions() const {
    return static_cast<uint64_t>(quota_demotions_metric_->value());
  }

  /// Refresh fetches issued so far (test hook for the re-entrancy guard).
  uint64_t refresh_fetches() const {
    return static_cast<uint64_t>(refresh_fetches_metric_->value());
  }

 private:
  /// Re-runs round 2 whenever every participant has served a complete read
  /// set and some read version moved since the last round 2.
  void MaybeSendRound2(TxnId id);
  void SendRound2(TxnId id, NattoClientTxn& st,
                  const std::vector<txn::ReadResult>& ordered,
                  bool user_abort) override;

  /// One fetch of the refresh loop; reschedules itself.
  void RefreshTick();

  /// Token-bucket admission for the high-priority quota; returns false when
  /// the transaction must be demoted.
  bool AdmitPrioritized();

  NattoEngine* engine_;
  std::unordered_map<int, SimDuration> cached_estimates_;  // partition -> ow
  bool refresh_running_ = false;
  obs::Counter* refresh_fetches_metric_;
  double quota_tokens_ = 0;
  SimTime quota_last_refill_ = 0;
  obs::Counter* quota_demotions_metric_;
};

/// Natto (SIGMOD'22): geo-distributed transaction processing with
/// timestamp-based prioritization. The paper's primary contribution.
class NattoEngine : public txn::EngineCore<NattoGateway, NattoCoordinator> {
 public:
  NattoEngine(txn::Cluster* cluster, NattoOptions options);

  std::string name() const override;

  const NattoOptions& options() const { return options_; }

  NattoServer* server(int partition) { return servers_[partition].get(); }
  net::Prober* proxy_at(int site) { return proxies_[site].get(); }

  /// Mean one-way delay between sites as measured server-side (completion
  /// estimates, Sec 3.3.1). Backed by the latency matrix averages, which is
  /// what a server-side prober converges to.
  SimDuration MeanOneWay(int site_a, int site_b) const;

  /// One replication round at `site`'s local group (majority RTT).
  SimDuration MajorityReplicationDelay(int partition) const;

  Value DebugValue(Key key) override;

 private:
  NattoOptions options_;
  std::vector<std::unique_ptr<NattoServer>> servers_;
  std::vector<std::unique_ptr<net::Prober>> proxies_;
};

}  // namespace natto::core

#endif  // NATTO_NATTO_NATTO_H_

