#ifndef NATTO_TAPIR_TAPIR_H_
#define NATTO_TAPIR_TAPIR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/node.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "txn/cluster.h"
#include "txn/engine_core.h"
#include "txn/transaction.h"

namespace natto::tapir {

class TapirEngine;

/// One inconsistently-replicated storage replica: answers reads from local
/// state, validates prepares with OCC (version check + prepared-set
/// conflicts), and applies commits independently of its peers.
class TapirReplica : public txn::OccParticipant {
 public:
  TapirReplica(TapirEngine* engine, int partition, int replica, int site,
               sim::NodeClock clock);

  void HandleGet(TxnId id, std::vector<Key> keys, net::NodeId reply_to);

  /// OCC validation vote. `read_versions` are the versions the client read;
  /// a replica votes no on stale reads or conflicts with prepared txns.
  void HandlePrepare(TxnId id,
                     std::vector<std::pair<Key, uint64_t>> read_versions,
                     std::vector<Key> write_keys, net::NodeId reply_to);

  /// Slow-path consensus: adopt the majority prepare decision.
  void HandleFinalizePrepare(TxnId id,
                             std::vector<std::pair<Key, uint64_t>> read_versions,
                             std::vector<Key> write_keys,
                             net::NodeId reply_to);

 private:
  TapirEngine* engine_;

  // Registered under tapir.replica.p<N>.r<M>.
  obs::Counter* prepare_vote_no_ = nullptr;
};

enum class PartitionPhase { kVoting, kSlowPath, kPreparedOk, kAborted };

/// Prepare progress at one participant partition.
struct PartitionState {
  PartitionPhase phase = PartitionPhase::kVoting;
  int ok_votes = 0;
  int fail_votes = 0;
  int finalize_acks = 0;
};

/// Client-side state of one attempt.
struct TapirTxn : txn::ClientTxn {
  std::vector<int> participants;
  std::unordered_map<int, PartitionState> partitions;
  /// Cause of the first failed vote (first-wins; kNone until a no vote).
  obs::AbortCause fail_cause = obs::AbortCause::kNone;
};

/// Client library + 2PC coordinator in one (TAPIR offloads coordination to
/// clients): reads from the nearest replica, prepares at every replica of
/// each participant, decides on the fast path when votes are unanimous and
/// falls back to the slow path as soon as the fast path fails (the paper's
/// modification of the 500 ms-timeout reference implementation).
class TapirGateway : public txn::GatewayCore<TapirTxn> {
 public:
  TapirGateway(TapirEngine* engine, int site, sim::NodeClock clock);

  void StartTxn(const txn::TxnRequest& request, txn::TxnCallback done);

  /// No votes carry the refusing replica's abort cause for attribution.
  void HandlePrepareVote(TxnId id, int partition, bool ok,
                         obs::AbortCause cause = obs::AbortCause::kNone);
  void HandleFinalizeAck(TxnId id, int partition);

 private:
  /// Round 2 is the prepare round.
  void SendRound2(TxnId id, TapirTxn& st,
                  const std::vector<txn::ReadResult>& ordered,
                  bool user_abort) override;
  /// Sends partition `p`'s validation footprint (read versions and write
  /// keys) to all its replicas: a prepare, or the slow path's finalize.
  void SendFootprint(TxnId id, TapirTxn& st, int p, bool finalize);
  void OnPartitionUpdate(TxnId id, int partition);
  void MaybeDecide(TxnId id);
  void Decide(TxnId id, bool commit, obs::AbortCause cause);

  TapirEngine* engine_;

  // Registered under tapir.gateway.s<site>.
  obs::Counter* slow_path_starts_ = nullptr;
  txn::DecisionCounters decisions_;
};

/// TAPIR (SOSP'15) baseline.
class TapirEngine : public txn::EngineCore<TapirGateway> {
 public:
  explicit TapirEngine(txn::Cluster* cluster);

  std::string name() const override { return "TAPIR"; }

  TapirReplica* replica(int partition, int r) {
    return replicas_[partition][r].get();
  }

  /// Index of the replica of `partition` closest to `site`.
  int NearestReplica(int partition, int site) const;

  /// Test hook: value at replica 0 of the key's partition.
  Value DebugValue(Key key) override;

 private:
  std::vector<std::vector<std::unique_ptr<TapirReplica>>> replicas_;
};

}  // namespace natto::tapir

#endif  // NATTO_TAPIR_TAPIR_H_
