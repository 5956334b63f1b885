#ifndef NATTO_CAROUSEL_CAROUSEL_H_
#define NATTO_CAROUSEL_CAROUSEL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/node.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "raft/raft.h"
#include "store/kv_store.h"
#include "store/prepared_set.h"
#include "txn/cluster.h"
#include "txn/engine_core.h"
#include "txn/transaction.h"

namespace natto::carousel {

/// Engine configuration: Carousel Basic (leader-driven, overlapping
/// transaction processing with 2PC and replication) or Carousel Fast
/// (read-and-prepare sent to every replica; commits in one WAN round trip
/// when all replicas of every participant vote yes).
struct CarouselOptions {
  bool fast_path = false;
};

/// Wire form of a read-and-prepare request (what the client broadcasts).
struct WireTxn {
  TxnId id = 0;
  txn::Priority priority = txn::Priority::kLow;
  std::vector<Key> read_set;   // full transaction read set
  std::vector<Key> write_set;  // full transaction write set
  net::NodeId coordinator = -1;
  net::NodeId client = -1;
};

class CarouselEngine;

/// Partition leader for the basic protocol: serves reads with OCC, prepares
/// via Raft, applies committed writes after replicating them.
class CarouselServer : public net::Node {
 public:
  CarouselServer(CarouselEngine* engine, int partition, int site,
                 sim::NodeClock clock);

  void HandleReadPrepare(const WireTxn& txn);
  void HandleCommit(TxnId id, std::vector<std::pair<Key, Value>> writes);
  void HandleAbort(TxnId id);

  store::KvStore* kv() { return &kv_; }

 private:
  CarouselEngine* engine_;
  int partition_;
  raft::PayloadIdAllocator* payload_ids_;
  store::KvStore kv_;
  store::PreparedSet prepared_;
  std::unordered_set<TxnId> finished_;  // tombstones for late arrivals

  // Registered under carousel.server.p<N>.
  obs::Counter* occ_vote_no_ = nullptr;
  obs::Counter* stale_vote_no_ = nullptr;
  obs::Counter* replication_fail_vote_no_ = nullptr;
};

/// One replica in the fast path: validates and votes independently; applies
/// writes when the coordinator commits. The leader replica (index 0)
/// additionally arbitrates the slow path when the fast quorum fails.
class CarouselFastReplica : public net::Node {
 public:
  CarouselFastReplica(CarouselEngine* engine, int partition, int replica,
                      int site, sim::NodeClock clock);

  void HandleReadPrepare(const WireTxn& txn);

  /// Slow-path fallback (leader only): validates the client's reads against
  /// the leader's state, prepares with OCC and replicates the prepare
  /// record; votes ok/fail to the coordinator.
  void HandleSlowPrepare(TxnId id, net::NodeId coordinator,
                         std::vector<std::pair<Key, uint64_t>> read_versions,
                         std::vector<Key> read_keys,
                         std::vector<Key> write_keys);

  void HandleCommit(TxnId id, std::vector<std::pair<Key, Value>> writes);
  void HandleAbort(TxnId id);

  store::KvStore* kv() { return &kv_; }

 private:
  CarouselEngine* engine_;
  int partition_;
  int replica_;
  raft::PayloadIdAllocator* payload_ids_;
  store::KvStore kv_;
  store::PreparedSet prepared_;
  std::unordered_set<TxnId> finished_;

  // Registered under carousel.replica.p<N>.r<M>.
  obs::Counter* fast_vote_no_ = nullptr;
  obs::Counter* slow_vote_no_ = nullptr;
  obs::Counter* slow_stale_read_ = nullptr;
};

/// Coordinator-side state of one transaction.
struct CoordinatorTxn : txn::CoordTxn {
  WireTxn txn;
  // Basic path: set of partitions that voted ok. Fast path: per-partition
  // count of ok replica votes.
  std::unordered_map<int, int> ok_votes;
  // Fast path: partitions whose fast quorum failed (>=1 replica said no),
  // and their slow-path state. Ordered: HandleCommitRequest walks these to
  // start slow paths, so the message order must be partition order, not
  // hash order.
  std::map<int, int> fail_votes;
  std::unordered_map<int, std::vector<std::pair<Key, uint64_t>>>
      fast_versions;
  std::set<int> version_mismatch;
  std::unordered_set<int> slow_pending;
  std::unordered_set<int> slow_ok;
  bool have_writes = false;
  bool own_replicated = false;
  std::vector<std::pair<Key, uint64_t>> read_versions;
};

/// 2PC coordinator colocated with the clients of one datacenter; replicates
/// write data through the local partition's Raft group before committing.
class CarouselCoordinator : public txn::CoordinatorCore<CoordinatorTxn> {
 public:
  CarouselCoordinator(CarouselEngine* engine, int site, sim::NodeClock clock);

  /// Registers the transaction (participants, client) ahead of votes.
  void HandleBegin(const WireTxn& txn, std::vector<int> participants);

  /// Prepare vote from a participant (basic: leader; fast: one replica).
  /// Fast-path OK votes carry the replica's versions of the transaction's
  /// read keys: the fast path only holds if every replica reports the same
  /// versions (otherwise some replica served a stale read and the slow path
  /// must re-validate at the leader). No votes carry the refusing server's
  /// abort cause so the decision can attribute the abort.
  void HandleVote(TxnId id, int partition, bool ok,
                  std::vector<std::pair<Key, uint64_t>> versions = {},
                  obs::AbortCause cause = obs::AbortCause::kNone);

  /// Client's round-2 message: write values (plus the versions of the reads
  /// they were computed from, used by the fast path's slow fallback), or a
  /// user abort.
  void HandleCommitRequest(TxnId id,
                           std::vector<std::pair<Key, Value>> writes,
                           std::vector<std::pair<Key, uint64_t>> read_versions,
                           bool user_abort);

  /// Outcome of a slow-path fallback prepare at a partition leader.
  void HandleSlowVote(TxnId id, int partition, bool ok,
                      obs::AbortCause cause = obs::AbortCause::kNone);

 private:
  void MaybeStartSlowPath(TxnId id, int partition);
  void TryDecide(TxnId id, CoordinatorTxn& st) override;
  void FanOut(TxnId id, const CoordinatorTxn& st, bool commit) override;

  CarouselEngine* engine_;

  // Registered under carousel.coord.s<site>.
  obs::Counter* slow_path_starts_ = nullptr;
  obs::Counter* version_mismatches_ = nullptr;
};

/// Client-side library instance for one datacenter: issues read-and-prepare
/// rounds, gathers reads, runs the client's write computation, and reports
/// the outcome.
class CarouselGateway : public txn::GatewayCore<> {
 public:
  CarouselGateway(CarouselEngine* engine, int site, sim::NodeClock clock);

  void StartTxn(const txn::TxnRequest& request, txn::TxnCallback done);

 private:
  void SendRound2(TxnId id, txn::ClientTxn& st,
                  const std::vector<txn::ReadResult>& ordered,
                  bool user_abort) override;

  CarouselEngine* engine_;
};

/// Carousel (SIGMOD'18), the substrate Natto builds on and one of the
/// paper's baselines. Implements the basic protocol and the fast protocol.
class CarouselEngine
    : public txn::EngineCore<CarouselGateway, CarouselCoordinator> {
 public:
  CarouselEngine(txn::Cluster* cluster, CarouselOptions options);

  std::string name() const override {
    return options_.fast_path ? "Carousel Fast" : "Carousel Basic";
  }

  const CarouselOptions& options() const { return options_; }

  CarouselServer* server(int partition) { return servers_[partition].get(); }
  CarouselFastReplica* fast_replica(int partition, int replica) {
    return fast_replicas_[partition][replica].get();
  }

  /// Test hook: committed value at the partition leader (fast path: replica
  /// 0).
  Value DebugValue(Key key) override;

  /// First replication payload id this engine family issues.
  static constexpr uint64_t kPayloadIdBase = 1;

 private:
  CarouselOptions options_;
  std::vector<std::unique_ptr<CarouselServer>> servers_;  // basic path
  std::vector<std::vector<std::unique_ptr<CarouselFastReplica>>>
      fast_replicas_;  // fast path
};

}  // namespace natto::carousel

#endif  // NATTO_CAROUSEL_CAROUSEL_H_
