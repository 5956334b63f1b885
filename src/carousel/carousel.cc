#include "carousel/carousel.h"

#include <utility>

#include "common/logging.h"

namespace natto::carousel {

namespace {

/// The (key, version) pairs of `results`, in order.
std::vector<std::pair<Key, uint64_t>> VersionsOf(
    const std::vector<txn::ReadResult>& results) {
  std::vector<std::pair<Key, uint64_t>> versions;
  versions.reserve(results.size());
  for (const txn::ReadResult& r : results) {
    versions.emplace_back(r.key, r.version);
  }
  return versions;
}

/// Replicates the prepare record of `id`, whose footprint `prepared`
/// already holds, through `partition`'s Raft group inside the trace span
/// `span`, then calls vote(ok, cause): yes once the record is durable. A
/// lost proposal counts on `lost`, drops the footprint and votes no with
/// LostProposalCause.
template <typename Vote>
void ReplicateThenVote(net::Node* self, txn::Cluster* cluster, int partition,
                       store::PreparedSet* prepared, TxnId id,
                       const char* span, obs::Counter* lost, Vote vote) {
  if (obs::Tracer* tr = cluster->tracer()) {
    tr->SpanBegin(id, span, partition, self->TrueNow());
  }
  cluster->group(partition)->Propose(
      id,
      [self, cluster, partition, id, span, vote]() {
        if (obs::Tracer* tr = cluster->tracer()) {
          tr->SpanEnd(id, span, partition, self->TrueNow());
        }
        vote(true, obs::AbortCause::kNone);
      },
      [self, cluster, partition, prepared, id, span, lost,
       vote](bool timed_out) {
        lost->Inc();
        obs::AbortCause cause = txn::LostProposalCause(timed_out);
        if (obs::Tracer* tr = cluster->tracer()) {
          tr->SpanEnd(id, span, partition, self->TrueNow());
          tr->AttributeAbort(id, cause);
        }
        prepared->Remove(id);
        vote(false, cause);
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// CarouselServer (basic-path partition leader)
// ---------------------------------------------------------------------------

CarouselServer::CarouselServer(CarouselEngine* engine, int partition, int site,
                               sim::NodeClock clock)
    : OccParticipant(engine->cluster(), partition, site, clock),
      engine_(engine) {
  obs::MetricsRegistry* m = engine->cluster()->metrics();
  const std::string prefix =
      "carousel.server.p" + std::to_string(partition) + ".";
  occ_vote_no_ = m->GetCounter(prefix + "occ_vote_no");
  stale_vote_no_ = m->GetCounter(prefix + "stale_vote_no");
  replication_fail_vote_no_ = m->GetCounter(prefix + "replication_fail");
}

void CarouselServer::HandleReadPrepare(const WireTxn& txn) {
  const txn::Topology& topo = engine_->cluster()->topology();
  std::vector<Key> reads = topo.LocalKeys(txn.read_set, partition_);
  std::vector<Key> writes = topo.LocalKeys(txn.write_set, partition_);

  TxnId id = txn.id;
  net::NodeId coord = txn.coordinator;
  int partition = partition_;
  auto* co = engine_->coordinator_by_node(coord);
  auto vote = [this, co, coord, id, partition](bool ok,
                                               obs::AbortCause cause) {
    SendTo(coord, kMessageHeaderBytes, [co, id, partition, ok, cause]() {
      co->HandleVote(id, partition, ok, {}, cause);
    });
  };

  if (obs::AbortCause cause = Check(id, reads, writes);
      cause != obs::AbortCause::kNone) {
    // OCC conflict (or the txn already finished): vote no. No read results.
    // In the basic protocol one no vote aborts the transaction, so the
    // abort is attributed here at its origin.
    const bool conflict = cause == obs::AbortCause::kOccConflict;
    (conflict ? occ_vote_no_ : stale_vote_no_)->Inc();
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->Instant(id, conflict ? "occ_conflict" : "stale_retry_refused",
                  partition, TrueNow());
      tr->AttributeAbort(id, cause);
    }
    vote(false, cause);
    return;
  }

  prepared_.Add(id, reads, writes);

  // Serve reads to the client right away (transaction processing overlaps
  // 2PC and replication).
  std::vector<txn::ReadResult> results = txn::ReadAll(kv_, reads);
  auto* gw = engine_->gateway_by_node(txn.client);
  SendTo(txn.client, WireKvBytes(results.size()),
         [gw, id, partition, results]() {
           gw->HandleReadResults(id, partition, results);
         });

  // Replicate the prepare record; vote once durable.
  ReplicateThenVote(this, engine_->cluster(), partition_, &prepared_, id,
                    "prepare", replication_fail_vote_no_, vote);
}

void CarouselServer::HandleCommit(TxnId id,
                                  std::vector<std::pair<Key, Value>> writes) {
  if (finished_.contains(id)) return;
  // Replicate the write data, then apply and release the footprint. Results
  // become visible to other transactions only after replication (this is
  // exactly the wait Natto's LECSF removes).
  // The commit decision is already fixed at the coordinator, so the write
  // data must eventually replicate even across leader changes.
  engine_->cluster()->group(partition_)->ProposeWithRetry(
      id, [this, id, writes = std::move(writes)]() {
        OccParticipant::HandleCommit(id, writes);
      });
}

// ---------------------------------------------------------------------------
// CarouselFastReplica (fast-path replica)
// ---------------------------------------------------------------------------

CarouselFastReplica::CarouselFastReplica(CarouselEngine* engine, int partition,
                                         int replica, int site,
                                         sim::NodeClock clock)
    : OccParticipant(engine->cluster(), partition, site, clock),
      engine_(engine),
      replica_(replica) {
  obs::MetricsRegistry* m = engine->cluster()->metrics();
  const std::string prefix = "carousel.replica.p" + std::to_string(partition) +
                             ".r" + std::to_string(replica) + ".";
  fast_vote_no_ = m->GetCounter(prefix + "fast_vote_no");
  slow_vote_no_ = m->GetCounter(prefix + "slow_vote_no");
  slow_stale_read_ = m->GetCounter(prefix + "slow_stale_read");
}

void CarouselFastReplica::HandleReadPrepare(const WireTxn& txn) {
  const txn::Topology& topo = engine_->cluster()->topology();
  std::vector<Key> reads = topo.LocalKeys(txn.read_set, partition_);
  std::vector<Key> writes = topo.LocalKeys(txn.write_set, partition_);

  TxnId id = txn.id;
  auto* co = engine_->coordinator_by_node(txn.coordinator);
  int partition = partition_;

  // A fast no vote is not yet an abort (the slow path may still prepare),
  // so the cause travels with the vote and is attributed only if the
  // coordinator actually decides to abort.
  const obs::AbortCause cause = Check(id, reads, writes);
  const bool ok = cause == obs::AbortCause::kNone;
  if (ok) {
    prepared_.Add(id, reads, writes);
  } else {
    fast_vote_no_->Inc();
  }
  // Each replica serves reads from its (possibly stale) local state even
  // when its prepare vote is no — the client needs round 1 to complete so
  // the slow-path fallback can validate the read versions at the leader.
  std::vector<txn::ReadResult> results = txn::ReadAll(kv_, reads);
  std::vector<std::pair<Key, uint64_t>> versions = VersionsOf(results);
  auto* gw = engine_->gateway_by_node(txn.client);
  SendTo(txn.client, WireKvBytes(results.size()),
         [gw, id, partition, results]() {
           gw->HandleReadResults(id, partition, results);
         });
  SendTo(txn.coordinator, kMessageHeaderBytes + versions.size() * 8,
         [co, id, partition, ok, versions, cause]() {
           co->HandleVote(id, partition, ok, versions, cause);
         });
}

void CarouselFastReplica::HandleSlowPrepare(
    TxnId id, net::NodeId coordinator,
    std::vector<std::pair<Key, uint64_t>> read_versions,
    std::vector<Key> read_keys, std::vector<Key> write_keys) {
  NATTO_DCHECK(replica_ == 0) << "slow path is arbitrated by the leader";
  auto* co = engine_->coordinator_by_node(coordinator);
  int partition = partition_;
  auto vote = [this, co, coordinator, id, partition](bool ok,
                                                     obs::AbortCause cause) {
    SendTo(coordinator, kMessageHeaderBytes, [co, id, partition, ok, cause]() {
      co->HandleSlowVote(id, partition, ok, cause);
    });
  };
  // A slow no vote is a definite abort (there is no further fallback), so
  // causes are attributed here at their origin.
  auto refuse = [this, &vote](TxnId txn_id, obs::AbortCause cause,
                              const char* instant) {
    slow_vote_no_->Inc();
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->Instant(txn_id, instant, partition_, TrueNow());
      tr->AttributeAbort(txn_id, cause);
    }
    vote(false, cause);
  };

  if (finished_.contains(id)) {
    refuse(id, obs::AbortCause::kStaleRetry, "stale_retry_refused");
    return;
  }
  // The client's reads came from a possibly stale replica: validate them
  // against the leader's committed state. This must happen even when the
  // leader itself fast-prepared the transaction — the leader's own reads
  // may have been fresher than the (first-reply) reads the client used.
  if (!ReadsCurrent(read_versions)) {
    slow_stale_read_->Inc();
    refuse(id, obs::AbortCause::kFastPathFailed, "slow_validation_fail");
    return;
  }
  if (prepared_.Contains(id)) {
    // Already prepared here by the fast round; versions checked above. This
    // test must precede the conflict test: a footprint conflicts with
    // itself.
    vote(true, obs::AbortCause::kNone);
    return;
  }
  if (prepared_.HasConflict(read_keys, write_keys)) {
    refuse(id, obs::AbortCause::kOccConflict, "occ_conflict");
    return;
  }
  prepared_.Add(id, read_keys, write_keys);
  ReplicateThenVote(this, engine_->cluster(), partition_, &prepared_, id,
                    "slow_prepare", slow_vote_no_, vote);
}

// ---------------------------------------------------------------------------
// CarouselCoordinator
// ---------------------------------------------------------------------------

CarouselCoordinator::CarouselCoordinator(CarouselEngine* engine, int site,
                                         sim::NodeClock clock)
    : CoordinatorCore(engine->cluster(), site, clock, "carousel",
                      obs::AbortCause::kOccConflict),
      engine_(engine) {
  obs::MetricsRegistry* m = engine->cluster()->metrics();
  slow_path_starts_ = m->GetCounter(metric_prefix() + "slow_path_starts");
  version_mismatches_ = m->GetCounter(metric_prefix() + "version_mismatches");
}

void CarouselCoordinator::HandleBegin(const WireTxn& txn,
                                      std::vector<int> participants) {
  CoordinatorTxn* st = Begin(txn.id, engine_->gateway_by_node(txn.client),
                             std::move(participants));
  if (st == nullptr) return;
  st->txn = txn;
  MaybeDecide(txn.id);
}

void CarouselCoordinator::HandleVote(
    TxnId id, int partition, bool ok,
    std::vector<std::pair<Key, uint64_t>> versions, obs::AbortCause cause) {
  CoordinatorTxn* st = Lazy(id);
  if (st == nullptr) return;
  if (ok) {
    st->ok_votes[partition] += 1;
    if (engine_->options().fast_path) {
      // The fast path requires a *matching* quorum: all replicas must have
      // served the same versions, or some read was stale.
      auto fv = st->fast_versions.find(partition);
      if (fv == st->fast_versions.end()) {
        st->fast_versions[partition] = std::move(versions);
      } else if (fv->second != versions) {
        version_mismatches_->Inc();
        st->version_mismatch.insert(partition);
        MaybeStartSlowPath(id, partition);
      }
    }
  } else if (engine_->options().fast_path) {
    // Fast quorum failed for this partition: fall back to leader-arbitrated
    // prepare instead of aborting outright.
    st->fail_votes[partition] += 1;
    MaybeStartSlowPath(id, partition);
  } else {
    Fail(*st, cause);
  }
  MaybeDecide(id);
}

void CarouselCoordinator::MaybeStartSlowPath(TxnId id, int partition) {
  CoordinatorTxn* st = Find(id);
  if (st == nullptr || !st->begun || !st->have_writes) {
    return;  // versions arrive with round 2
  }
  if (st->slow_pending.contains(partition) || st->slow_ok.contains(partition)) {
    return;
  }
  st->slow_pending.insert(partition);
  slow_path_starts_->Inc();
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->SpanBegin(id, "slow_path", partition, TrueNow());
  }
  const txn::Topology& topo = engine_->cluster()->topology();
  std::vector<Key> read_keys = topo.LocalKeys(st->txn.read_set, partition);
  std::vector<Key> write_keys = topo.LocalKeys(st->txn.write_set, partition);
  std::vector<std::pair<Key, uint64_t>> versions =
      topo.LocalEntries(st->read_versions, partition);
  auto* leader = engine_->fast_replica(partition, 0);
  SendTo(leader->id(), WireKeysBytes(read_keys.size() + write_keys.size()),
         [leader, id, coord = this->id(), versions, read_keys, write_keys]() {
           leader->HandleSlowPrepare(id, coord, versions, read_keys,
                                     write_keys);
         });
}

void CarouselCoordinator::HandleSlowVote(TxnId id, int partition, bool ok,
                                         obs::AbortCause cause) {
  CoordinatorTxn* st = Find(id);
  if (st == nullptr) return;
  if (st->slow_pending.erase(partition) > 0) {
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanEnd(id, "slow_path", partition, TrueNow());
    }
  }
  if (ok) {
    st->slow_ok.insert(partition);
  } else {
    Fail(*st, cause);
  }
  MaybeDecide(id);
}

void CarouselCoordinator::HandleCommitRequest(
    TxnId id, std::vector<std::pair<Key, Value>> writes,
    std::vector<std::pair<Key, uint64_t>> read_versions, bool user_abort) {
  CoordinatorTxn* st = Lazy(id);
  if (st == nullptr) return;
  st->have_writes = true;
  st->user_abort = user_abort;
  st->writes = std::move(writes);
  st->read_versions = std::move(read_versions);
  if (!user_abort) {
    if (engine_->options().fast_path) {
      for (const auto& [p, fails] : st->fail_votes) {
        if (fails > 0) MaybeStartSlowPath(id, p);
      }
      for (int p : st->version_mismatch) MaybeStartSlowPath(id, p);
    }
    if (st->writes.empty()) {
      st->own_replicated = true;
    } else {
      // Make the write data fault tolerant at the coordinator first.
      ProposeLocal(id, [this, id]() {
        if (CoordinatorTxn* s = Find(id)) {
          s->own_replicated = true;
          MaybeDecide(id);
        }
      });
    }
  }
  MaybeDecide(id);
}

void CarouselCoordinator::TryDecide(TxnId id, CoordinatorTxn& st) {
  if (st.user_abort) {
    Decide(id, /*commit=*/false, obs::AbortCause::kUserAbort);
    return;
  }
  if (st.failed) {
    Decide(id, /*commit=*/false, RefusalCause(st));
    return;
  }
  if (st.participants.empty() || !st.have_writes || !st.own_replicated) return;
  const int full = engine_->cluster()->topology().num_replicas();
  for (int p : st.participants) {
    auto v = st.ok_votes.find(p);
    if (engine_->options().fast_path) {
      bool fast_ok = v != st.ok_votes.end() && v->second == full &&
                     !st.version_mismatch.contains(p);
      if (!fast_ok && !st.slow_ok.contains(p)) return;
    } else if (v == st.ok_votes.end() || v->second < 1) {
      return;
    }
  }
  Decide(id, /*commit=*/true, obs::AbortCause::kNone);
}

void CarouselCoordinator::FanOut(TxnId id, const CoordinatorTxn& st,
                                 bool commit) {
  // Asynchronously commit/abort at the participants.
  const txn::Topology& topo = engine_->cluster()->topology();
  for (int p : st.participants) {
    if (engine_->options().fast_path) {
      for (int r = 0; r < topo.num_replicas(); ++r) {
        txn::SendOutcome(this, engine_->fast_replica(p, r), id, commit, topo,
                         p, st.writes);
      }
    } else {
      txn::SendOutcome(this, engine_->server(p), id, commit, topo, p,
                       st.writes);
    }
  }
}

// ---------------------------------------------------------------------------
// CarouselGateway (client library)
// ---------------------------------------------------------------------------

CarouselGateway::CarouselGateway(CarouselEngine* engine, int site,
                                 sim::NodeClock clock)
    : GatewayCore(engine->cluster(), site, clock), engine_(engine) {}

void CarouselGateway::StartTxn(const txn::TxnRequest& request,
                               txn::TxnCallback done) {
  const txn::Topology& topo = engine_->cluster()->topology();
  auto* coord = engine_->coordinator_at(site());

  WireTxn w;
  w.id = request.id;
  w.priority = request.priority;
  w.read_set = request.read_set;
  w.write_set = request.write_set;
  w.coordinator = coord->id();
  w.client = id();

  std::vector<int> participants =
      topo.Participants(request.read_set, request.write_set);

  txn::ClientTxn& st = Register(request, std::move(done),
                                txn::PriorityLevel(request.priority),
                                /*round1_span=*/true);
  st.awaiting.insert(participants.begin(), participants.end());

  SendTo(coord->id(),
         WireKeysBytes(request.read_set.size() + request.write_set.size()),
         [coord, w, participants]() { coord->HandleBegin(w, participants); });

  size_t rp_bytes =
      WireKeysBytes(request.read_set.size() + request.write_set.size());
  for (int p : participants) {
    if (engine_->options().fast_path) {
      for (int r = 0; r < topo.num_replicas(); ++r) {
        auto* rep = engine_->fast_replica(p, r);
        SendTo(rep->id(), rp_bytes, [rep, w]() { rep->HandleReadPrepare(w); });
      }
    } else {
      auto* srv = engine_->server(p);
      SendTo(srv->id(), rp_bytes, [srv, w]() { srv->HandleReadPrepare(w); });
    }
  }
}

void CarouselGateway::SendRound2(TxnId id, txn::ClientTxn& st,
                                 const std::vector<txn::ReadResult>& ordered,
                                 bool user_abort) {
  auto* coord = engine_->coordinator_at(site());
  if (user_abort) {
    SendTo(coord->id(), kMessageHeaderBytes, [coord, id]() {
      coord->HandleCommitRequest(id, {}, {}, /*user_abort=*/true);
    });
    return;
  }
  // Versions of the reads the writes were computed from; the fast path's
  // slow fallback validates them at the partition leader.
  std::vector<std::pair<Key, uint64_t>> versions = VersionsOf(ordered);
  SendTo(coord->id(), txn::kRound2Bytes + versions.size() * 8,
         [coord, id, writes = st.writes, versions]() {
           coord->HandleCommitRequest(id, writes, versions,
                                      /*user_abort=*/false);
         });
}

// ---------------------------------------------------------------------------
// CarouselEngine
// ---------------------------------------------------------------------------

CarouselEngine::CarouselEngine(txn::Cluster* cluster, CarouselOptions options)
    : EngineCore(cluster), options_(options) {
  const txn::Topology& topo = cluster_->topology();
  for (int p = 0; p < topo.num_partitions(); ++p) {
    servers_.push_back(std::make_unique<CarouselServer>(
        this, p, topo.LeaderSite(p), cluster_->MakeClock()));
  }
  if (options_.fast_path) {
    fast_replicas_.resize(topo.num_partitions());
    for (int p = 0; p < topo.num_partitions(); ++p) {
      for (int r = 0; r < topo.num_replicas(); ++r) {
        fast_replicas_[p].push_back(std::make_unique<CarouselFastReplica>(
            this, p, r, topo.ReplicaSites(p)[r], cluster_->MakeClock()));
      }
    }
  }
  for (int s = 0; s < topo.num_sites(); ++s) {
    coordinators_.Add(std::make_unique<CarouselCoordinator>(
        this, cluster_->CoordinatorSite(s), cluster_->MakeClock()));
    gateways_.Add(
        std::make_unique<CarouselGateway>(this, s, cluster_->MakeClock()));
  }
}

Value CarouselEngine::DebugValue(Key key) {
  int p = cluster_->topology().PartitionOfKey(key);
  if (options_.fast_path) return fast_replicas_[p][0]->kv()->Get(key).value;
  return servers_[p]->kv()->Get(key).value;
}

}  // namespace natto::carousel
