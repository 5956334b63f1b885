#ifndef NATTO_TESTS_ENGINE_TEST_UTIL_H_
#define NATTO_TESTS_ENGINE_TEST_UTIL_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/latency_matrix.h"
#include "txn/cluster.h"
#include "txn/topology.h"
#include "txn/transaction.h"

namespace natto::testutil {

/// Default 5-partition, 3-replica deployment over the paper's five Azure
/// datacenters (partition p's leader lives at site p).
inline std::unique_ptr<txn::Cluster> MakeCluster(
    uint64_t seed = 1, txn::ClusterOptions opts = {},
    net::LatencyMatrix matrix = net::LatencyMatrix::AzureFive(),
    int partitions = 5, int replicas = 3) {
  opts.seed = seed;
  txn::Topology topo =
      txn::Topology::Spread(partitions, replicas, matrix.num_sites());
  return std::make_unique<txn::Cluster>(std::move(matrix), std::move(topo),
                                        std::move(opts));
}

/// Sum over every Natto partition server of the counter
/// `natto.server.p<N>.<field>` in the cluster's metrics registry.
inline int64_t NattoCounter(txn::Cluster* cluster, const std::string& field) {
  return cluster->metrics()->Snapshot().SumCounters("natto.server.p",
                                                    "." + field);
}

/// The counter `name` in the cluster's metrics registry; throws when no
/// such counter was registered, so a misspelled name cannot read as 0.
inline int64_t CounterValue(txn::Cluster* cluster, const std::string& name) {
  return cluster->metrics()->Snapshot().counters.at(name);
}

/// Read-modify-write: write value+1 for every read key.
inline txn::WriteComputer IncrementWrites() {
  return [](const std::vector<txn::ReadResult>& reads) {
    txn::WriteDecision d;
    for (const auto& r : reads) d.writes.emplace_back(r.key, r.value + 1);
    return d;
  };
}

/// Outcome of one scheduled transaction.
struct TxnProbe {
  std::optional<txn::TxnResult> result;
  SimTime started_at = 0;
  SimTime finished_at = 0;

  bool committed() const {
    return result && result->outcome == txn::TxnOutcome::kCommitted;
  }
  bool aborted() const {
    return result && result->outcome == txn::TxnOutcome::kAborted;
  }
  double latency_ms() const { return ToMillis(finished_at - started_at); }
};

/// Schedules one transaction attempt at simulated time `at`.
inline std::shared_ptr<TxnProbe> ScheduleTxn(
    txn::Cluster* cluster, txn::TxnEngine* engine, SimTime at, TxnId id,
    txn::Priority priority, std::vector<Key> read_set,
    std::vector<Key> write_set, int origin_site,
    txn::WriteComputer compute = nullptr) {
  auto probe = std::make_shared<TxnProbe>();
  cluster->simulator()->ScheduleAt(at, [=]() {
    probe->started_at = cluster->simulator()->Now();
    txn::TxnRequest req;
    req.id = id;
    req.priority = priority;
    req.read_set = read_set;
    req.write_set = write_set;
    req.origin_site = origin_site;
    req.compute_writes = compute ? compute : IncrementWrites();
    engine->Execute(req, [probe, cluster](const txn::TxnResult& r) {
      probe->result = r;
      probe->finished_at = cluster->simulator()->Now();
    });
  });
  return probe;
}

}  // namespace natto::testutil

#endif  // NATTO_TESTS_ENGINE_TEST_UTIL_H_
