#ifndef NATTO_TXN_TOPOLOGY_H_
#define NATTO_TXN_TOPOLOGY_H_

#include <utility>
#include <vector>

#include "common/types.h"

namespace natto::txn {

/// Placement of data partitions onto datacenter sites: each partition has
/// `num_replicas` replicas at distinct sites; replica 0 is the leader. The
/// paper's default deployment is 5 partitions x 3 replicas over 5 sites,
/// one partition leader per datacenter (Sec 5.1).
class Topology {
 public:
  Topology(int num_partitions, int num_replicas, int num_sites);

  /// Default spread: partition p's replicas at sites (p, p+1, ..., p+r-1)
  /// mod num_sites, so each site hosts at most one replica per partition
  /// and leaders rotate across sites.
  static Topology Spread(int num_partitions, int num_replicas, int num_sites);

  int num_partitions() const { return static_cast<int>(replica_sites_.size()); }
  int num_replicas() const { return num_replicas_; }
  int num_sites() const { return num_sites_; }

  const std::vector<int>& ReplicaSites(int partition) const {
    return replica_sites_[partition];
  }
  int LeaderSite(int partition) const { return replica_sites_[partition][0]; }

  /// Hash partitioning of the keyspace.
  int PartitionOfKey(Key key) const {
    return static_cast<int>(key % static_cast<Key>(num_partitions()));
  }

  /// Keys of `keys` living on `partition`, in order.
  std::vector<Key> LocalKeys(const std::vector<Key>& keys,
                             int partition) const;

  /// Entries of `kvs` (writes, or read versions) whose key lives on
  /// `partition`, in order.
  template <typename V>
  std::vector<std::pair<Key, V>> LocalEntries(
      const std::vector<std::pair<Key, V>>& kvs, int partition) const {
    std::vector<std::pair<Key, V>> out;
    for (const auto& [k, v] : kvs) {
      if (PartitionOfKey(k) == partition) out.emplace_back(k, v);
    }
    return out;
  }

  /// Participant partitions of a transaction footprint, sorted,
  /// deduplicated.
  std::vector<int> Participants(const std::vector<Key>& reads,
                                const std::vector<Key>& writes) const;

  /// Partition whose leader lives at `site`, or -1. Used to place each
  /// client's coordinator on its local replica group (Carousel colocates
  /// the coordinator with the client).
  int PartitionLedAt(int site) const;

  void SetReplicaSites(int partition, std::vector<int> sites);

 private:
  int num_replicas_;
  int num_sites_;
  std::vector<std::vector<int>> replica_sites_;
};

}  // namespace natto::txn

#endif  // NATTO_TXN_TOPOLOGY_H_
