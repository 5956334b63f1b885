#include "txn/topology.h"

#include <algorithm>

#include "common/logging.h"

namespace natto::txn {

Topology::Topology(int num_partitions, int num_replicas, int num_sites)
    : num_replicas_(num_replicas), num_sites_(num_sites) {
  NATTO_CHECK(num_partitions > 0);
  NATTO_CHECK(num_replicas > 0);
  NATTO_CHECK(num_sites > 0);
  NATTO_CHECK(num_replicas <= num_sites)
      << "replicas of a partition must live at distinct sites";
  replica_sites_.resize(num_partitions);
}

Topology Topology::Spread(int num_partitions, int num_replicas,
                          int num_sites) {
  Topology t(num_partitions, num_replicas, num_sites);
  for (int p = 0; p < num_partitions; ++p) {
    std::vector<int> sites;
    sites.reserve(num_replicas);
    for (int r = 0; r < num_replicas; ++r) {
      sites.push_back((p + r) % num_sites);
    }
    t.replica_sites_[p] = std::move(sites);
  }
  return t;
}

void Topology::SetReplicaSites(int partition, std::vector<int> sites) {
  NATTO_CHECK(partition >= 0 && partition < num_partitions());
  NATTO_CHECK(static_cast<int>(sites.size()) == num_replicas_);
  replica_sites_[partition] = std::move(sites);
}

std::vector<int> Topology::Participants(const std::vector<Key>& reads,
                                        const std::vector<Key>& writes) const {
  std::vector<int> out;
  out.reserve(reads.size() + writes.size());
  for (Key k : reads) out.push_back(PartitionOfKey(k));
  for (Key k : writes) out.push_back(PartitionOfKey(k));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Key> Topology::LocalKeys(const std::vector<Key>& keys,
                                     int partition) const {
  std::vector<Key> out;
  for (Key k : keys) {
    if (PartitionOfKey(k) == partition) out.push_back(k);
  }
  return out;
}

int Topology::PartitionLedAt(int site) const {
  for (int p = 0; p < num_partitions(); ++p) {
    if (LeaderSite(p) == site) return p;
  }
  return -1;
}

}  // namespace natto::txn
