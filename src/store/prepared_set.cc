#include "store/prepared_set.h"

#include <algorithm>

#include "common/logging.h"

namespace natto::store {
namespace {

// Swap-and-pop: the lists are unordered. A footprint that lists a key
// twice added `txn` twice, and Remove walks that key twice.
void RemoveOnce(std::vector<TxnId>& ids, TxnId txn) {
  auto it = std::find(ids.begin(), ids.end(), txn);
  if (it == ids.end()) return;
  *it = ids.back();
  ids.pop_back();
}

}  // namespace

void PreparedSet::Add(TxnId txn, const std::vector<Key>& reads,
                      const std::vector<Key>& writes) {
  NATTO_DCHECK(!footprints_.contains(txn));
  footprints_[txn] = Footprint{reads, writes};
  for (Key k : reads) by_key_[k].readers.push_back(txn);
  for (Key k : writes) by_key_[k].writers.push_back(txn);
}

void PreparedSet::Remove(TxnId txn) {
  auto it = footprints_.find(txn);
  if (it == footprints_.end()) return;
  for (Key k : it->second.reads) {
    auto ku = by_key_.find(k);
    if (ku != by_key_.end()) {
      RemoveOnce(ku->second.readers, txn);
      if (ku->second.readers.empty() && ku->second.writers.empty()) {
        by_key_.erase(ku);
      }
    }
  }
  for (Key k : it->second.writes) {
    auto ku = by_key_.find(k);
    if (ku != by_key_.end()) {
      RemoveOnce(ku->second.writers, txn);
      if (ku->second.readers.empty() && ku->second.writers.empty()) {
        by_key_.erase(ku);
      }
    }
  }
  footprints_.erase(it);
}

bool PreparedSet::HasConflict(const std::vector<Key>& reads,
                              const std::vector<Key>& writes) const {
  for (Key k : reads) {
    auto it = by_key_.find(k);
    if (it != by_key_.end() && !it->second.writers.empty()) return true;
  }
  for (Key k : writes) {
    auto it = by_key_.find(k);
    if (it != by_key_.end() &&
        (!it->second.writers.empty() || !it->second.readers.empty())) {
      return true;
    }
  }
  return false;
}

std::vector<TxnId> PreparedSet::Conflicting(
    const std::vector<Key>& reads, const std::vector<Key>& writes) const {
  std::vector<TxnId> out;
  auto add_all = [&out](const std::vector<TxnId>& s) {
    out.insert(out.end(), s.begin(), s.end());
  };
  for (Key k : reads) {
    auto it = by_key_.find(k);
    if (it != by_key_.end()) add_all(it->second.writers);
  }
  for (Key k : writes) {
    auto it = by_key_.find(k);
    if (it != by_key_.end()) {
      add_all(it->second.writers);
      add_all(it->second.readers);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace natto::store
