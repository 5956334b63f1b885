#include "store/prepared_set.h"

#include <algorithm>

#include "common/logging.h"

namespace natto::store {

void PreparedSet::Add(TxnId txn, const std::vector<Key>& reads,
                      const std::vector<Key>& writes) {
  NATTO_DCHECK(!Contains(txn));
  footprints_[txn] = Footprint{reads, writes};
  for (Key k : reads) uses_.Add(k, Use{txn, /*writes=*/false});
  for (Key k : writes) uses_.Add(k, Use{txn, /*writes=*/true});
}

void PreparedSet::Remove(TxnId txn) {
  const Footprint* f = footprints_.find(txn);
  if (f == nullptr) return;
  for (Key k : f->reads) uses_.Remove(k, Use{txn, /*writes=*/false});
  for (Key k : f->writes) uses_.Remove(k, Use{txn, /*writes=*/true});
  footprints_.erase(txn);
}

bool PreparedSet::HasConflict(const std::vector<Key>& reads,
                              const std::vector<Key>& writes) const {
  return uses_.ForEachConflicting(reads, writes,
                                  [](const Use&) { return true; });
}

std::vector<TxnId> PreparedSet::Conflicting(
    const std::vector<Key>& reads, const std::vector<Key>& writes) const {
  std::vector<TxnId> out;
  uses_.ForEachConflicting(reads, writes, [&out](const Use& u) {
    out.push_back(u.txn);
    return false;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace natto::store
