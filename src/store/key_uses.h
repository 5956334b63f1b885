#ifndef NATTO_STORE_KEY_USES_H_
#define NATTO_STORE_KEY_USES_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/logging.h"
#include "common/types.h"

namespace natto::store {

/// Per-key lists of the transactions whose footprints use each key (the
/// lock-manager idiom), so a conflict check visits only the uses of the
/// keys it touches. `Use` is a small record with a `bool writes` member and
/// an operator==; it names the transaction however the owner needs.
///
/// Two transactions conflict iff one writes a key the other reads or
/// writes. This class holds the only copy of that rule. Each key keeps one
/// flat, unordered list, with one entry per time a footprint lists the
/// key, so a use can be visited more than once and callers that collect
/// sort and dedupe. Emptied lists are recycled with their capacity, so
/// steady state does not allocate.
template <typename Use>
class KeyUses {
 public:
  void Add(Key key, const Use& use) {
    uint32_t& list = list_of_[key];
    if (list == 0) {
      if (free_.empty()) {
        lists_.emplace_back();
        free_.push_back(static_cast<uint32_t>(lists_.size()));
      }
      list = free_.back();
      free_.pop_back();
    }
    lists_[list - 1].push_back(use);
  }

  /// Removes one entry equal to `use` from `key`'s list; it must be there.
  void Remove(Key key, const Use& use) {
    const uint32_t* list = list_of_.find(key);
    NATTO_DCHECK(list != nullptr);
    std::vector<Use>& uses = lists_[*list - 1];
    auto it = std::find(uses.begin(), uses.end(), use);
    NATTO_DCHECK(it != uses.end());
    // Swap-and-pop: list order is never observable.
    *it = uses.back();
    uses.pop_back();
    if (uses.empty()) {
      free_.push_back(*list);
      list_of_.erase(key);
    }
  }

  /// Calls fn(use) for each use that conflicts with the given footprint: a
  /// read conflicts with the key's writers, a write with every use. Stops
  /// early when fn returns true, and then returns true.
  template <typename Fn>
  bool ForEachConflicting(const std::vector<Key>& reads,
                          const std::vector<Key>& writes, Fn fn) const {
    auto visit = [&](Key k, bool writers_only) {
      const uint32_t* list = list_of_.find(k);
      if (list == nullptr) return false;
      for (const Use& u : lists_[*list - 1]) {
        if (writers_only && !u.writes) continue;
        if (fn(u)) return true;
      }
      return false;
    };
    for (Key k : reads) {
      if (visit(k, /*writers_only=*/true)) return true;
    }
    for (Key k : writes) {
      if (visit(k, /*writers_only=*/false)) return true;
    }
    return false;
  }

 private:
  /// Key -> one-based index into lists_, so the 0 that operator[] inserts
  /// for a new key means "no list yet".
  FlatMap<uint32_t> list_of_;
  std::vector<std::vector<Use>> lists_;
  /// One-based indexes of empty lists_ entries, kept for reuse.
  std::vector<uint32_t> free_;
};

}  // namespace natto::store

#endif  // NATTO_STORE_KEY_USES_H_
