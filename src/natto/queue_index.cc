#include "natto/queue_index.h"

#include <algorithm>

#include "common/logging.h"

namespace natto::core {

void QueueIndex::KeyLists::Add(Key key, Use use) {
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

void QueueIndex::KeyLists::Remove(Key key, OrderKey order, bool writes) {
  const uint32_t* list = list_of_.find(key);
  NATTO_DCHECK(list != nullptr);
  std::vector<Use>& uses = lists_[*list - 1];
  auto it = std::find_if(uses.begin(), uses.end(), [&](const Use& u) {
    return u.order == order && u.writes == writes;
  });
  NATTO_DCHECK(it != uses.end());
  // Swap-and-pop: list order is never observable.
  *it = uses.back();
  uses.pop_back();
  if (uses.empty()) {
    free_.push_back(*list);
    list_of_.erase(key);
  }
}

const std::vector<QueueIndex::Use>* QueueIndex::KeyLists::Find(
    Key key) const {
  const uint32_t* list = list_of_.find(key);
  return list == nullptr ? nullptr : &lists_[*list - 1];
}

void QueueIndex::Add(Stage stage, OrderKey order, int level,
                     const std::vector<Key>& reads,
                     const std::vector<Key>& writes) {
  NATTO_DCHECK(ids_.find(order.second) == nullptr);
  ids_[order.second] = Where{order.first, stage};
  KeyLists& lists = lists_[static_cast<int>(stage)];
  for (Key k : reads) lists.Add(k, Use{order, level, /*writes=*/false});
  for (Key k : writes) lists.Add(k, Use{order, level, /*writes=*/true});
}

void QueueIndex::Remove(OrderKey order, const std::vector<Key>& reads,
                        const std::vector<Key>& writes) {
  const Where* where = ids_.find(order.second);
  NATTO_DCHECK(where != nullptr);
  KeyLists& lists = lists_[static_cast<int>(where->stage)];
  ids_.erase(order.second);
  for (Key k : reads) lists.Remove(k, order, /*writes=*/false);
  for (Key k : writes) lists.Remove(k, order, /*writes=*/true);
}

template <typename Fn>
bool QueueIndex::ForEachConflicting(Stage stage, const std::vector<Key>& reads,
                                    const std::vector<Key>& writes,
                                    Fn fn) const {
  const KeyLists& lists = lists_[static_cast<int>(stage)];
  // A read conflicts with the key's writers; a write with every use.
  auto visit = [&](Key k, bool writers_only) {
    const std::vector<Use>* uses = lists.Find(k);
    if (uses == nullptr) return false;
    for (const Use& u : *uses) {
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

void QueueIndex::Conflicting(Stage stage, const std::vector<Key>& reads,
                             const std::vector<Key>& writes, int min_level,
                             int max_level,
                             std::vector<OrderKey>* out) const {
  out->clear();
  ForEachConflicting(stage, reads, writes, [&](const Use& u) {
    if (u.level >= min_level && u.level <= max_level) out->push_back(u.order);
    return false;
  });
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool QueueIndex::AnyConflictingBefore(Stage stage,
                                      const std::vector<Key>& reads,
                                      const std::vector<Key>& writes,
                                      OrderKey before) const {
  return ForEachConflicting(stage, reads, writes, [&](const Use& u) {
    return u.order < before;
  });
}

}  // namespace natto::core
