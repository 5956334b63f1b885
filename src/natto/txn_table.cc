#include "natto/txn_table.h"

#include <algorithm>

#include "common/logging.h"

namespace natto::core {

TxnState& TxnTable::Insert(Stage stage, TxnState st) {
  NATTO_DCHECK(ids_.find(st.txn.id) == nullptr)
      << "txn " << st.txn.id << " is already held";
  const OrderKey order{st.txn.ts, st.txn.id};
  const int level = txn::PriorityLevel(st.txn.priority);
  const int s = static_cast<int>(stage);
  auto it = stages_[s].emplace(order, std::move(st)).first;
  ids_[order.second] = Held{it, stage};
  for (Key k : it->second.local_reads) {
    uses_[s].Add(k, Use{order, level, /*writes=*/false});
  }
  for (Key k : it->second.local_writes) {
    uses_[s].Add(k, Use{order, level, /*writes=*/true});
  }
  return it->second;
}

TxnState* TxnTable::Find(Stage stage, TxnId id) {
  Held* held = ids_.find(id);
  return held != nullptr && held->stage == stage ? &held->it->second
                                                 : nullptr;
}

std::optional<TxnState> TxnTable::Take(TxnId id, Stage* from) {
  const Held* found = ids_.find(id);
  if (found == nullptr) return std::nullopt;
  const Held held = *found;
  ids_.erase(id);
  const int s = static_cast<int>(held.stage);
  const OrderKey order = held.it->first;
  TxnState st = std::move(held.it->second);
  stages_[s].erase(held.it);
  const int level = txn::PriorityLevel(st.txn.priority);
  for (Key k : st.local_reads) {
    uses_[s].Remove(k, Use{order, level, /*writes=*/false});
  }
  for (Key k : st.local_writes) {
    uses_[s].Remove(k, Use{order, level, /*writes=*/true});
  }
  if (from != nullptr) *from = held.stage;
  return st;
}

const TxnState* TxnTable::First(Stage stage) const {
  const Ordered& ordered = stages_[static_cast<int>(stage)];
  return ordered.empty() ? nullptr : &ordered.begin()->second;
}

void TxnTable::Conflicting(Stage stage, const std::vector<Key>& reads,
                           const std::vector<Key>& writes, int min_level,
                           int max_level, std::vector<OrderKey>* out) const {
  out->clear();
  uses_[static_cast<int>(stage)].ForEachConflicting(
      reads, writes, [&](const Use& u) {
        if (u.level >= min_level && u.level <= max_level) {
          out->push_back(u.order);
        }
        return false;
      });
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool TxnTable::AnyConflicting(Stage stage, const std::vector<Key>& reads,
                              const std::vector<Key>& writes,
                              OrderKey before) const {
  return uses_[static_cast<int>(stage)].ForEachConflicting(
      reads, writes, [&](const Use& u) { return u.order < before; });
}

}  // namespace natto::core
