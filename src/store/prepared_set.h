#ifndef NATTO_STORE_PREPARED_SET_H_
#define NATTO_STORE_PREPARED_SET_H_

#include <cstddef>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "store/key_uses.h"

namespace natto::store {

/// Tracks prepared transactions' read/write key footprints for OCC conflict
/// checks (Carousel, TAPIR). Two transactions conflict iff one writes a key
/// the other reads or writes; the per-key lists and the rule live in
/// KeyUses.
class PreparedSet {
 public:
  /// Registers a prepared transaction's footprint on this partition.
  void Add(TxnId txn, const std::vector<Key>& reads,
           const std::vector<Key>& writes);

  /// Removes a transaction (commit applied or aborted).
  void Remove(TxnId txn);

  bool Contains(TxnId txn) const { return footprints_.find(txn) != nullptr; }
  size_t size() const { return footprints_.size(); }

  /// True iff a transaction with the given footprint conflicts with any
  /// prepared transaction.
  bool HasConflict(const std::vector<Key>& reads,
                   const std::vector<Key>& writes) const;

  /// All prepared transactions conflicting with the given footprint,
  /// deduplicated, in insertion-id order (deterministic).
  std::vector<TxnId> Conflicting(const std::vector<Key>& reads,
                                 const std::vector<Key>& writes) const;

 private:
  struct Footprint {
    std::vector<Key> reads;
    std::vector<Key> writes;
  };

  struct Use {
    TxnId txn;
    bool writes;
    bool operator==(const Use&) const = default;
  };

  FlatMap<Footprint> footprints_;
  KeyUses<Use> uses_;
};

}  // namespace natto::store

#endif  // NATTO_STORE_PREPARED_SET_H_
