#ifndef NATTO_NATTO_QUEUE_INDEX_H_
#define NATTO_NATTO_QUEUE_INDEX_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace natto::core {

/// A Natto server's queue order: execution timestamp, then id.
using OrderKey = std::pair<SimTime, TxnId>;

/// Ordered after every transaction.
inline constexpr OrderKey kQueueEnd{std::numeric_limits<SimTime>::max(),
                                    std::numeric_limits<TxnId>::max()};

/// Index of the transactions a NattoServer holds queued (received, waiting
/// for their timestamp) or waiting (processed, blocked). It maps each id to
/// its stage and timestamp, and, per stage, each key to the transactions
/// whose local footprint lists it, with their priority levels. A conflict
/// check then visits only the transactions of one stage that share a key
/// (the lock-manager idiom) instead of walking the whole stage.
///
/// Two transactions conflict iff one writes a key the other reads or
/// writes, as in PreparedSet. Each key keeps one flat list per stage, with
/// one entry per time a footprint lists the key; emptied lists are
/// recycled with their capacity, so steady state does not allocate.
class QueueIndex {
 public:
  enum class Stage : uint8_t { kQueued, kWaiting };

  struct Where {
    SimTime ts = 0;
    Stage stage = Stage::kQueued;
  };

  /// Registers a transaction entering `stage` at priority `level`. An id
  /// is in at most one stage at a time.
  void Add(Stage stage, OrderKey order, int level,
           const std::vector<Key>& reads, const std::vector<Key>& writes);

  /// Removes a transaction registered with the same order and footprint.
  void Remove(OrderKey order, const std::vector<Key>& reads,
              const std::vector<Key>& writes);

  /// The stage and timestamp of `id`, or nullptr when it is neither queued
  /// nor waiting.
  const Where* Find(TxnId id) const { return ids_.find(id); }

  /// Sets `out` to the `stage` transactions at a priority level in
  /// [min_level, max_level] that conflict with the given footprint, in
  /// ascending order without repeats.
  void Conflicting(Stage stage, const std::vector<Key>& reads,
                   const std::vector<Key>& writes, int min_level,
                   int max_level, std::vector<OrderKey>* out) const;

  /// True iff some `stage` transaction ordered before `before` conflicts
  /// with the given footprint.
  bool AnyConflictingBefore(Stage stage, const std::vector<Key>& reads,
                            const std::vector<Key>& writes,
                            OrderKey before) const;

 private:
  struct Use {
    OrderKey order;
    int level;
    bool writes;
  };

  /// The per-key use lists of one stage.
  class KeyLists {
   public:
    void Add(Key key, Use use);
    void Remove(Key key, OrderKey order, bool writes);
    /// The uses of `key`, or nullptr when it has none.
    const std::vector<Use>* Find(Key key) const;

   private:
    /// Key -> one-based index into lists_, so the 0 that operator[]
    /// inserts for a new key means "no list yet".
    FlatMap<uint32_t> list_of_;
    std::vector<std::vector<Use>> lists_;
    /// One-based indexes of empty lists_ entries, kept for reuse.
    std::vector<uint32_t> free_;
  };

  /// Calls fn(use) for each `stage` use that conflicts with the footprint;
  /// stops early when fn returns true, and then returns true.
  template <typename Fn>
  bool ForEachConflicting(Stage stage, const std::vector<Key>& reads,
                          const std::vector<Key>& writes, Fn fn) const;

  FlatMap<Where> ids_;
  KeyLists lists_[2];  // indexed by Stage
};

}  // namespace natto::core

#endif  // NATTO_NATTO_QUEUE_INDEX_H_
