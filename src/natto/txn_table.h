#ifndef NATTO_NATTO_TXN_TABLE_H_
#define NATTO_NATTO_TXN_TABLE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "net/transport.h"
#include "store/key_uses.h"
#include "txn/transaction.h"

namespace natto::core {

/// Wire form of a Natto read-and-prepare request. Beyond Carousel, it
/// carries the execution timestamp and the estimated arrival time at every
/// participant (used by conditional prepare, Sec 3.3.2).
struct NattoWireTxn {
  TxnId id = 0;
  txn::Priority priority = txn::Priority::kLow;
  std::vector<Key> read_set;
  std::vector<Key> write_set;
  SimTime ts = 0;  // execution timestamp (estimated arrival at furthest)
  std::vector<std::pair<int, SimTime>> est_arrivals;  // partition -> est
  net::NodeId coordinator = -1;
  net::NodeId client = -1;
  int coordinator_site = 0;
};

/// A transaction held by a Natto partition leader.
struct TxnState {
  NattoWireTxn txn;
  std::vector<Key> local_reads;
  std::vector<Key> local_writes;
  int read_version = 0;
  // Conditional prepare bookkeeping.
  bool conditional = false;
  TxnId condition_on = 0;
};

/// A Natto server's queue order: execution timestamp, then id.
using OrderKey = std::pair<SimTime, TxnId>;

/// Ordered after every transaction.
inline constexpr OrderKey kQueueEnd{std::numeric_limits<SimTime>::max(),
                                    std::numeric_limits<TxnId>::max()};

/// The transactions a NattoServer holds, each in exactly one stage (paper
/// Sec 3.2-3.4): queued (received, waiting for its timestamp), waiting
/// (processed high priority, blocked) or prepared. Each stage is ordered by
/// OrderKey. An id index points at each stored state, and per stage a
/// store::KeyUses maps each key to the transactions whose local footprint
/// lists it, with their priority levels, so a conflict check visits only
/// the transactions of one stage that share a key.
///
/// A stored state stays at one address until it is taken.
class TxnTable {
 public:
  enum class Stage : uint8_t { kQueued, kWaiting, kPrepared };

  /// Inserts `st` into `stage` and returns the stored state. No stage may
  /// hold its id already.
  TxnState& Insert(Stage stage, TxnState st);

  /// The state of `id` if `stage` holds it, else nullptr.
  TxnState* Find(Stage stage, TxnId id);

  /// Removes `id` from the stage that holds it and returns its state, or
  /// nullopt when no stage holds it. `from`, when given, receives the
  /// stage.
  std::optional<TxnState> Take(TxnId id, Stage* from = nullptr);

  /// The first `stage` transaction in queue order, or nullptr when the
  /// stage is empty.
  const TxnState* First(Stage stage) const;

  /// Sets `out` to the `stage` transactions at a priority level in
  /// [min_level, max_level] that conflict with the given footprint, in
  /// ascending order without repeats.
  void Conflicting(Stage stage, const std::vector<Key>& reads,
                   const std::vector<Key>& writes, int min_level,
                   int max_level, std::vector<OrderKey>* out) const;

  /// True iff some `stage` transaction ordered before `before` conflicts
  /// with the given footprint.
  bool AnyConflicting(Stage stage, const std::vector<Key>& reads,
                      const std::vector<Key>& writes,
                      OrderKey before = kQueueEnd) const;

 private:
  using Ordered = std::map<OrderKey, TxnState>;

  struct Held {
    Ordered::iterator it;
    Stage stage = Stage::kQueued;
  };

  struct Use {
    OrderKey order;
    int level;
    bool writes;
    bool operator==(const Use&) const = default;
  };

  static constexpr int kStages = 3;

  Ordered stages_[kStages];  // indexed by Stage
  FlatMap<Held> ids_;
  store::KeyUses<Use> uses_[kStages];
};

}  // namespace natto::core

#endif  // NATTO_NATTO_TXN_TABLE_H_
