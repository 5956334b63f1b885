#ifndef NATTO_TXN_TRANSACTION_H_
#define NATTO_TXN_TRANSACTION_H_

#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "obs/abort_cause.h"

namespace natto::txn {

/// Transaction priority. The paper evaluates two levels (Sec 3.1) but notes
/// that none of its techniques is specific to two; this implementation
/// supports the multi-level generalization (the paper's stated future
/// work): any strictly higher level preempts lower ones, level 0 is
/// processed with OCC, and levels above 0 use the locking path.
enum class Priority : int { kLow = 0, kMedium = 1, kHigh = 2 };

/// Numeric level; larger preempts smaller.
inline int PriorityLevel(Priority p) { return static_cast<int>(p); }

/// Anything above the base level is scheduled preferentially.
inline bool IsPrioritized(Priority p) { return PriorityLevel(p) > 0; }

inline const char* PriorityName(Priority p) {
  switch (p) {
    case Priority::kLow:
      return "low";
    case Priority::kMedium:
      return "medium";
    case Priority::kHigh:
      return "high";
  }
  return "?";
}

/// One read result returned by the first round of a 2FI transaction.
struct ReadResult {
  Key key = 0;
  Value value = 0;
  uint64_t version = 0;
};

/// The write round: values for a subset of the declared write set, decided
/// by the client from the read results (2FI interactivity), or a user abort.
struct WriteDecision {
  bool user_abort = false;
  std::vector<std::pair<Key, Value>> writes;
};

/// Client-side logic that turns round-1 reads into round-2 writes. Must be a
/// pure function of the reads: the engine may invoke it again when an
/// optimistic path (conditional prepare) fails and the transaction
/// re-executes on the normal path.
using WriteComputer = std::function<WriteDecision(const std::vector<ReadResult>&)>;

/// A 2-round Fixed-set Interactive transaction request: the read and write
/// key sets are declared up front; write values are interactive.
struct TxnRequest {
  TxnId id = 0;
  Priority priority = Priority::kLow;
  std::vector<Key> read_set;
  std::vector<Key> write_set;
  WriteComputer compute_writes;
  /// Datacenter of the issuing client (the coordinator is colocated).
  int origin_site = 0;
};

enum class TxnOutcome {
  kCommitted,
  kAborted,     // system abort: conflict, priority abort, ordering violation
  kUserAborted, // client chose to abort after round 1
};

struct TxnResult {
  TxnOutcome outcome = TxnOutcome::kAborted;
  /// Taxonomy cause for aborted outcomes (kNone when committed). Engines
  /// must attribute every system abort; the harness counts per-cause
  /// metrics and the taxonomy tests pin the `unknown` bucket to zero.
  obs::AbortCause abort_cause = obs::AbortCause::kNone;
  /// Round-1 reads observed by a committed transaction (checker input).
  std::vector<ReadResult> reads;
  /// Writes applied by a committed transaction (checker input).
  std::vector<std::pair<Key, Value>> writes;
};

using TxnCallback = std::function<void(const TxnResult&)>;

/// A transaction-processing system under test. `Execute` performs one
/// attempt; the retry loop (immediate retry, fail after 100 attempts,
/// Sec 5.1) lives in the harness client.
class TxnEngine {
 public:
  virtual ~TxnEngine() = default;

  virtual void Execute(const TxnRequest& request, TxnCallback done) = 0;

  /// Display name, e.g. "Carousel Basic" or "Natto-RECSF".
  virtual std::string name() const = 0;

  /// Test/checker hook: committed value of `key` at the authoritative
  /// replica. Only meaningful when the simulation has quiesced.
  virtual Value DebugValue(Key key) = 0;
};

}  // namespace natto::txn

#endif  // NATTO_TXN_TRANSACTION_H_
