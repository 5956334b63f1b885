#ifndef NATTO_OBS_TRACE_H_
#define NATTO_OBS_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "obs/abort_cause.h"

namespace natto::sim {
class Simulator;
}  // namespace natto::sim

namespace natto::obs {

/// Tracing knobs. Tracing is off by default, and a disabled tracer records
/// nothing: each instrumented call costs one flag test.
struct TraceOptions {
  bool enabled = false;
  /// Record 1-in-N transactions, selected by a deterministic hash of the
  /// txn id (independent of thread count and run order). 1 = every txn.
  int sample_period = 1;
};

/// One phase of a transaction's lifecycle at one place (partition < 0 means
/// client/coordinator scope). `end < start` marks a span that was still open
/// when the transaction finished (e.g. queued when priority-aborted); the
/// exporters close such spans at the transaction's end time.
struct SpanEvent {
  std::string name;
  int partition = -1;
  SimTime start = 0;
  SimTime end = -1;
  bool instant = false;
};

/// Full lifecycle record of one sampled transaction attempt. Retries get
/// fresh txn ids, so every attempt is its own trace.
struct TxnTrace {
  TxnId id = 0;
  int priority = 0;
  SimTime begin_time = 0;
  SimTime end_time = -1;
  /// "committed" | "aborted" | "user_aborted" | "" (never finished).
  std::string outcome;
  AbortCause cause = AbortCause::kNone;
  std::vector<SpanEvent> events;
};

/// Per-transaction lifecycle span recorder. Each record is stamped with the
/// calling lane's simulated Now() and applied through
/// Simulator::DeferOrdered, so records land in serial order on every kernel.
/// Records only touch the tracer's own buffer, which the harness drains
/// after the run: the tracer schedules nothing and draws no randomness, so
/// enabling it cannot perturb the simulation. One tracer per simulation
/// cell.
class Tracer {
 public:
  /// `simulator` supplies each record's time and its serial order.
  Tracer(TraceOptions options, sim::Simulator* simulator)
      : options_(options), simulator_(simulator) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return options_.enabled; }

  /// Deterministic sampling decision for `id`; false when disabled.
  bool Sampled(TxnId id) const;

  /// Starts a transaction trace (gateway, at submission). All other calls
  /// for ids that were not begun (or not sampled) are ignored.
  void TxnBegin(TxnId id, int priority) {
    if (enabled()) Post(id, {.op = Op::kTxnBegin, .priority = priority});
  }

  /// Opens / closes a named span. Closing matches the most recent open span
  /// with the same (name, partition); unmatched closes are dropped.
  void SpanBegin(TxnId id, const char* name, int partition) {
    if (enabled()) {
      Post(id, {.op = Op::kSpanBegin, .name = name, .partition = partition});
    }
  }
  void SpanEnd(TxnId id, const char* name, int partition) {
    if (enabled()) {
      Post(id, {.op = Op::kSpanEnd, .name = name, .partition = partition});
    }
  }

  /// Zero-duration marker event.
  void Instant(TxnId id, const char* name, int partition) {
    if (enabled()) {
      Post(id, {.op = Op::kInstant, .name = name, .partition = partition});
    }
  }

  /// Records the first abort cause attributed to `id`. Later attributions
  /// are ignored: several participants can refuse the same transaction, and
  /// the taxonomy assigns the cause that reached it first.
  void AttributeAbort(TxnId id, AbortCause cause) {
    if (enabled()) Post(id, {.op = Op::kAttributeAbort, .cause = cause});
  }

  /// Finishes a trace with the decided outcome. The recorded cause (if any)
  /// wins over `cause`; pass kNone for commits.
  void TxnEnd(TxnId id, const char* outcome, AbortCause cause) {
    if (enabled()) {
      Post(id, {.op = Op::kTxnEnd, .name = outcome, .cause = cause});
    }
  }

  /// Moves out all traces, sorted by (begin_time, id) so the stream is
  /// deterministic. Unfinished traces (in-flight at simulation end) are
  /// included with an empty outcome.
  std::vector<TxnTrace> Drain();

 private:
  enum class Op {
    kTxnBegin,
    kSpanBegin,
    kSpanEnd,
    kInstant,
    kAttributeAbort,
    kTxnEnd,
  };
  /// One recording call's arguments; `name` is a span's name or TxnEnd's
  /// outcome.
  struct Record {
    Op op;
    const char* name = nullptr;
    int partition = -1;
    int priority = 0;
    AbortCause cause = AbortCause::kNone;
  };

  /// Applies `r` to `id`'s trace, at the caller's Now() and in serial
  /// order, if `id` is sampled.
  void Post(TxnId id, Record r);
  void Apply(TxnId id, const Record& r, SimTime now);

  TraceOptions options_;
  sim::Simulator* simulator_;
  // Ordered by txn id: Drain()'s sort must not start from hash order.
  std::map<TxnId, TxnTrace> txns_;
};

/// Chrome trace_event JSON (load via chrome://tracing or Perfetto): one
/// process per partition (pid = partition + 1, pid 0 = client scope), one
/// thread per transaction, complete ("X") events in sim-microseconds.
std::string ChromeTraceJson(const std::vector<TxnTrace>& traces);

/// Flat JSONL stream: one line per span event, tagged with txn id, priority,
/// outcome and abort cause — grep/jq-friendly.
std::string TraceJsonLines(const std::vector<TxnTrace>& traces);

/// Human-readable single-transaction timeline (used by nattosim).
std::string RenderTimeline(const TxnTrace& trace);

}  // namespace natto::obs

#endif  // NATTO_OBS_TRACE_H_
