#ifndef NATTO_SIM_SIMULATOR_H_
#define NATTO_SIM_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_set>

#include "common/sim_time.h"
#include "sim/calendar_queue.h"
#include "sim/event_fn.h"

namespace natto::sim {

class DeterminismLedger;
class ParallelKernel;
struct ParallelPhaseStats;

/// Configuration for the intra-run parallel kernel (sim/parallel_kernel.h,
/// DESIGN.md §4.11). Only a site-parallel kernel is valid: at least two
/// threads and two sites, and a positive lookahead (ConfigureParallel
/// NATTO_CHECKs all three). No option changes what Schedule*, Cancel or
/// DeferOrdered do; only a worker-lane Stop() lands later (see Stop()).
struct ParallelOptions {
  /// Worker threads, including the caller (which participates in windows).
  int num_threads;
  /// Site partitions owning their own CalendarQueue.
  int num_sites;
  /// Conservative PDES lookahead: a callback firing at time T on one site
  /// may schedule onto *another* site no earlier than T + lookahead.
  SimDuration lookahead;
};

/// Deterministic discrete-event simulator. All nodes (clients, servers,
/// proxies, replicas) share one `Simulator`; events scheduled at equal times
/// run in scheduling order (FIFO), which keeps runs exactly reproducible.
///
/// It runs serially unless ConfigureParallel installs the site-parallel
/// kernel, which executes per-site events on worker threads and merges
/// them back into the exact serial order: the evaluation quantities
/// (latency distributions under WAN delays) depend on message timing, not
/// on host parallelism, and determinism makes property tests possible.
///
/// Internals (DESIGN.md §4.8): events are pooled nodes in a calendar queue
/// (64 µs buckets, overflow heap past a ~524 ms horizon) and callbacks are
/// move-only small-buffer `EventFn`s, so steady-state scheduling performs
/// zero heap allocations. The executed (time, seq) sequence is identical to
/// the seed kernel's binary heap — sim_kernel_test.cc locksteps the two.
class Simulator {
 public:
  using Callback = EventFn;
  /// Handle for Cancel(); every Schedule* call returns a fresh one.
  using EventId = uint64_t;

  // Both out-of-line (parallel_kernel.cc): ParallelKernel is incomplete
  // here and unique_ptr needs the full type to destroy it.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0. Inside a parallel window this is
  /// the executing site's local clock (the serial Now() an event at that
  /// timestamp would observe).
  SimTime Now() const { return parallel_ == nullptr ? now_ : ParallelNow(); }

  /// Schedules `cb` to run at absolute simulated time `t` (>= Now()).
  /// Scheduling in the past is a programming error (NATTO_DCHECK); release
  /// builds clamp to Now(), mirroring ScheduleAfter's negative-delay clamp.
  EventId ScheduleAt(SimTime t, Callback cb);

  /// Site-routing sentinels for ScheduleAtSite.
  static constexpr int kGlobalSite = -1;   // main-thread global queue
  static constexpr int kInheritSite = -2;  // same site as the caller

  /// ScheduleAt variant that names the partition the event belongs to.
  /// Serial kernel: identical to ScheduleAt.
  /// Site-parallel kernel: the event lands in `site`'s calendar queue and
  /// fires on that site's lane. Cross-site schedules from a worker must
  /// satisfy t >= window_end (guaranteed when t >= Now() + lookahead).
  EventId ScheduleAtSite(int site, SimTime t, Callback cb);

  /// Schedules `cb` to run `delay` after Now(). Negative delays are clamped
  /// to zero (a message can never arrive in the past).
  EventId ScheduleAfter(SimDuration delay, Callback cb);

  /// Runs `fn` in exact serial order with respect to every event and every
  /// other DeferOrdered call. On the serial kernel (and from main-thread
  /// serialized fires under the parallel kernel) this is an immediate
  /// inline call; from a worker-lane callback the closure is recorded and
  /// replayed at the window barrier at its event's canonical position.
  ///
  /// Use this for order-sensitive side effects on state shared across
  /// sites: histogram records, floating-point accumulations, vector
  /// appends. Contract: the closure must capture by value, must not
  /// schedule or cancel events, must not draw from instrumented RNGs, and
  /// the state it touches must only ever be mutated through DeferOrdered
  /// (all three violations trip NATTO_DCHECKs in the merge).
  void DeferOrdered(Callback fn);

  /// Cancels a pending event: it will be discarded unexecuted (without
  /// advancing the clock) when its time arrives. Returns false if `id` was
  /// never issued or is already cancelled. Cancelling an id whose event
  /// already ran is a harmless no-op that still reports true (the tombstone
  /// is simply never hit); the event still counts as pending until its slot
  /// drains. Every kernel returns exactly these results: the site-parallel
  /// kernel keys its tombstones by the id handed out here, which a node
  /// keeps as EventNode::handle.
  bool Cancel(EventId id);

  /// Runs events until the queue drains or `Stop()` is called.
  void Run();

  /// Runs all events with time <= `t`, then sets Now() to `t`.
  void RunUntil(SimTime t);

  /// Requests that `Run()`/`RunUntil()` return after the current event.
  /// Under the site-parallel kernel a Stop() from a worker-lane callback
  /// takes effect at the next window barrier: the in-flight window finishes
  /// (its merged outcome is deterministic), then the run loop returns.
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

  /// Installs the site-parallel kernel (sim/parallel_kernel.h). Must be
  /// called before any event is scheduled or executed; callers that want
  /// the serial kernel simply do not call it.
  void ConfigureParallel(const ParallelOptions& options);

  /// True when the site-parallel kernel is installed. Transport uses this
  /// to insist on its stateless fast path.
  bool site_parallel() const { return parallel_ != nullptr; }

  /// Points the installed site-parallel kernel at a phase-profiling sink
  /// (sim/parallel_kernel.h); null disables collection. Timing never feeds
  /// back into execution, so determinism is unaffected.
  void SetParallelPhaseStats(ParallelPhaseStats* stats);

  /// Execution lane of the calling thread: 0 on the main thread (serial
  /// kernel, and between windows), 1 + site inside a worker-executed event.
  /// Indexes per-lane pools (e.g. Transport envelopes).
  int CurrentLane() const;

  /// Number of events not yet executed (cancelled-but-undrained events
  /// included). Counts all partitions under the site-parallel kernel.
  size_t pending_events() const {
    return parallel_ == nullptr ? queue_.size() : ParallelPending();
  }

  /// Total events executed since construction (cancelled events never
  /// count).
  uint64_t executed_events() const { return executed_; }

  /// Attaches a determinism-sanitizer ledger (sim/dsan.h). Every executed
  /// event is folded into the ledger's digest; null (the default) is the
  /// zero-overhead off state — one branch per event, nothing else.
  void set_ledger(DeterminismLedger* ledger) { ledger_ = ledger; }
  DeterminismLedger* ledger() const { return ledger_; }

  /// Sentinel parent for events scheduled outside any event callback.
  static constexpr uint64_t kNoParent = ~uint64_t{0};

 private:
  friend class ParallelKernel;

  /// Runs the node's callback (or discards it if cancelled) and recycles
  /// the node into the queue's pool.
  void FireOrDiscard(EventNode* n);

  /// The loop behind Run() and RunUntil(): fires events with time <=
  /// `limit` until the queues drain or Stop(); with `settle`, then moves
  /// Now() up to `limit` unless stopped.
  void RunUntilTime(SimTime limit, bool settle);

  /// Parallel-kernel delegates, defined in parallel_kernel.cc (the only TU
  /// that sees the full ParallelKernel type).
  SimTime ParallelNow() const;
  size_t ParallelPending() const;
  EventId ParallelSchedule(int site, SimTime t, Callback cb);
  bool ParallelCancel(EventId id);
  void ParallelDefer(Callback fn);
  void ParallelRun(SimTime limit, bool settle);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  /// seq of the event currently firing (causal parent for events its
  /// callback schedules); kNoParent between events.
  uint64_t firing_seq_ = kNoParent;
  /// Atomic so a worker-lane callback can request Stop(); relaxed is enough
  /// (the window barrier's mutex orders the main thread's read).
  std::atomic<bool> stopped_{false};
  DeterminismLedger* ledger_ = nullptr;
  CalendarQueue queue_;
  std::unique_ptr<ParallelKernel> parallel_;
  /// Tombstones for Cancel(), keyed by EventNode::handle; consulted only
  /// when non-empty, so the fault-free hot path pays a single empty() test
  /// per event.
  std::unordered_set<uint64_t> cancelled_;
};

}  // namespace natto::sim

#endif  // NATTO_SIM_SIMULATOR_H_
