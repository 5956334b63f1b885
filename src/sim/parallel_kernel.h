#ifndef NATTO_SIM_PARALLEL_KERNEL_H_
#define NATTO_SIM_PARALLEL_KERNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/sim_time.h"
#include "sim/event_fn.h"
#include "sim/simulator.h"

namespace natto::sim {

struct ParallelSiteContext;

/// Per-phase self-profiling for the site-parallel kernel, attached through
/// Simulator::SetParallelPhaseStats. Times are *per-thread CPU seconds*
/// (CLOCK_THREAD_CPUTIME_ID), so they stay meaningful when the host has
/// fewer cores than workers and the threads time-slice: the critical-path
/// sum models the wall clock of an unconstrained >= num_sites-core host.
struct ParallelPhaseStats {
  uint64_t windows = 0;
  uint64_t serialized_fires = 0;
  /// Sum over windows and sites of in-window execution CPU.
  double exec_cpu_seconds = 0.0;
  /// Sum over windows of the slowest site's execution CPU — each window's
  /// critical path when every site gets its own core.
  double exec_critical_cpu_seconds = 0.0;
  /// Main-thread CPU spent in the serial barrier merge.
  double merge_cpu_seconds = 0.0;
};

/// Intra-run parallel PDES kernel (DESIGN.md §4.11).
///
/// The simulator's event population is partitioned into per-site
/// `CalendarQueue`s plus the simulator's own global queue. Execution
/// alternates between two modes chosen per step by the main thread:
///
///   - *Window*: when the earliest pending event belongs to a site and the
///     conservative lookahead (min cross-site link delay × the delay
///     model's guaranteed minimum scale) gives a nonempty interval
///     [W, W_end), every site's events with fire_time < W_end run
///     concurrently on the worker pool, one site per worker at a time.
///     Cross-site and past-window schedules are deferred to the barrier;
///     same-site in-window schedules execute live. At the barrier the
///     per-site execution logs — each sorted by (time, seq) — are merged
///     into the exact serial order, canonical seqs are assigned by
///     replaying the schedule ops in that order (a deferred event is
///     pushed right there, keeping its provisional id as its Cancel
///     handle), and dsan records are folded in with reconstructed draw
///     counts. The merged outcome is byte-identical to the serial kernel.
///   - *Serialized step*: otherwise (global-queue event at the head, or a
///     window made empty by a nearer global event) the main thread fires
///     exactly one event with plain serial semantics.
///
/// Determinism contract for site-parallel workloads:
///   - A callback running on site S may schedule onto another site only at
///     t >= Now() + lookahead (automatic for messages riding links whose
///     delay bounds the lookahead), and may not schedule onto the global
///     queue.
///   - Cancels from a callback take effect immediately for same-site
///     targets; a cross-site cancel becomes visible at the next barrier, so
///     its target must fire at or after the current window's end.
///   - Stop() from a worker-lane callback takes effect at the barrier: the
///     in-flight window completes (deterministically), then the run loop
///     returns. Serial execution would have stopped after the calling
///     event; tests comparing against serial account for this.
class ParallelKernel {
 public:
  ParallelKernel(Simulator* sim, const ParallelOptions& options);
  ~ParallelKernel();
  ParallelKernel(const ParallelKernel&) = delete;
  ParallelKernel& operator=(const ParallelKernel&) = delete;

 private:
  friend class Simulator;

  // Simulator delegates (see the matching Simulator methods).
  SimTime NowOnLane() const;
  int Lane() const;
  uint64_t Schedule(int site, SimTime t, EventFn fn);
  bool Cancel(uint64_t id);
  void Defer(EventFn fn);
  void RunUntilTime(SimTime limit, bool settle);

  uint64_t MainSchedule(int site, SimTime t, EventFn fn);
  bool MainCancel(uint64_t id);
  uint64_t WorkerSchedule(ParallelSiteContext& ctx, int site, SimTime t,
                          EventFn fn);
  bool WorkerCancel(ParallelSiteContext& ctx, uint64_t id);
  /// Whether Schedule ever returned `id`, judged from state that is stable
  /// for `caller` (null = the main thread, outside windows).
  bool Issued(uint64_t id, const ParallelSiteContext* caller) const;

  void SerializedFire(int site);
  void RunWindow(SimTime w_end);
  void RunSites();
  void RunSite(ParallelSiteContext& ctx);
  void MergeWindow();
  void WorkerLoop();
  void AdvanceAll(SimTime t);
  uint64_t ResolveId(uint64_t id) const;
  uint64_t ResolveParent(uint64_t parent) const;

  Simulator* const sim_;
  const int num_sites_;
  const SimDuration lookahead_;
  std::vector<std::unique_ptr<ParallelSiteContext>> sites_;

  /// Site a main-thread kInheritSite schedule routes to: the owning site
  /// during a serialized site fire, kGlobalSite otherwise.
  int main_site_ = Simulator::kGlobalSite;
  /// True while MergeWindow replays worker ops and deferred side effects.
  /// DeferOrdered closures must not schedule or cancel; the replay loop
  /// assigns canonical seqs, and an interleaved allocation would diverge
  /// from serial numbering (NATTO_DCHECKed in MainSchedule/MainCancel).
  bool merging_ = false;
  /// Exclusive upper bound of the in-flight window; stable while workers
  /// run (written by the main thread before the dispatch mutex handoff).
  SimTime window_end_ = 0;
  /// Instrumented-draw total at window dispatch; anchors per-event deltas.
  uint64_t draw_base_ = 0;
  /// Optional profiling sink; read-only pointer, never dereferenced by
  /// workers except to test for null (per-site timings land in the site
  /// contexts and are folded by the main thread at the barrier).
  ParallelPhaseStats* phase_stats_ = nullptr;

  // Worker pool. Dispatch is epoch-based: the main thread bumps epoch_
  // under mu_ and workers race through next_site_ claiming sites; the
  // mutex handoff publishes all pre-window state to the workers and all
  // worker writes back to the merge.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t epoch_ = 0;
  int pending_workers_ = 0;
  bool shutdown_ = false;
  std::atomic<int> next_site_{0};
};

}  // namespace natto::sim

#endif  // NATTO_SIM_PARALLEL_KERNEL_H_
