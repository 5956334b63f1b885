// nattolint: synchronized-tu(worker-pool kernel; cross-thread state is published through mu_ handoffs and per-thread context pointers)
#include "sim/parallel_kernel.h"

#include <ctime>

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "sim/calendar_queue.h"
#include "sim/dsan.h"

namespace natto::sim {

namespace {

/// Worker-issued provisional EventIds: high bit set (so they compare larger
/// than every canonical seq a window can contain, matching serial seq
/// monotonicity), originating site in bits 48..62, a persistent per-site
/// counter below. The counter is never reset: a provisional id stays a
/// unique Cancel handle for the lifetime of the run, so tombstones can key
/// on it after its event was pushed with a canonical seq.
constexpr uint64_t kProvBit = uint64_t{1} << 63;
constexpr int kProvSiteShift = 48;
constexpr uint64_t kProvCounterMask = (uint64_t{1} << kProvSiteShift) - 1;
constexpr int kMaxSites = 1 << 15;

int ProvSite(uint64_t id) {
  return static_cast<int>((id & ~kProvBit) >> kProvSiteShift);
}

/// CPU time of the calling thread, for ParallelPhaseStats. A per-thread
/// clock keeps phase profiles meaningful when workers time-slice on a host
/// with fewer cores than sites; never consulted unless profiling is on,
/// and never fed back into simulation decisions.
double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One schedule/cancel/side-effect made by a worker-lane callback, replayed
/// serially at the barrier to assign canonical seqs, update shared
/// tombstones, and apply DeferOrdered closures in canonical order.
struct WorkerOp {
  enum Kind : uint8_t { kSchedule, kCancel, kSideEffect };
  Kind kind;
  /// kSchedule only: event was pushed live into the owning site's queue
  /// (same site, fires inside the window) rather than deferred.
  bool live;
  uint64_t id;  // kSchedule: provisional id; kCancel: the handle cancelled
  int dst_site;
  SimTime time;
  /// kSchedule (deferred) and kSideEffect: index into
  /// ParallelSiteContext::deferred_fns.
  uint32_t deferred_index;
};

/// One event processed by a worker, in site-local (== serial restricted to
/// the site) order.
struct ExecRecord {
  SimTime time;
  uint64_t id;          // canonical seq or this-window provisional id
  uint64_t parent;      // as stored on the node
  uint64_t handle;      // as stored on the node (the tombstone key)
  bool discarded;       // tombstoned: no callback ran, clock untouched
  uint64_t rng_delta;   // instrumented draws made by this callback
  uint32_t first_op;    // [first_op, first_op + num_ops) in ops
  uint32_t num_ops;
};

}  // namespace

/// Everything one site's worker touches during a window. Between windows
/// only the main thread reads or writes it; inside a window exactly one
/// worker owns it (claimed through next_site_).
struct ParallelSiteContext {
  ParallelSiteContext(ParallelKernel* k, int s) : kernel(k), site(s) {}

  ParallelKernel* const kernel;
  const int site;
  CalendarQueue queue;
  /// Site-local clock: time of the last event fired on this site. The
  /// serial Now() an event here would observe, since within a window every
  /// cross-site event is at a timestamp this site cannot influence yet.
  SimTime local_now = 0;
  /// Persistent provisional-id counter (never reset; see kProvBit).
  uint64_t next_provisional = 0;
  /// next_provisional as of the last barrier; ids at or above it were
  /// issued this window. Written by the main thread at the merge, read-only
  /// during the window (any worker may consult any site's floor, never its
  /// moving counter).
  uint64_t prov_floor = 0;
  /// Provisional id of the event whose callback is running (causal parent).
  uint64_t firing_id = Simulator::kNoParent;
  std::vector<ExecRecord> log;
  std::vector<WorkerOp> ops;
  std::vector<EventFn> deferred_fns;
  /// Window-local tombstone view, layered over the simulator's cancelled_
  /// set (which is read-only while workers run). true = cancelled and not
  /// yet consumed; false = consumed by a discard (a re-cancel then mirrors
  /// the serial stale-tombstone insert).
  std::unordered_map<uint64_t, bool> overlay;
  /// Merge cursor into `log`.
  size_t cursor = 0;
  /// Canonical seqs assigned to this window's provisional ids, filled in
  /// issue order during the merge: canon[counter - prov_floor] = seq.
  /// Per-site counters are dense, so the merge resolves ids (for ordering
  /// and dsan parents) without hashing. Nothing needs the mapping after
  /// the window: Cancel keys on the provisional id itself.
  std::vector<uint64_t> canon;
  /// Resolved id of log[cursor]; maintained by MergeWindow so the pick
  /// loop compares heads without re-resolving them every iteration.
  uint64_t merge_head_id = 0;
  /// This window's RunSite CPU seconds (profiling only); written by the
  /// owning worker, folded and reset by the main thread at the barrier.
  double exec_cpu = 0.0;
};

namespace {

/// Context of the site the calling thread is currently executing events
/// for; null on the main thread outside windows. The kernel's ownership
/// discipline (one worker per site per window) makes this the only
/// thread-identity state needed.
thread_local ParallelSiteContext* tls_ctx = nullptr;  // worker identity

}  // namespace

// ---- Simulator members that need the complete ParallelKernel type ----

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

void Simulator::ConfigureParallel(const ParallelOptions& options) {
  NATTO_CHECK(parallel_ == nullptr && next_seq_ == 0 && executed_ == 0)
      << "ConfigureParallel must run before any event is scheduled";
  parallel_ = std::make_unique<ParallelKernel>(this, options);
}

int Simulator::CurrentLane() const {
  return parallel_ == nullptr ? 0 : parallel_->Lane();
}

SimTime Simulator::ParallelNow() const { return parallel_->NowOnLane(); }

size_t Simulator::ParallelPending() const {
  size_t n = queue_.size();
  for (const auto& ctx : parallel_->sites_) n += ctx->queue.size();
  return n;
}

Simulator::EventId Simulator::ParallelSchedule(int site, SimTime t,
                                               Callback cb) {
  return parallel_->Schedule(site, t, std::move(cb));
}

bool Simulator::ParallelCancel(EventId id) { return parallel_->Cancel(id); }

void Simulator::ParallelDefer(Callback fn) { parallel_->Defer(std::move(fn)); }

void Simulator::SetParallelPhaseStats(ParallelPhaseStats* stats) {
  NATTO_CHECK(parallel_ != nullptr) << "SetParallelPhaseStats needs the "
                                       "kernel ConfigureParallel installs";
  parallel_->phase_stats_ = stats;
}

void Simulator::ParallelRun(SimTime limit, bool settle) {
  parallel_->RunUntilTime(limit, settle);
}

// ---- ParallelKernel ----

ParallelKernel::ParallelKernel(Simulator* sim, const ParallelOptions& options)
    : sim_(sim),
      num_sites_(options.num_sites),
      lookahead_(options.lookahead) {
  NATTO_CHECK(options.num_threads >= 2);
  NATTO_CHECK(num_sites_ >= 2 && num_sites_ < kMaxSites)
      << "the site-parallel kernel needs at least two sites, got "
      << num_sites_;
  NATTO_CHECK(lookahead_ > 0)
      << "the site-parallel kernel needs a positive lookahead, got "
      << lookahead_;
  sites_.reserve(static_cast<size_t>(num_sites_));
  for (int s = 0; s < num_sites_; ++s) {
    sites_.push_back(std::make_unique<ParallelSiteContext>(this, s));
  }
  // Workers beyond the site count could never claim a site; the main
  // thread itself participates in every window, hence the -1.
  int workers = std::min(options.num_threads, num_sites_) - 1;
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelKernel::~ParallelKernel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

SimTime ParallelKernel::NowOnLane() const {
  return tls_ctx != nullptr ? tls_ctx->local_now : sim_->now_;
}

int ParallelKernel::Lane() const {
  return tls_ctx != nullptr ? 1 + tls_ctx->site : 0;
}

uint64_t ParallelKernel::Schedule(int site, SimTime t, EventFn fn) {
  if (tls_ctx != nullptr) {
    return WorkerSchedule(*tls_ctx, site, t, std::move(fn));
  }
  return MainSchedule(site, t, std::move(fn));
}

bool ParallelKernel::Cancel(uint64_t id) {
  if (tls_ctx != nullptr) return WorkerCancel(*tls_ctx, id);
  return MainCancel(id);
}

void ParallelKernel::Defer(EventFn fn) {
  if (tls_ctx == nullptr) {
    // Main thread: serialized fires (and code between runs) already execute
    // in serial order, so the side effect applies immediately — identical
    // to the serial kernel. This also covers nested DeferOrdered calls from
    // a replaying side effect.
    fn();
    return;
  }
  ParallelSiteContext& ctx = *tls_ctx;
  auto idx = static_cast<uint32_t>(ctx.deferred_fns.size());
  ctx.deferred_fns.push_back(std::move(fn));
  ctx.ops.push_back(WorkerOp{WorkerOp::kSideEffect, false, 0, 0, 0, idx});
}

uint64_t ParallelKernel::MainSchedule(int site, SimTime t, EventFn fn) {
  NATTO_DCHECK(!merging_)
      << "DeferOrdered callbacks must not schedule events (the merge replay "
         "is assigning canonical seqs)";
  NATTO_DCHECK(t >= sim_->now_)
      << "ScheduleAt in the past: t=" << t << " Now()=" << sim_->now_;
  if (t < sim_->now_) t = sim_->now_;
  uint64_t seq = sim_->next_seq_++;
  int dst = site == Simulator::kInheritSite ? main_site_ : site;
  NATTO_DCHECK(dst >= Simulator::kGlobalSite && dst < num_sites_);
  if (dst >= 0) {
    sites_[static_cast<size_t>(dst)]->queue.Push(t, seq, std::move(fn),
                                                 sim_->firing_seq_);
  } else {
    sim_->queue_.Push(t, seq, std::move(fn), sim_->firing_seq_);
  }
  return seq;
}

bool ParallelKernel::MainCancel(uint64_t id) {
  NATTO_DCHECK(!merging_)
      << "DeferOrdered callbacks must not cancel events (the merge replay "
         "owns the tombstone set)";
  if (!Issued(id, nullptr)) return false;
  return sim_->cancelled_.insert(id).second;
}

uint64_t ParallelKernel::WorkerSchedule(ParallelSiteContext& ctx, int site,
                                        SimTime t, EventFn fn) {
  int dst = site == Simulator::kInheritSite ? ctx.site : site;
  NATTO_DCHECK(dst >= 0 && dst < num_sites_)
      << "worker-lane callbacks cannot schedule onto the global queue";
  NATTO_DCHECK(t >= ctx.local_now)
      << "ScheduleAt in the past: t=" << t << " Now()=" << ctx.local_now;
  if (t < ctx.local_now) t = ctx.local_now;
  uint64_t id = kProvBit |
                (static_cast<uint64_t>(ctx.site) << kProvSiteShift) |
                ctx.next_provisional++;
  NATTO_DCHECK((ctx.next_provisional & ~kProvCounterMask) == 0);
  if (dst == ctx.site && t < window_end_) {
    // Same site, fires inside this window: execute live. The provisional
    // seq keeps the queue's per-timestamp order serial-consistent — every
    // in-window schedule outranks every pre-window seq, as in serial.
    ctx.queue.Push(t, id, std::move(fn), ctx.firing_id);
    ctx.ops.push_back(WorkerOp{WorkerOp::kSchedule, true, id, dst, t, 0});
  } else {
    NATTO_DCHECK(dst == ctx.site || t >= window_end_)
        << "cross-site schedule inside the lookahead window: t=" << t
        << " window_end=" << window_end_;
    auto idx = static_cast<uint32_t>(ctx.deferred_fns.size());
    ctx.deferred_fns.push_back(std::move(fn));
    ctx.ops.push_back(WorkerOp{WorkerOp::kSchedule, false, id, dst, t, idx});
  }
  return id;
}

bool ParallelKernel::WorkerCancel(ParallelSiteContext& ctx, uint64_t id) {
  if (!Issued(id, &ctx)) return false;
  auto it = ctx.overlay.find(id);
  if (it != ctx.overlay.end()) {
    if (it->second) return false;  // already cancelled this window
    // Consumed tombstone: serial Cancel after the discard re-inserts (a
    // stale tombstone) and reports success. Mirror it.
    it->second = true;
  } else {
    if (!sim_->cancelled_.empty() && sim_->cancelled_.count(id) > 0) {
      return false;  // pre-window tombstone, pending or stale
    }
    ctx.overlay.emplace(id, true);
  }
  ctx.ops.push_back(WorkerOp{WorkerOp::kCancel, false, id, 0, 0, 0});
  return true;
}

bool ParallelKernel::Issued(uint64_t id,
                            const ParallelSiteContext* caller) const {
  if ((id & kProvBit) == 0) return id < sim_->next_seq_;
  int psite = ProvSite(id);  // kNoParent decodes past every site
  if (psite >= num_sites_) return false;
  uint64_t counter = id & kProvCounterMask;
  return counter < sites_[static_cast<size_t>(psite)]->prov_floor ||
         (caller != nullptr && caller->site == psite &&
          counter < caller->next_provisional);
}

void ParallelKernel::RunUntilTime(SimTime limit, bool settle) {
  sim_->stopped_.store(false, std::memory_order_relaxed);
  while (!sim_->stopped_.load(std::memory_order_relaxed)) {
    // Pick the globally earliest (time, seq) head. Between windows every
    // pending node carries a canonical seq (provisional nodes never
    // outlive their window), so the comparison is exact.
    EventNode* ghead = sim_->queue_.PeekEarliest();
    EventNode* best = ghead;
    int best_site = Simulator::kGlobalSite;
    for (int s = 0; s < num_sites_; ++s) {
      EventNode* h = sites_[static_cast<size_t>(s)]->queue.PeekEarliest();
      if (h == nullptr) continue;
      if (best == nullptr || h->time < best->time ||
          (h->time == best->time && h->seq < best->seq)) {
        best = h;
        best_site = s;
      }
    }
    if (best == nullptr || best->time > limit) break;
    if (best_site != Simulator::kGlobalSite) {
      SimTime w = best->time;
      SimTime w_end =
          w > kSimTimeMax - lookahead_ ? kSimTimeMax : w + lookahead_;
      // A global-queue event must fire at its exact serial position, so a
      // window may only cover site events strictly before it. Events at
      // `limit` itself must still fire, hence the +1 (guarded: limit can
      // be kSimTimeMax).
      if (ghead != nullptr && w_end > ghead->time) w_end = ghead->time;
      if (limit < kSimTimeMax && w_end > limit + 1) w_end = limit + 1;
      if (w_end > w) {
        RunWindow(w_end);
        continue;
      }
    }
    SerializedFire(best_site);
  }
  if (settle && !sim_->stopped_.load(std::memory_order_relaxed) &&
      sim_->now_ < limit) {
    sim_->now_ = limit;
    AdvanceAll(sim_->now_);
  }
}

void ParallelKernel::SerializedFire(int site) {
  if (phase_stats_ != nullptr) ++phase_stats_->serialized_fires;
  CalendarQueue& q = site == Simulator::kGlobalSite
                         ? sim_->queue_
                         : sites_[static_cast<size_t>(site)]->queue;
  EventNode* n = q.PopIfAtMost(kSimTimeMax);  // the head we just peeked
  NATTO_DCHECK(n != nullptr);
  if (!sim_->cancelled_.empty() && sim_->cancelled_.erase(n->handle) > 0) {
    // Recycle into the origin queue: node chunks are pool-owned, and a
    // node must never migrate to another pool's free list.
    q.Recycle(n);
    return;
  }
  NATTO_DCHECK(n->time >= sim_->now_);
  sim_->now_ = n->time;
  if (site != Simulator::kGlobalSite) {
    sites_[static_cast<size_t>(site)]->local_now = n->time;
  }
  AdvanceAll(sim_->now_);
  ++sim_->executed_;
  if (sim_->ledger_ != nullptr) {
    sim_->ledger_->RecordEvent(n->time, n->seq, n->parent_seq);
  }
  sim_->firing_seq_ = n->seq;
  main_site_ = site;  // kInheritSite schedules stay on the firing site
  n->fn();  // in place, as in Simulator::FireOrDiscard
  q.Recycle(n);
  sim_->firing_seq_ = Simulator::kNoParent;
  main_site_ = Simulator::kGlobalSite;
}

void ParallelKernel::RunWindow(SimTime w_end) {
  window_end_ = w_end;
  draw_base_ = sim_->ledger_ != nullptr ? sim_->ledger_->LiveDrawTotal() : 0;
  next_site_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_workers_ = static_cast<int>(threads_.size());
    ++epoch_;
  }
  cv_work_.notify_all();
  RunSites();  // the main thread pulls sites too
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return pending_workers_ == 0; });
  }
  const double m0 = phase_stats_ != nullptr ? ThreadCpuSeconds() : 0.0;
  MergeWindow();
  if (phase_stats_ != nullptr) {
    phase_stats_->merge_cpu_seconds += ThreadCpuSeconds() - m0;
    ++phase_stats_->windows;
    double slowest = 0.0;
    for (auto& ctx : sites_) {
      phase_stats_->exec_cpu_seconds += ctx->exec_cpu;
      slowest = std::max(slowest, ctx->exec_cpu);
      ctx->exec_cpu = 0.0;
    }
    phase_stats_->exec_critical_cpu_seconds += slowest;
  }
}

void ParallelKernel::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
    }
    RunSites();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_workers_;
    }
    cv_done_.notify_all();
  }
}

void ParallelKernel::RunSites() {
  int s;
  while ((s = next_site_.fetch_add(1, std::memory_order_relaxed)) <
         num_sites_) {
    RunSite(*sites_[static_cast<size_t>(s)]);
  }
}

void ParallelKernel::RunSite(ParallelSiteContext& ctx) {
  const double t0 = phase_stats_ != nullptr ? ThreadCpuSeconds() : 0.0;
  tls_ctx = &ctx;
  EventNode* n;
  while ((n = ctx.queue.PopIfAtMost(window_end_ - 1)) != nullptr) {
    const uint64_t id = n->seq;
    const uint64_t handle = n->handle;
    bool discard = false;
    auto it =
        ctx.overlay.empty() ? ctx.overlay.end() : ctx.overlay.find(handle);
    if (it != ctx.overlay.end()) {
      if (it->second) {
        it->second = false;  // tombstone consumed
        discard = true;
      }
    } else if (!sim_->cancelled_.empty() &&
               sim_->cancelled_.count(handle) > 0) {
      // Pre-window tombstone. The shared set is read-only during the
      // window; record the consumption locally (enabling serial re-cancel
      // semantics) and erase at merge.
      ctx.overlay.emplace(handle, false);
      discard = true;
    }
    const auto first_op = static_cast<uint32_t>(ctx.ops.size());
    if (discard) {
      ctx.log.push_back(ExecRecord{n->time, id, n->parent_seq, handle, true,
                                   0, first_op, 0});
      ctx.queue.Recycle(n);
      continue;
    }
    NATTO_DCHECK(n->time >= ctx.local_now);
    ctx.local_now = n->time;
    ctx.queue.AdvanceTo(ctx.local_now);
    ExecRecord rec{n->time, id, n->parent_seq, handle, false, 0, first_op, 0};
    ctx.firing_id = id;
    Rng::SetThreadDrawDelta(&rec.rng_delta);
    n->fn();  // in place, as in Simulator::FireOrDiscard
    Rng::SetThreadDrawDelta(nullptr);
    ctx.queue.Recycle(n);
    ctx.firing_id = Simulator::kNoParent;
    rec.num_ops = static_cast<uint32_t>(ctx.ops.size()) - rec.first_op;
    ctx.log.push_back(rec);
  }
  tls_ctx = nullptr;
  if (phase_stats_ != nullptr) ctx.exec_cpu = ThreadCpuSeconds() - t0;
}

uint64_t ParallelKernel::ResolveId(uint64_t id) const {
  if ((id & kProvBit) == 0) return id;
  // Only this-window provisional ids reach the merge: deferred schedules
  // are pushed with canonical seqs, so no queued seq stays provisional
  // past its window (handles do). Dense per-site lookup, no hashing.
  const ParallelSiteContext& ctx = *sites_[static_cast<size_t>(ProvSite(id))];
  uint64_t idx = (id & kProvCounterMask) - ctx.prov_floor;
  NATTO_DCHECK(idx < ctx.canon.size());
  return ctx.canon[static_cast<size_t>(idx)];
}

uint64_t ParallelKernel::ResolveParent(uint64_t parent) const {
  if (parent == Simulator::kNoParent) return parent;
  return ResolveId(parent);
}

void ParallelKernel::MergeWindow() {
  DeterminismLedger* ledger = sim_->ledger_;
  SimTime max_fired = sim_->now_;
  uint64_t draws = 0;

  // The per-site logs are (time, seq)-sorted — site-local execution order
  // is the serial order restricted to the site — so a merge of sorted
  // sequences reconstructs the exact serial total order. A provisional
  // head id is always resolvable: its scheduling event ran earlier on the
  // same site and has already been merged. (In particular each site's
  // first record is canonical — nothing this-window precedes it there.)
  for (auto& ctx : sites_) {
    if (ctx->cursor < ctx->log.size()) {
      ctx->merge_head_id = ResolveId(ctx->log[ctx->cursor].id);
    }
  }
  merging_ = true;
  for (;;) {
    ParallelSiteContext* pick = nullptr;
    for (auto& ctx : sites_) {
      if (ctx->cursor >= ctx->log.size()) continue;
      const ExecRecord& r = ctx->log[ctx->cursor];
      if (pick == nullptr || r.time < pick->log[pick->cursor].time ||
          (r.time == pick->log[pick->cursor].time &&
           ctx->merge_head_id < pick->merge_head_id)) {
        pick = ctx.get();
      }
    }
    if (pick == nullptr) break;
    uint64_t pick_id = pick->merge_head_id;
    const ExecRecord& rec = pick->log[pick->cursor++];
    if (rec.discarded) {
      size_t erased = sim_->cancelled_.erase(rec.handle);
      NATTO_DCHECK(erased == 1);
      (void)erased;
    } else {
      if (rec.time > max_fired) max_fired = rec.time;
      ++sim_->executed_;
      if (ledger != nullptr) {
        ledger->RecordEventReplay(rec.time, pick_id,
                                  ResolveParent(rec.parent),
                                  draw_base_ + draws);
        draws += rec.rng_delta;
      }
    }
    for (uint32_t i = rec.first_op; i < rec.first_op + rec.num_ops; ++i) {
      WorkerOp& op = pick->ops[i];
      if (op.kind == WorkerOp::kSchedule) {
        uint64_t seq = sim_->next_seq_++;
        // Per-site counters issue in execution order and the merge visits
        // a site's records in that same order, so a plain push lands the
        // mapping at canon[counter - prov_floor].
        pick->canon.push_back(seq);
        if (!op.live) {
          // Deferred schedules land here, at their op's canonical position,
          // so each queue sees the serial push order; their times are >=
          // window_end > max_fired, so per-timestamp FIFO invariants hold.
          // The handle stays the provisional id the scheduler was handed.
          sites_[static_cast<size_t>(op.dst_site)]->queue.Push(
              op.time, seq, op.id,
              std::move(pick->deferred_fns[op.deferred_index]), pick_id);
        }
      } else if (op.kind == WorkerOp::kSideEffect) {
        // DeferOrdered side effect: applied here, at its event's canonical
        // position and in its event's op order — the exact moment the
        // serial kernel would have run it inline.
        pick->deferred_fns[op.deferred_index]();
      } else {
        bool inserted = sim_->cancelled_.insert(op.id).second;
        NATTO_DCHECK(inserted);
        (void)inserted;
      }
    }
    if (pick->cursor < pick->log.size()) {
      pick->merge_head_id = ResolveId(pick->log[pick->cursor].id);
    }
  }
  merging_ = false;

  if (ledger != nullptr) {
    // Every instrumented draw of the window was attributed to exactly one
    // event; a miss means a callback drew outside SetThreadDrawDelta.
    uint64_t live_total = ledger->LiveDrawTotal();
    NATTO_DCHECK(draw_base_ + draws == live_total);
    (void)live_total;
  }

  sim_->now_ = max_fired;
  AdvanceAll(sim_->now_);
  for (auto& ctx : sites_) {
    ctx->log.clear();
    ctx->ops.clear();
    ctx->deferred_fns.clear();
    ctx->overlay.clear();
    ctx->cursor = 0;
    ctx->canon.clear();
    ctx->prov_floor = ctx->next_provisional;
  }
}

void ParallelKernel::AdvanceAll(SimTime t) {
  sim_->queue_.AdvanceTo(t);
  for (auto& ctx : sites_) ctx->queue.AdvanceTo(t);
}

}  // namespace natto::sim
