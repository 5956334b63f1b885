#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"
#include "sim/dsan.h"

namespace natto::sim {

Simulator::EventId Simulator::ScheduleAt(SimTime t, Callback cb) {
  if (parallel_ != nullptr) {
    return ParallelSchedule(kInheritSite, t, std::move(cb));
  }
  NATTO_DCHECK(t >= now_) << "ScheduleAt in the past: t=" << t
                          << " Now()=" << now_;
  if (t < now_) t = now_;
  uint64_t seq = next_seq_++;
  queue_.Push(t, seq, std::move(cb), firing_seq_);
  return seq;
}

Simulator::EventId Simulator::ScheduleAtSite(int site, SimTime t, Callback cb) {
  if (parallel_ != nullptr) {
    return ParallelSchedule(site, t, std::move(cb));
  }
  // Serial kernel: site routing is a no-op; one queue serves everything.
  return ScheduleAt(t, std::move(cb));
}

Simulator::EventId Simulator::ScheduleAfter(SimDuration delay, Callback cb) {
  if (delay < 0) delay = 0;
  // Now(), not now_: on a parallel worker lane "now" is the site clock.
  return ScheduleAt(Now() + delay, std::move(cb));
}

void Simulator::DeferOrdered(Callback fn) {
  if (parallel_ != nullptr) {
    ParallelDefer(std::move(fn));
    return;
  }
  fn();
}

bool Simulator::Cancel(EventId id) {
  if (parallel_ != nullptr) return ParallelCancel(id);
  if (id >= next_seq_) return false;
  return cancelled_.insert(id).second;
}

void Simulator::FireOrDiscard(EventNode* n) {
  if (!cancelled_.empty() && cancelled_.erase(n->handle) > 0) {
    // Tombstone: discard without running or advancing the clock.
    queue_.Recycle(n);
    return;
  }
  NATTO_DCHECK(n->time >= now_);
  now_ = n->time;
  queue_.AdvanceTo(now_);
  ++executed_;
  if (ledger_ != nullptr) {
    ledger_->RecordEvent(n->time, n->seq, n->parent_seq);
  }
  // The callback runs in place: the popped node is neither queued nor on
  // the free list, so the events it schedules draw other nodes, and it
  // returns to the pool only once the callback is done. firing_seq_ tags
  // those schedules with this event as their causal parent (consumed by
  // the dsan ledger).
  firing_seq_ = n->seq;
  n->fn();
  queue_.Recycle(n);
  firing_seq_ = kNoParent;
}

void Simulator::Run() { RunUntilTime(kSimTimeMax, /*settle=*/false); }

void Simulator::RunUntil(SimTime t) { RunUntilTime(t, /*settle=*/true); }

void Simulator::RunUntilTime(SimTime limit, bool settle) {
  if (parallel_ != nullptr) {
    ParallelRun(limit, settle);
    return;
  }
  stopped_ = false;
  while (!stopped_) {
    EventNode* n = queue_.PopIfAtMost(limit);
    if (n == nullptr) break;
    FireOrDiscard(n);
  }
  if (settle && !stopped_ && now_ < limit) {
    now_ = limit;
    queue_.AdvanceTo(now_);
  }
}

}  // namespace natto::sim
