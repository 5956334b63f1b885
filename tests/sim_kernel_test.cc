// Lockstep property tests for the calendar-queue event kernel.
//
// ReferenceSimulator below is a test-only replica of the seed kernel — a
// std::priority_queue<Event> ordered by (time, seq) — with the same
// tombstone-based Cancel layered on top that the real Simulator grew. The
// property tests drive both kernels through identical randomized workloads
// (schedules from inside and outside callbacks, equal-time bursts, cancels,
// Stop(), RunUntil boundaries, far-future events beyond the calendar
// horizon) and require byte-identical execution traces. This is the
// refactoring safety net: any divergence in (time, seq) order between the
// bucketed timeline and the old binary heap fails here long before it would
// corrupt a figure table.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "sim/calendar_queue.h"
#include "sim/event_fn.h"
#include "sim/simulator.h"

namespace natto::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference kernel: the seed's binary heap, plus the new Cancel semantics.
// ---------------------------------------------------------------------------

class ReferenceSimulator {
 public:
  using Callback = std::function<void()>;
  using EventId = uint64_t;

  SimTime Now() const { return now_; }

  EventId ScheduleAt(SimTime t, Callback cb) {
    if (t < now_) t = now_;
    uint64_t seq = next_seq_++;
    queue_.push(Event{t, seq, std::move(cb)});
    return seq;
  }

  EventId ScheduleAfter(SimDuration delay, Callback cb) {
    if (delay < 0) delay = 0;
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  bool Cancel(EventId id) {
    if (id >= next_seq_) return false;
    return cancelled_.insert(id).second;
  }

  void Run() {
    stopped_ = false;
    while (!queue_.empty() && !stopped_) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      FireOrDiscard(std::move(ev));
    }
  }

  void RunUntil(SimTime t) {
    stopped_ = false;
    while (!queue_.empty() && !stopped_ && queue_.top().time <= t) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      FireOrDiscard(std::move(ev));
    }
    if (!stopped_ && now_ < t) now_ = t;
  }

  void Stop() { stopped_ = true; }

  size_t pending_events() const { return queue_.size(); }
  uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    Callback cb;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void FireOrDiscard(Event ev) {
    if (!cancelled_.empty() && cancelled_.erase(ev.seq) > 0) return;
    now_ = ev.time;
    ++executed_;
    ev.cb();
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::unordered_set<uint64_t> cancelled_;
};

// ---------------------------------------------------------------------------
// Randomized workload driver, generic over the kernel under test.
// ---------------------------------------------------------------------------

struct SplitMix {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

struct WorkloadResult {
  // (fire time, marker) per executed event — the total order under test.
  std::vector<std::pair<SimTime, uint64_t>> trace;
  SimTime final_now = 0;
  uint64_t executed = 0;
  size_t pending = 0;
  std::vector<bool> cancel_results;
};

template <typename Sim>
class WorkloadDriver {
 public:
  explicit WorkloadDriver(uint64_t seed) : seed_(seed) {}

  WorkloadResult Run() {
    Sim sim;
    sim_ = &sim;
    SplitMix r{seed_};
    // Seed a batch from outside the run loop.
    for (int i = 0; i < 48; ++i) ScheduleRandom(r);
    // RunUntil boundaries exercise the "leave events queued at the limit"
    // path, including limits landing mid-bucket and exactly on an event.
    sim.RunUntil(Millis(1));
    sim.RunUntil(Millis(1));  // idempotent: nothing at or before the limit
    for (int i = 0; i < 24; ++i) ScheduleRandom(r);
    sim.RunUntil(Millis(40));
    for (int i = 0; i < 24; ++i) ScheduleRandom(r);
    sim.Run();
    // Stop() inside a callback leaves events pending; drain them (the
    // workload's budget is finite, so this terminates).
    while (sim.pending_events() > 0) sim.Run();

    WorkloadResult out;
    out.trace = std::move(trace_);
    out.final_now = sim.Now();
    out.executed = sim.executed_events();
    out.pending = sim.pending_events();
    out.cancel_results = std::move(cancel_results_);
    sim_ = nullptr;
    return out;
  }

 private:
  void ScheduleRandom(SplitMix& r) {
    if (budget_ == 0) return;
    --budget_;
    uint64_t marker = next_marker_++;
    auto id = sim_->ScheduleAfter(RandomDelay(r),
                                  [this, marker]() { OnFire(marker); });
    ids_.push_back(id);
  }

  SimDuration RandomDelay(SplitMix& r) {
    switch (r.Next() % 8) {
      case 0:
        return 0;  // same instant: FIFO tie-break
      case 1:
        return static_cast<SimDuration>(r.Next() % 64);  // same bucket
      case 2:
        return static_cast<SimDuration>(64 + r.Next() % 4000);
      case 3:
      case 4:
        return static_cast<SimDuration>(r.Next() % 50000);
      case 5:  // near the ring horizon (~524 ms) from either side
        return static_cast<SimDuration>(Millis(400) + r.Next() % Millis(300));
      default:  // deep overflow territory
        return static_cast<SimDuration>(Millis(600) + r.Next() % Millis(2000));
    }
  }

  void OnFire(uint64_t marker) {
    trace_.emplace_back(sim_->Now(), marker);
    // Per-event decision stream keyed by the marker, so both kernels see
    // identical decisions independent of any incidental state.
    SplitMix r{seed_ ^ (0xD1B54A32D192ED03ull * (marker + 1))};
    int ops = static_cast<int>(r.Next() % 3);
    for (int i = 0; i < ops; ++i) {
      uint64_t roll = r.Next() % 100;
      if (roll < 55) {
        ScheduleRandom(r);
      } else if (roll < 70 && !ids_.empty()) {
        bool ok = sim_->Cancel(ids_[r.Next() % ids_.size()]);
        cancel_results_.push_back(ok);
      } else if (roll < 74) {
        sim_->Stop();
      } else if (roll < 80) {
        // Re-entrant same-instant schedule: must run later this same Run,
        // after everything already queued for this instant.
        ScheduleAtNow(r);
      }
      // else: no-op.
    }
  }

  void ScheduleAtNow(SplitMix& /*r*/) {
    if (budget_ == 0) return;
    --budget_;
    uint64_t marker = next_marker_++;
    auto id =
        sim_->ScheduleAt(sim_->Now(), [this, marker]() { OnFire(marker); });
    ids_.push_back(id);
  }

  uint64_t seed_;
  Sim* sim_ = nullptr;
  int budget_ = 4000;
  uint64_t next_marker_ = 0;
  std::vector<typename Sim::EventId> ids_;
  std::vector<std::pair<SimTime, uint64_t>> trace_;
  std::vector<bool> cancel_results_;
};

TEST(SimKernelLockstepTest, MatchesReferenceHeapOnRandomWorkloads) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    WorkloadResult actual = WorkloadDriver<Simulator>(seed).Run();
    WorkloadResult expected = WorkloadDriver<ReferenceSimulator>(seed).Run();
    ASSERT_FALSE(expected.trace.empty()) << "degenerate workload, seed " << seed;
    EXPECT_EQ(actual.trace, expected.trace) << "seed " << seed;
    EXPECT_EQ(actual.final_now, expected.final_now) << "seed " << seed;
    EXPECT_EQ(actual.executed, expected.executed) << "seed " << seed;
    EXPECT_EQ(actual.pending, expected.pending) << "seed " << seed;
    EXPECT_EQ(actual.cancel_results, expected.cancel_results)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Directed edge cases.
// ---------------------------------------------------------------------------

TEST(SimKernelTest, EqualTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  // 200 events at one instant spans several pool chunks' worth of nodes in
  // a single sub-slot FIFO.
  for (int i = 0; i < 200; ++i) {
    sim.ScheduleAt(Millis(5), [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimKernelTest, RunUntilIncludesEventsExactlyAtTheLimit) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Millis(10), [&]() { ++fired; });
  sim.ScheduleAt(Millis(10) + 1, [&]() { ++fired; });
  sim.RunUntil(Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Millis(10));
  EXPECT_EQ(sim.pending_events(), 1u);
  // The event left queued one microsecond past the boundary still fires,
  // even though its bucket was partially drained by the first RunUntil.
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Millis(10) + 1);
}

TEST(SimKernelTest, RunUntilBoundaryThenEarlierInsertStillOrdersCorrectly) {
  Simulator sim;
  std::vector<int> order;
  // A far event beyond the first RunUntil window...
  sim.ScheduleAt(Millis(800), [&]() { order.push_back(2); });  // overflow
  sim.ScheduleAt(Millis(30), [&]() { order.push_back(1); });
  sim.RunUntil(Millis(50));
  EXPECT_EQ(sim.Now(), Millis(50));
  // ...then an insert earlier than everything still pending.
  sim.ScheduleAt(Millis(60), [&]() { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.Now(), Millis(800));
}

TEST(SimKernelTest, StopMidBucketPreservesRemainderOfTheInstant) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    sim.ScheduleAt(Millis(3), [&sim, &order, i]() {
      order.push_back(i);
      if (i == 2) sim.Stop();
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.pending_events(), 3u);
  // Resuming picks up the rest of the same instant in the original order.
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimKernelTest, StopAtExactRunUntilBoundaryDoesNotDoubleFireOnResume) {
  // Regression: Stop() called from a callback firing exactly at the
  // RunUntil(t) limit must leave the *rest* of instant t queued, and a
  // subsequent RunUntil(t) must fire each remaining event exactly once —
  // neither skipping them (boundary treated as exhausted) nor replaying
  // the stopped event. Lockstepped against the reference heap.
  auto drive = [](auto& sim) {
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
      sim.ScheduleAt(Millis(7), [&sim, &order, i]() {
        order.push_back(i);
        if (i == 1) sim.Stop();
      });
    }
    sim.ScheduleAt(Millis(7) + 1, [&order]() { order.push_back(99); });
    sim.RunUntil(Millis(7));
    std::vector<int> after_stop = order;
    SimTime now_at_stop = sim.Now();
    sim.RunUntil(Millis(7));  // resume the same boundary
    sim.RunUntil(Millis(7));  // idempotent: instant fully drained now
    std::vector<int> after_resume = order;
    sim.Run();
    return std::make_tuple(after_stop, now_at_stop, after_resume, order,
                           sim.Now(), sim.executed_events());
  };
  Simulator sim;
  ReferenceSimulator ref;
  auto actual = drive(sim);
  auto expected = drive(ref);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(std::get<0>(actual), (std::vector<int>{0, 1}));
  EXPECT_EQ(std::get<2>(actual), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(std::get<3>(actual), (std::vector<int>{0, 1, 2, 3, 99}));
}

TEST(SimKernelTest, ReentrantScheduleAtNowRunsAfterQueuedPeers) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Millis(1), [&]() {
    order.push_back(0);
    // Same-instant re-entrant schedule: fires this Run, after event 1.
    sim.ScheduleAt(sim.Now(), [&]() { order.push_back(2); });
  });
  sim.ScheduleAt(Millis(1), [&]() { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimKernelTest, CancelledEventIsDiscardedWithoutRunningOrAdvancing) {
  Simulator sim;
  int fired = 0;
  Simulator::EventId id = sim.ScheduleAt(Millis(5), [&]() { ++fired; });
  sim.ScheduleAt(Millis(2), [&]() { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double-cancel
  EXPECT_FALSE(sim.Cancel(9999));  // never issued
  sim.Run();
  EXPECT_EQ(fired, 1);
  // The cancelled event never executed and never advanced the clock.
  EXPECT_EQ(sim.Now(), Millis(2));
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimKernelTest, CancelSurvivesOverflowMigration) {
  // Audit pin for CalendarQueue::Push's migrate-before-insert: an event
  // cancelled while parked in the overflow heap must still be discarded
  // after it migrates into the ring (the tombstone is keyed by seq, which
  // migration preserves). Lockstepped against the reference heap, which
  // has no ring/overflow split at all.
  auto drive = [](auto& sim) {
    std::vector<int> order;
    // Far beyond the ~524 ms ring horizon: lives in the overflow heap.
    auto doomed = sim.ScheduleAt(Seconds(1), [&order]() { order.push_back(-1); });
    sim.ScheduleAt(Seconds(1) - 5, [&order]() { order.push_back(0); });
    sim.ScheduleAt(Seconds(1), [&order]() { order.push_back(1); });
    sim.ScheduleAt(Seconds(1) + 5, [&order]() { order.push_back(2); });
    bool cancelled = sim.Cancel(doomed);
    // Advance past the horizon so the overflow events migrate into the
    // ring (the cancelled node travels with its seq intact), then drain.
    sim.RunUntil(Millis(600));
    sim.Run();
    return std::make_tuple(cancelled, order, sim.Now(), sim.executed_events(),
                           sim.pending_events());
  };
  Simulator sim;
  ReferenceSimulator ref;
  auto actual = drive(sim);
  auto expected = drive(ref);
  EXPECT_EQ(actual, expected);
  EXPECT_TRUE(std::get<0>(actual));
  EXPECT_EQ(std::get<1>(actual), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(std::get<3>(actual), 3u);
}

TEST(SimKernelTest, FarFutureEventsCrossTheOverflowHorizonInOrder) {
  Simulator sim;
  std::vector<int> order;
  // Beyond the 8192 * 64 us ~= 524 ms ring horizon: lives in the overflow
  // heap until the window reaches it.
  sim.ScheduleAt(Seconds(3), [&]() { order.push_back(4); });
  sim.ScheduleAt(Seconds(2), [&]() { order.push_back(3); });
  sim.ScheduleAt(Millis(700), [&]() { order.push_back(2); });
  sim.ScheduleAt(Millis(1), [&]() {
    order.push_back(0);
    // Scheduled once time has advanced; lands between the ring and the
    // pre-loaded overflow events.
    sim.ScheduleAfter(Millis(100), [&]() { order.push_back(1); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.Now(), Seconds(3));
}

TEST(SimKernelTest, ScheduleAtInThePastClampsToNow) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Millis(10), [&]() { order.push_back(0); });
  sim.Run();
  ASSERT_EQ(sim.Now(), Millis(10));
#ifdef NDEBUG
  // Release semantics: the past time is clamped to Now() and the event
  // fires at the current instant, after anything already queued for it.
  sim.ScheduleAt(sim.Now(), [&]() { order.push_back(1); });
  sim.ScheduleAt(Millis(3), [&]() { order.push_back(2); });  // in the past
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.Now(), Millis(10));
#else
  // Debug semantics: scheduling in the past is a programming error.
  EXPECT_DEATH(sim.ScheduleAt(Millis(3), []() {}), "ScheduleAt in the past");
#endif
}

// ---------------------------------------------------------------------------
// CalendarQueue pool behavior.
// ---------------------------------------------------------------------------

TEST(CalendarQueueTest, SteadyStateChurnsWithoutGrowingThePool) {
  CalendarQueue q;
  uint64_t seq = 0;
  SimTime now = 0;
  auto churn = [&](int events) {
    SplitMix r{42};
    for (int i = 0; i < events; ++i) {
      q.Push(now + 1 + static_cast<SimTime>(r.Next() % 5000), seq++,
             EventFn([]() {}));
      if (q.size() > 64) {
        EventNode* n = q.PopIfAtMost(kSimTimeMax);
        ASSERT_NE(n, nullptr);
        now = n->time;
        q.AdvanceTo(now);
        q.Recycle(n);
      }
    }
    while (EventNode* n = q.PopIfAtMost(kSimTimeMax)) {
      now = n->time;
      q.AdvanceTo(now);
      q.Recycle(n);
    }
  };
  churn(2000);  // warmup sizes the pool
  size_t chunks = q.allocated_chunks();
  churn(20000);  // steady state: strictly pool reuse
  EXPECT_EQ(q.allocated_chunks(), chunks);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// EventFn: capacity sizing, move-only semantics, heap fallback.
// ---------------------------------------------------------------------------

TEST(EventFnTest, InlineCapacityCoversTheMeasuredHotPathClosures) {
  // Capture shapes measured from the protocol delivery paths (the numbers
  // DESIGN.md §4.8 cites). If a hot-path closure outgrows the capacity this
  // static picture goes stale — re-measure before bumping kInlineCapacity.
  auto vote_send = [p = std::array<char, 72>()]() { (void)p; };
  auto wire_txn_delivery = [p = std::array<char, 144>()]() { (void)p; };
  auto transport_envelope = [p = std::array<char, 16>()]() { (void)p; };
  static_assert(sizeof(vote_send) <= EventFn::kInlineCapacity);
  static_assert(sizeof(wire_txn_delivery) <= EventFn::kInlineCapacity);
  static_assert(sizeof(transport_envelope) <= EventFn::kInlineCapacity);
  EventFn f(std::move(wire_txn_delivery));
  EXPECT_TRUE(static_cast<bool>(f));
}

TEST(EventFnTest, RunsInlineAndHeapClosuresAndDestroysCaptures) {
  auto probe = std::make_shared<int>(7);
  ASSERT_EQ(probe.use_count(), 1);
  {
    // Inline path.
    EventFn small([probe, sum = 0]() mutable { sum += *probe; });
    EXPECT_EQ(probe.use_count(), 2);
    small();
    // Heap-fallback path: capture bigger than the inline capacity.
    EventFn big([probe, pad = std::array<char, 512>()]() { (void)pad; });
    EXPECT_EQ(probe.use_count(), 3);
    big();
    // Moves transfer ownership without copying the capture.
    EventFn moved(std::move(big));
    EXPECT_EQ(probe.use_count(), 3);
    EXPECT_FALSE(static_cast<bool>(big));  // NOLINT(bugprone-use-after-move)
    moved.Reset();
    EXPECT_EQ(probe.use_count(), 2);
  }
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(EventFnTest, AcceptsMoveOnlyCapturesAndLvalueStdFunction) {
  // Move-only capture: std::function required shared_ptr detours for this.
  auto owned = std::make_unique<int>(41);
  int out = 0;
  EventFn f([o = std::move(owned), &out]() { out = *o + 1; });
  f();
  EXPECT_EQ(out, 42);
  // Lvalue std::function still converts (SimulatorTest.
  // EventsCanScheduleMoreEvents in tests/sim_test.cc re-schedules a
  // persistent chain closure by copy).
  std::function<void()> chain = [&out]() { ++out; };
  EventFn g(chain);
  g();
  EXPECT_EQ(out, 43);
  EXPECT_TRUE(static_cast<bool>(chain));  // untouched
}

}  // namespace
}  // namespace natto::sim
