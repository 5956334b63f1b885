#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.h"
#include "sim/simulator.h"

namespace natto::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.Now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(Millis(30), [&]() { order.push_back(3); });
  s.ScheduleAt(Millis(10), [&]() { order.push_back(1); });
  s.ScheduleAt(Millis(20), [&]() { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), Millis(30));
}

TEST(SimulatorTest, EqualTimesRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(Millis(5), [&order, i]() { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator s;
  SimTime fired_at = -1;
  s.ScheduleAt(Millis(10), [&]() {
    s.ScheduleAfter(Millis(5), [&]() { fired_at = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, Millis(15));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator s;
  SimTime fired_at = -1;
  s.ScheduleAt(Millis(10), [&]() {
    s.ScheduleAfter(-Millis(5), [&]() { fired_at = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, Millis(10));
}

TEST(SimulatorTest, PastAbsoluteTimeClampsToNow) {
  Simulator s;
#ifdef NDEBUG
  // Release semantics: the past time is clamped to Now().
  SimTime fired_at = -1;
  s.ScheduleAt(Millis(10), [&]() {
    s.ScheduleAt(Millis(1), [&]() { fired_at = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, Millis(10));
#else
  // Debug semantics: scheduling in the past is a programming error.
  s.ScheduleAt(Millis(10), []() {});
  s.Run();
  EXPECT_DEATH(s.ScheduleAt(Millis(1), []() {}), "ScheduleAt in the past");
#endif
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 100) s.ScheduleAfter(Millis(1), chain);
  };
  s.ScheduleAfter(Millis(1), chain);
  s.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.Now(), Millis(100));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.ScheduleAt(Millis(10), [&]() { ++fired; });
  s.ScheduleAt(Millis(30), [&]() { ++fired; });
  s.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), Millis(20));
  s.RunUntil(Millis(40));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopHaltsExecution) {
  Simulator s;
  int fired = 0;
  s.ScheduleAt(Millis(1), [&]() {
    ++fired;
    s.Stop();
  });
  s.ScheduleAt(Millis(2), [&]() { ++fired; });
  s.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.ScheduleAt(i, []() {});
  s.Run();
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(NodeClockTest, AppliesSkew) {
  NodeClock c(Millis(3));
  EXPECT_EQ(c.Read(Millis(10)), Millis(13));
  EXPECT_EQ(c.ToTrueTime(Millis(13)), Millis(10));
}

TEST(NodeClockTest, RandomSkewWithinBound) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    NodeClock c = NodeClock::WithRandomSkew(rng, Millis(5));
    EXPECT_LE(c.skew(), Millis(5));
    EXPECT_GE(c.skew(), -Millis(5));
  }
}

TEST(NodeClockTest, ZeroBoundMeansNoSkew) {
  Rng rng(1);
  NodeClock c = NodeClock::WithRandomSkew(rng, 0);
  EXPECT_EQ(c.skew(), 0);
}

}  // namespace
}  // namespace natto::sim
