// Lockstep tests for the site-parallel PDES kernel (sim/parallel_kernel.h,
// DESIGN.md §4.11).
//
// The driver below runs one site-structured workload — per-site event
// chains, same-site and cross-site schedules, in-window cancels — on a
// plain serial Simulator and on Simulators configured with 2 and 4 kernel
// threads, and requires identical per-site execution traces, identical
// cancel results, and a byte-identical dsan trail (the trail's digest folds
// the *merged* (time, seq, parent) stream, so trail equality proves the
// parallel kernel reproduces the exact serial total order, not just
// per-site orders). The workload respects the kernel's determinism
// contract: cross-site schedules land at Now() + lookahead or later, and
// worker-side cancels only target the canceller's own site. Cancel targets
// may already have fired (a stale cancel), whose result must match serial
// too.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/dsan.h"
#include "sim/simulator.h"

namespace natto::sim {
namespace {

constexpr int kSites = 4;
constexpr SimDuration kLookahead = Millis(10);

struct SiteResult {
  // Per-site (fire time, marker) traces; worker-side appends are safe
  // because one worker owns a site for a whole window.
  std::vector<std::vector<std::pair<SimTime, uint64_t>>> traces;
  std::vector<std::vector<bool>> cancel_results;
  SimTime final_now = 0;
  uint64_t executed = 0;
  size_t pending = 0;
  std::string trail;  // SerializeTrail of the run's dsan ledger
};

// One deterministic site workload, parameterized only by the kernel thread
// count (1 = the untouched serial kernel).
class SiteWorkload {
 public:
  SiteWorkload(uint64_t seed, int threads) : seed_(seed), threads_(threads) {}

  SiteResult Run() {
    Simulator sim;
    sim_ = &sim;
    DsanOptions dopts;
    dopts.enabled = true;
    dopts.checkpoint_every = 64;  // many checkpoints: fine-grained equality
    DeterminismLedger ledger(dopts);
    if (threads_ > 1) {
      // Must precede any scheduling (the kernel owns event routing).
      sim.ConfigureParallel(
          ParallelOptions{threads_, kSites, kLookahead});
    }
    sim.set_ledger(&ledger);

    Rng root(seed_);
    root.Instrument(ledger.RegisterRngStream("test.sites"));
    sites_.resize(kSites);
    for (int s = 0; s < kSites; ++s) sites_[s].rng = root.Fork();

    // Seed per-site chains from the main thread.
    for (int s = 0; s < kSites; ++s) {
      for (int k = 0; k < 6; ++k) {
        ScheduleTo(s, Millis(1) + s * 17 + k * Millis(3));
      }
    }
    sim.RunUntil(Millis(30));
    // Mid-run main-thread activity: more chains, plus a cancel of one
    // still-pending event per site (main-thread cancels are unrestricted).
    for (int s = 0; s < kSites; ++s) {
      ScheduleTo(s, sim.Now() + Millis(2) + s * 13);
      CancelPending(s);
    }
    sim.Run();

    SiteResult out;
    out.traces.resize(kSites);
    out.cancel_results.resize(kSites);
    for (int s = 0; s < kSites; ++s) {
      out.traces[s] = std::move(sites_[s].trace);
      out.cancel_results[s] = std::move(sites_[s].cancel_results);
    }
    out.final_now = sim.Now();
    out.executed = sim.executed_events();
    out.pending = sim.pending_events();
    out.trail = SerializeTrail(ledger.Trail());
    sim_ = nullptr;
    return out;
  }

 private:
  struct Site {
    Rng rng{0};
    int budget = 500;
    uint64_t next_marker = 0;
    std::vector<std::pair<SimTime, uint64_t>> trace;
    std::vector<bool> cancel_results;
    // Ids of remembered same-site schedules, pending or already fired.
    std::vector<Simulator::EventId> ids;
  };

  // Schedules the next chain event for `dst` at absolute time `t`. Consumes
  // the *destination* site's budget and marker counter when called from the
  // main thread or from a callback on `dst` itself; cross-site callers pass
  // their own site's accounting via `acct`.
  void ScheduleTo(int dst, SimTime t, int acct = -1) {
    Site& a = sites_[acct < 0 ? dst : acct];
    if (a.budget == 0) return;
    --a.budget;
    uint64_t marker =
        (static_cast<uint64_t>(acct < 0 ? dst : acct) << 32) | a.next_marker++;
    Simulator::EventId id = sim_->ScheduleAtSite(
        dst, t, [this, dst, marker]() { OnFire(dst, marker); });
    // Only same-site (or main-thread) schedules are remembered for cancel:
    // a cross-site caller must not touch the destination's vectors.
    if (acct < 0) sites_[dst].ids.push_back(id);
  }

  void OnFire(int s, uint64_t marker) {
    Site& st = sites_[s];
    st.trace.emplace_back(sim_->Now(), marker);
    // 1..3 ops per event keeps the chains slightly supercritical, so runs
    // last until the per-site budgets drain instead of dying out early.
    int ops = static_cast<int>(st.rng.UniformInt(1, 3));
    for (int i = 0; i < ops; ++i) {
      int64_t roll = st.rng.UniformInt(0, 99);
      if (roll < 35) {
        // Same-site schedule; short delays land inside the current window
        // (live path), longer ones defer to the barrier.
        SimDuration d = 1 + st.rng.UniformInt(0, 7999);
        if (roll < 17) {
          ScheduleTo(s, sim_->Now() + d);
        } else {
          // The inherit-site route (plain ScheduleAfter) must behave
          // exactly like naming the site.
          if (st.budget == 0) continue;
          --st.budget;
          uint64_t m = (static_cast<uint64_t>(s) << 32) | st.next_marker++;
          Simulator::EventId id =
              sim_->ScheduleAfter(d, [this, s, m]() { OnFire(s, m); });
          st.ids.push_back(id);
        }
      } else if (roll < 55) {
        // Cross-site: the lookahead bound makes this legal mid-window.
        int dst = (s + 1) % kSites;
        SimTime t = sim_->Now() + kLookahead + st.rng.UniformInt(0, 4000);
        ScheduleTo(dst, t, /*acct=*/s);
      } else if (roll < 75) {
        CancelPending(s);
      } else if (roll < 85) {
        // Schedule-then-cancel inside one callback: the tombstone must win
        // whether the target was a live in-window insert or a deferral.
        if (st.budget == 0) continue;
        --st.budget;
        uint64_t m = (static_cast<uint64_t>(s) << 32) | st.next_marker++;
        SimDuration d = 1 + st.rng.UniformInt(0, 2000);
        Simulator::EventId id = sim_->ScheduleAtSite(
            s, sim_->Now() + d, [this, s, m]() { OnFire(s, m); });
        st.cancel_results.push_back(sim_->Cancel(id));
      }
      // else: no-op.
    }
  }

  void CancelPending(int s) {
    Site& st = sites_[s];
    if (st.ids.empty()) return;
    size_t k = static_cast<size_t>(
        st.rng.UniformInt(0, static_cast<int64_t>(st.ids.size()) - 1));
    st.cancel_results.push_back(sim_->Cancel(st.ids[k]));
    st.ids[k] = st.ids.back();
    st.ids.pop_back();
  }

  uint64_t seed_;
  int threads_;
  Simulator* sim_ = nullptr;
  std::vector<Site> sites_;
};

TEST(ParallelKernelLockstepTest, MatchesSerialAtAnyThreadCount) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SiteResult serial = SiteWorkload(seed, 1).Run();
    ASSERT_GT(serial.executed, 100u) << "degenerate workload, seed " << seed;
    for (int threads : {2, 4}) {
      SiteResult par = SiteWorkload(seed, threads).Run();
      for (int s = 0; s < kSites; ++s) {
        EXPECT_EQ(par.traces[s], serial.traces[s])
            << "site " << s << " trace, seed " << seed << ", " << threads
            << " threads";
        EXPECT_EQ(par.cancel_results[s], serial.cancel_results[s])
            << "site " << s << " cancels, seed " << seed << ", " << threads
            << " threads";
      }
      EXPECT_EQ(par.final_now, serial.final_now) << "seed " << seed;
      EXPECT_EQ(par.executed, serial.executed) << "seed " << seed;
      EXPECT_EQ(par.pending, serial.pending) << "seed " << seed;
      // Trail equality pins the merged global order, not just per-site
      // orders: the digest folds every (time, seq, parent) in serial
      // sequence and each checkpoint carries the reconstructed cumulative
      // RNG draw count.
      EXPECT_EQ(par.trail, serial.trail)
          << "dsan trail diverged, seed " << seed << ", " << threads
          << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Directed edge cases.
// ---------------------------------------------------------------------------

TEST(ParallelKernelTest, ScheduleAtSiteOnSerialKernelIsScheduleAt) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAtSite(2, Millis(5), [&]() { order.push_back(0); });
  sim.ScheduleAt(Millis(5), [&]() { order.push_back(1); });
  sim.ScheduleAtSite(Simulator::kGlobalSite, Millis(5),
                     [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.Now(), Millis(5));
}

TEST(ParallelKernelDeathTest, RejectsFewerThanTwoSitesOrNoLookahead) {
  // Windows need two sites to run side by side and a positive lookahead to
  // be nonempty; anything less is a configuration error, not a mode.
  for (int sites : {0, 1}) {
    EXPECT_DEATH(
        {
          Simulator sim;
          sim.ConfigureParallel(ParallelOptions{4, sites, kLookahead});
        },
        "at least two sites");
  }
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.ConfigureParallel(ParallelOptions{4, 2, 0});
      },
      "positive lookahead");
}

TEST(ParallelKernelTest, CrossSiteScheduleAtLookaheadFiresInOrder) {
  Simulator sim;
  sim.ConfigureParallel(ParallelOptions{4, 2, kLookahead});
  // Both sites' first events share a window and may run on two threads at
  // once, so the shared trace is appended through DeferOrdered.
  std::vector<int> order;
  auto record = [&sim, &order](int marker) {
    sim.DeferOrdered([&order, marker]() { order.push_back(marker); });
  };
  sim.ScheduleAtSite(0, Millis(1), [&]() {
    record(0);
    sim.ScheduleAtSite(1, sim.Now() + kLookahead, [&]() { record(2); });
  });
  sim.ScheduleAtSite(1, Millis(2), [&]() { record(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.Now(), Millis(1) + kLookahead);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(ParallelKernelTest, InWindowScheduleThenCancelNeverFires) {
  Simulator sim;
  sim.ConfigureParallel(ParallelOptions{4, 2, kLookahead});
  int fired = 0;
  bool cancel_ok = false;
  sim.ScheduleAtSite(0, Millis(1), [&]() {
    // Lands inside the current window on the same site (a live insert into
    // the site's own queue under a provisional id), then dies by tombstone.
    Simulator::EventId id =
        sim.ScheduleAtSite(0, sim.Now() + 5, [&]() { ++fired; });
    cancel_ok = sim.Cancel(id);
  });
  sim.ScheduleAtSite(1, Millis(1), [&]() { ++fired; });
  sim.Run();
  EXPECT_TRUE(cancel_ok);
  EXPECT_EQ(fired, 1);
  // The cancelled event was discarded without executing or advancing time.
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.Now(), Millis(1));
}

TEST(ParallelKernelTest, StopFromWorkerTakesEffectAtTheBarrier) {
  Simulator sim;
  sim.ConfigureParallel(ParallelOptions{4, 4, kLookahead});
  std::atomic<int> fired{0};  // bumped from concurrent lanes
  // One event per site inside a single window; site 2's callback stops the
  // run. The whole window still completes (its merged outcome must be
  // deterministic), then Run() returns with the later events pending.
  for (int s = 0; s < 4; ++s) {
    sim.ScheduleAtSite(s, Millis(1) + s * 10, [&sim, &fired, s]() {
      ++fired;
      if (s == 2) sim.Stop();
    });
    sim.ScheduleAtSite(s, Millis(50) + s, [&fired]() { ++fired; });
  }
  sim.Run();
  EXPECT_EQ(fired, 4) << "the in-flight window completes before stopping";
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.Run();  // resume drains the rest
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Now(), Millis(50) + 3);
}

TEST(ParallelKernelTest, RunUntilStopsWindowsAtTheLimit) {
  Simulator sim;
  sim.ConfigureParallel(ParallelOptions{4, 2, kLookahead});
  std::atomic<int> fired{0};  // bumped from concurrent lanes
  sim.ScheduleAtSite(0, Millis(3), [&]() { ++fired; });
  sim.ScheduleAtSite(1, Millis(3), [&]() { ++fired; });
  sim.ScheduleAtSite(0, Millis(3) + 1, [&]() { ++fired; });
  sim.RunUntil(Millis(3));
  // Events exactly at the limit fire; the one just past it stays queued
  // even though the lookahead window would have covered it.
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Millis(3));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), Millis(3) + 1);
}

}  // namespace
}  // namespace natto::sim
