#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/delay_estimator.h"
#include "net/delay_model.h"
#include "net/latency_matrix.h"
#include "net/node.h"
#include "net/prober.h"
#include "net/transport.h"

namespace natto::net {
namespace {

// ---------------------------------------------------------------------------
// LatencyMatrix
// ---------------------------------------------------------------------------

TEST(LatencyMatrixTest, AzureFiveMatchesTable1) {
  LatencyMatrix m = LatencyMatrix::AzureFive();
  ASSERT_EQ(m.num_sites(), 5);
  EXPECT_EQ(m.Rtt(0, 1), Millis(67));   // VA-WA
  EXPECT_EQ(m.Rtt(0, 4), Millis(214));  // VA-SG
  EXPECT_EQ(m.Rtt(2, 3), Millis(234));  // PR-NSW
  EXPECT_EQ(m.Rtt(3, 4), Millis(87));   // NSW-SG
  // Symmetry.
  EXPECT_EQ(m.Rtt(4, 0), m.Rtt(0, 4));
  // One-way is half.
  EXPECT_EQ(m.OneWay(0, 4), Millis(107));
}

TEST(LatencyMatrixTest, LocalRttIsSmall) {
  LatencyMatrix m = LatencyMatrix::AzureFive();
  EXPECT_LE(m.Rtt(2, 2), Millis(1));
}

TEST(LatencyMatrixTest, LocalTriangle) {
  LatencyMatrix m = LatencyMatrix::LocalTriangle();
  ASSERT_EQ(m.num_sites(), 3);
  EXPECT_EQ(m.Rtt(0, 1), Millis(4));
  EXPECT_EQ(m.Rtt(1, 2), Millis(8));
}

TEST(LatencyMatrixTest, HybridKeepsGeography) {
  LatencyMatrix h = LatencyMatrix::HybridAwsAzure();
  LatencyMatrix a = LatencyMatrix::AzureFive();
  EXPECT_EQ(h.Rtt(0, 4), a.Rtt(0, 4));
  EXPECT_EQ(h.site_name(0), "AWS-east");
}

// ---------------------------------------------------------------------------
// Delay models
// ---------------------------------------------------------------------------

TEST(DelayModelTest, ConstantReturnsMean) {
  ConstantDelayModel m;
  Rng rng(1);
  EXPECT_EQ(m.Sample(Millis(50), rng), Millis(50));
}

TEST(DelayModelTest, UniformJitterStaysInBand) {
  UniformJitterDelayModel m(0.10);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    SimDuration d = m.Sample(Millis(100), rng);
    EXPECT_GE(d, Millis(90));
    EXPECT_LE(d, Millis(110));
  }
}

TEST(DelayModelTest, ParetoMatchesTargetMeanAndVariance) {
  // The Sec 5.5 emulation: Pareto with the same average delay and a target
  // coefficient of variation.
  for (double cv : {0.05, 0.15, 0.40}) {
    ParetoDelayModel m(cv);
    Rng rng(3);
    const int n = 200000;
    double sum = 0, sum2 = 0;
    for (int i = 0; i < n; ++i) {
      double d = static_cast<double>(m.Sample(Millis(100), rng));
      sum += d;
      sum2 += d * d;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    double measured_cv = std::sqrt(var) / mean;
    EXPECT_NEAR(mean, static_cast<double>(Millis(100)), Millis(100) * 0.05)
        << "cv=" << cv;
    EXPECT_NEAR(measured_cv, cv, cv * 0.25) << "cv=" << cv;
  }
}

TEST(DelayModelTest, ParetoNeverBelowScale) {
  ParetoDelayModel m(0.2);
  Rng rng(4);
  double xm = static_cast<double>(Millis(100)) * (m.alpha() - 1.0) / m.alpha();
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(static_cast<double>(m.Sample(Millis(100), rng)), xm - 1);
  }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

struct TransportFixture {
  sim::Simulator simulator;
  LatencyMatrix matrix = LatencyMatrix::AzureFive();
  Transport transport{&simulator, &matrix, MakeConstantDelay(),
                      TransportOptions{}, 1};
};

TEST(TransportTest, DeliversAfterOneWayDelay) {
  TransportFixture f;
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(4);
  SimTime delivered = -1;
  f.transport.Send(a, b, 100, [&]() { delivered = f.simulator.Now(); });
  f.simulator.Run();
  EXPECT_EQ(delivered, Millis(107));  // half of 214 ms VA-SG RTT
}

TEST(TransportTest, LocalDeliveryIsFast) {
  TransportFixture f;
  NodeId a = f.transport.AddNode(2);
  NodeId b = f.transport.AddNode(2);
  SimTime delivered = -1;
  f.transport.Send(a, b, 100, [&]() { delivered = f.simulator.Now(); });
  f.simulator.Run();
  EXPECT_LE(delivered, Millis(1));
}

TEST(TransportTest, CrashedNodeDropsMessages) {
  TransportFixture f;
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(1);
  f.transport.SetNodeCrashed(b, true);
  bool delivered = false;
  f.transport.Send(a, b, 10, [&]() { delivered = true; });
  f.simulator.Run();
  EXPECT_FALSE(delivered);
}

TEST(TransportTest, PacketLossAddsRetransmitPenalty) {
  sim::Simulator simulator;
  LatencyMatrix matrix = LatencyMatrix::AzureFive();
  TransportOptions opts;
  opts.packet_loss = 0.5;
  Transport t(&simulator, &matrix, MakeConstantDelay(), opts, 7);
  NodeId a = t.AddNode(0);
  NodeId b = t.AddNode(1);
  std::vector<SimTime> arrivals;
  const int kMsgs = 500;
  for (int i = 0; i < kMsgs; ++i) {
    t.Send(a, b, 10, [&simulator, &arrivals]() {
      arrivals.push_back(simulator.Now());
    });
  }
  simulator.Run();
  ASSERT_EQ(arrivals.size(), static_cast<size_t>(kMsgs));  // all delivered
  EXPECT_GT(t.messages_lost(), 100u);  // ~half the transmissions were lost
  // VA -> WA: 33.5 ms one way, 67 ms round trip. A frame lost once is
  // resent after about one RTT, so it arrives at least one RTT after the
  // base delay; a frame never lost arrives exactly at the base delay.
  const SimTime base = Micros(33500);
  const SimDuration rtt = Millis(67);
  int late = 0;
  for (SimTime at : arrivals) {
    ASSERT_GE(at, base) << "arrived before the one-way delay";
    if (at == base) continue;
    ++late;
    EXPECT_GE(at, base + rtt) << "late without a full retransmit penalty";
  }
  EXPECT_GE(late, kMsgs * 40 / 100);
  EXPECT_LE(late, kMsgs * 60 / 100);
}

TEST(TransportDeathTest, RejectsLossOutsideZeroToOne) {
  // Bernoulli(p >= 1) always fires, so a send would retransmit forever; a
  // negative p would silently mean no loss.
  for (double loss : {1.0, 1.5, -0.1}) {
    EXPECT_DEATH(
        {
          sim::Simulator simulator;
          LatencyMatrix matrix = LatencyMatrix::AzureFive();
          TransportOptions opts;
          opts.packet_loss = loss;
          Transport t(&simulator, &matrix, MakeConstantDelay(), opts, 7);
        },
        "packet_loss must be in");
  }
}

TEST(TransportTest, CapacityModelSerializesLargeTransfers) {
  sim::Simulator simulator;
  LatencyMatrix matrix = LatencyMatrix::AzureFive();
  TransportOptions opts;
  opts.link_bandwidth_bytes_per_sec = 1000.0;  // 1 KB/s: very slow link
  Transport t(&simulator, &matrix, MakeConstantDelay(), opts, 7);
  NodeId a = t.AddNode(0);
  NodeId b = t.AddNode(1);
  SimTime first = -1, second = -1;
  t.Send(a, b, 1000, [&]() { first = simulator.Now(); });
  t.Send(a, b, 1000, [&]() { second = simulator.Now(); });
  simulator.Run();
  // Each message takes 1 s to serialize; the second queues behind the first.
  EXPECT_GE(first, Seconds(1));
  EXPECT_GE(second, Seconds(2));
}

TEST(TransportTest, NodeCpuModelQueuesBackToBackMessages) {
  sim::Simulator simulator;
  LatencyMatrix matrix = LatencyMatrix::AzureFive();
  TransportOptions opts;
  opts.node_cost_per_message = Millis(10);
  Transport t(&simulator, &matrix, MakeConstantDelay(), opts, 7);
  NodeId a = t.AddNode(0);
  NodeId b = t.AddNode(1);
  std::vector<SimTime> deliveries;
  for (int i = 0; i < 3; ++i) {
    t.Send(a, b, 10, [&]() { deliveries.push_back(simulator.Now()); });
  }
  simulator.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[1] - deliveries[0], Millis(10));
  EXPECT_EQ(deliveries[2] - deliveries[1], Millis(10));
}

// ---------------------------------------------------------------------------
// Link batching
// ---------------------------------------------------------------------------

// The accounting invariant every batching/fault test closes with (the
// documented contract in transport.h).
void ExpectAccountingInvariant(const Transport& t) {
  EXPECT_EQ(t.messages_sent(), t.messages_delivered() +
                                   t.messages_in_flight() +
                                   t.delivery_drops());
}

struct BatchingFixture {
  explicit BatchingFixture(size_t max_bytes, SimDuration max_delay = Millis(1))
      : transport{&simulator, &matrix, MakeConstantDelay(),
                  [&] {
                    TransportOptions o;
                    o.max_batch_bytes = max_bytes;
                    o.max_batch_delay = max_delay;
                    return o;
                  }(),
                  1} {}

  sim::Simulator simulator;
  LatencyMatrix matrix = LatencyMatrix::AzureFive();
  Transport transport;
};

TEST(TransportBatchingTest, OffByDefaultAndFramesPerMessage) {
  TransportFixture f;
  EXPECT_FALSE(f.transport.batching_enabled());
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(1);
  for (int i = 0; i < 3; ++i) f.transport.Send(a, b, 100, []() {});
  f.simulator.Run();
  // Unbatched: every message is its own wire frame, no framing overhead.
  EXPECT_EQ(f.transport.batches_sent(), 3u);
  EXPECT_EQ(f.transport.bytes_sent(), 300u);
  ExpectAccountingInvariant(f.transport);
}

TEST(TransportBatchingTest, DelayTimerCoalescesIntoOneFrame) {
  BatchingFixture f(/*max_bytes=*/100000);
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(1);
  std::vector<std::pair<int, SimTime>> deliveries;
  for (int i = 0; i < 3; ++i) {
    f.transport.Send(a, b, 100,
                     [&, i]() { deliveries.emplace_back(i, f.simulator.Now()); });
  }
  EXPECT_EQ(f.transport.messages_in_flight(), 3u);
  f.simulator.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  // One frame, flushed by the max-delay timer at t=1ms, arriving one-way
  // (33.5 ms on VA-WA) later; FIFO send order preserved at the equal
  // delivery instant.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(deliveries[i].first, i);
    EXPECT_EQ(deliveries[i].second, Millis(1) + Micros(33500));
  }
  EXPECT_EQ(f.transport.batches_sent(), 1u);
  EXPECT_EQ(f.transport.messages_sent(), 3u);
  // Framed wire bytes: payload + 8 framing bytes per message.
  EXPECT_EQ(f.transport.bytes_sent(), 3 * 108u);
  ExpectAccountingInvariant(f.transport);
}

TEST(TransportBatchingTest, ByteTriggerFlushesAndCancelsTimer) {
  BatchingFixture f(/*max_bytes=*/200);
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(1);
  std::vector<SimTime> deliveries;
  f.transport.Send(a, b, 100, [&]() { deliveries.push_back(f.simulator.Now()); });
  f.transport.Send(a, b, 100, [&]() { deliveries.push_back(f.simulator.Now()); });
  f.simulator.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  // 216 framed bytes >= 200 flushed the batch at t=0: delivery at plain
  // one-way delay, without the 1 ms batching latency.
  EXPECT_EQ(deliveries[0], Micros(33500));
  EXPECT_EQ(deliveries[1], Micros(33500));
  EXPECT_EQ(f.transport.batches_sent(), 1u);
  // The byte trigger cancelled the max-delay timer: only the two delivery
  // events ever executed (a live timer would have run a third event).
  EXPECT_EQ(f.simulator.executed_events(), 2u);
  ExpectAccountingInvariant(f.transport);
}

TEST(TransportBatchingTest, ExplicitFlushEmitsImmediately) {
  BatchingFixture f(/*max_bytes=*/100000, /*max_delay=*/Millis(50));
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(1);
  SimTime delivered = -1;
  f.transport.Send(a, b, 100, [&]() { delivered = f.simulator.Now(); });
  f.transport.Flush();
  f.simulator.Run();
  EXPECT_EQ(delivered, Micros(33500));
  EXPECT_EQ(f.transport.batches_sent(), 1u);
  // Flush with nothing further pending is a no-op.
  f.transport.Flush();
  EXPECT_EQ(f.transport.batches_sent(), 1u);
  ExpectAccountingInvariant(f.transport);
}

TEST(TransportBatchingTest, CrashFlushesBatchesToDestination) {
  BatchingFixture f(/*max_bytes=*/100000);
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(1);
  bool delivered = false;
  f.transport.Send(a, b, 100, [&]() { delivered = true; });
  EXPECT_EQ(f.transport.messages_in_flight(), 1u);
  // The destination crashes while the message sits in the open batch: the
  // batch flushes so the message meets the delivery-time crash check.
  f.transport.SetNodeCrashed(b, true);
  f.simulator.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(f.transport.messages_sent(), 1u);
  EXPECT_EQ(f.transport.delivery_drops(), 1u);
  EXPECT_EQ(f.transport.dropped_crash(), 1u);
  EXPECT_EQ(f.transport.messages_in_flight(), 0u);
  ExpectAccountingInvariant(f.transport);
}

TEST(TransportBatchingTest, PartitionFlushesStraddlingBatches) {
  BatchingFixture f(/*max_bytes=*/100000);
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(1);
  bool forward = false, backward = false;
  f.transport.Send(a, b, 100, [&]() { forward = true; });
  f.transport.Send(b, a, 100, [&]() { backward = true; });
  f.transport.SetSitePartitioned(0, 1, true);
  f.simulator.Run();
  EXPECT_FALSE(forward);
  EXPECT_FALSE(backward);
  EXPECT_EQ(f.transport.delivery_drops(), 2u);
  EXPECT_EQ(f.transport.dropped_partition(), 2u);
  ExpectAccountingInvariant(f.transport);
  // Sends after the partition are refused at send time: drops, never sent.
  f.transport.Send(a, b, 100, []() {});
  EXPECT_EQ(f.transport.messages_sent(), 2u);
  EXPECT_EQ(f.transport.dropped_partition(), 3u);
  ExpectAccountingInvariant(f.transport);
}

TEST(TransportBatchingTest, SeparateLinksBatchIndependently) {
  BatchingFixture f(/*max_bytes=*/100000);
  NodeId a = f.transport.AddNode(0);
  NodeId b = f.transport.AddNode(1);
  NodeId c = f.transport.AddNode(2);
  int delivered = 0;
  f.transport.Send(a, b, 100, [&]() { ++delivered; });
  f.transport.Send(a, c, 100, [&]() { ++delivered; });
  f.transport.Send(b, a, 100, [&]() { ++delivered; });
  f.simulator.Run();
  EXPECT_EQ(delivered, 3);
  // Three directed site pairs, three frames.
  EXPECT_EQ(f.transport.batches_sent(), 3u);
  ExpectAccountingInvariant(f.transport);
}

TEST(TransportBatchingTest, BatchedCpuQueueingStaysPerMessage) {
  sim::Simulator simulator;
  LatencyMatrix matrix = LatencyMatrix::AzureFive();
  TransportOptions opts;
  opts.max_batch_bytes = 100000;
  opts.max_batch_delay = Millis(1);
  opts.node_cost_per_message = Millis(10);
  Transport t(&simulator, &matrix, MakeConstantDelay(), opts, 7);
  NodeId a = t.AddNode(0);
  NodeId b = t.AddNode(1);
  std::vector<SimTime> deliveries;
  for (int i = 0; i < 3; ++i) {
    t.Send(a, b, 10, [&]() { deliveries.push_back(simulator.Now()); });
  }
  simulator.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  // One wire frame, but the receiver still parses each message: deliveries
  // space out by the per-message CPU cost.
  EXPECT_EQ(deliveries[1] - deliveries[0], Millis(10));
  EXPECT_EQ(deliveries[2] - deliveries[1], Millis(10));
  EXPECT_EQ(t.batches_sent(), 1u);
}

// ---------------------------------------------------------------------------
// DelayEstimator
// ---------------------------------------------------------------------------

TEST(DelayEstimatorTest, ReportsPercentileOfWindow) {
  DelayEstimator e(Seconds(1), 0.95);
  for (int i = 1; i <= 100; ++i) {
    e.AddSample(Millis(i), Millis(i));  // delays 1..100 ms
  }
  SimDuration est = e.Estimate(Millis(100));
  EXPECT_GE(est, Millis(94));
  EXPECT_LE(est, Millis(97));
}

TEST(DelayEstimatorTest, EvictsOldSamples) {
  DelayEstimator e(Seconds(1), 0.95);
  e.AddSample(0, Millis(500));
  e.AddSample(Millis(1500), Millis(10));
  // At t=1.6s the 500 ms sample (taken at t=0) is out of the window.
  EXPECT_EQ(e.Estimate(Millis(1600)), Millis(10));
}

TEST(DelayEstimatorTest, EmptyWindowHasNoSamples) {
  DelayEstimator e(Seconds(1), 0.95);
  EXPECT_FALSE(e.HasSamples(0));
  e.AddSample(0, Millis(5));
  EXPECT_TRUE(e.HasSamples(Millis(500)));
  EXPECT_FALSE(e.HasSamples(Seconds(3)));
}

TEST(DelayEstimatorTest, MeanEstimate) {
  DelayEstimator e(Seconds(10), 0.95);
  e.AddSample(0, Millis(10));
  e.AddSample(1, Millis(20));
  EXPECT_EQ(e.MeanEstimate(Millis(1)), Millis(15));
}

/// The estimator as it was before it kept its window sorted: every query
/// copies the window, selects the nearest-rank element with nth_element and
/// sums in long double. DelayEstimator must answer exactly like it.
class ReferenceEstimator {
 public:
  ReferenceEstimator(SimDuration window, double quantile, SimDuration max_age)
      : window_(window), quantile_(quantile), max_age_(max_age) {}

  void AddSample(SimTime now, SimDuration delay) {
    Evict(now);
    samples_.emplace_back(now, delay);
    last_sample_time_ = now;
    ever_sampled_ = true;
    RefreshHeld();
  }

  bool HasSamples(SimTime now) {
    Evict(now);
    return !samples_.empty();
  }

  bool HasEstimate(SimTime now) { return HasSamples(now) || HeldValid(now); }

  SimDuration Estimate(SimTime now) {
    Evict(now);
    if (samples_.empty()) return HeldValid(now) ? held_estimate_ : 0;
    RefreshHeld();
    return held_estimate_;
  }

  SimDuration MeanEstimate(SimTime now) {
    Evict(now);
    if (samples_.empty()) return HeldValid(now) ? held_mean_ : 0;
    RefreshHeld();
    return held_mean_;
  }

  size_t sample_count() const { return samples_.size(); }

 private:
  void Evict(SimTime now) {
    SimTime cutoff = now - window_;
    while (!samples_.empty() && samples_.front().first < cutoff) {
      samples_.pop_front();
    }
  }

  bool HeldValid(SimTime now) const {
    if (!ever_sampled_) return false;
    return max_age_ <= 0 || now - last_sample_time_ <= max_age_;
  }

  void RefreshHeld() {
    std::vector<SimDuration> values;
    long double sum = 0;
    for (const auto& [t, d] : samples_) {
      values.push_back(d);
      sum += static_cast<long double>(d);
    }
    size_t rank = static_cast<size_t>(
        std::ceil(quantile_ * static_cast<double>(values.size())));
    if (rank > 0) --rank;
    if (rank >= values.size()) rank = values.size() - 1;
    std::nth_element(values.begin(), values.begin() + rank, values.end());
    held_estimate_ = values[rank];
    held_mean_ = static_cast<SimDuration>(
        sum / static_cast<long double>(values.size()));
  }

  SimDuration window_;
  double quantile_;
  SimDuration max_age_;
  std::deque<std::pair<SimTime, SimDuration>> samples_;
  SimDuration held_estimate_ = 0;
  SimDuration held_mean_ = 0;
  SimTime last_sample_time_ = 0;
  bool ever_sampled_ = false;
};

// Random sample streams through both estimators: runs of equal delays,
// negative (skewed) delays, gaps longer than the window, steps whose only
// eviction comes from HasSamples, and a hold that expires. After every step
// all three answers must match.
TEST(DelayEstimatorTest, MatchesCopyAndSelectReference) {
  for (double q : {0.5, 0.95, 1.0}) {
    for (SimDuration max_age : {SimDuration{0}, Seconds(2)}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "q=" << q << " max_age="
                                        << max_age << " seed=" << seed);
        Rng rng(seed);
        DelayEstimator e(Seconds(1), q, max_age);
        ReferenceEstimator ref(Seconds(1), q, max_age);
        SimTime now = 0;
        for (int step = 0; step < 3000; ++step) {
          // 15% of steps keep the timestamp; 3% jump past the window (and
          // past the 2 s hold when the jump exceeds 3 s).
          int64_t gap = rng.UniformInt(0, 99);
          if (gap >= 97) {
            now += Millis(rng.UniformInt(1100, 4000));
          } else if (gap >= 15) {
            now += Millis(rng.UniformInt(1, 30));
          }
          int64_t action = rng.UniformInt(0, 9);
          if (action < 6) {
            // Few distinct values, so equal delays are common; a third of
            // them negative, as when the target's clock lags the prober's.
            SimDuration d = rng.UniformInt(0, 2) == 0
                                ? Millis(rng.UniformInt(-8, 2))
                                : Millis(rng.UniformInt(5, 25));
            e.AddSample(now, d);
            ref.AddSample(now, d);
          } else if (action < 8) {
            ASSERT_EQ(e.HasSamples(now), ref.HasSamples(now)) << step;
          }
          ASSERT_EQ(e.HasEstimate(now), ref.HasEstimate(now)) << step;
          ASSERT_EQ(e.Estimate(now), ref.Estimate(now)) << step;
          ASSERT_EQ(e.MeanEstimate(now), ref.MeanEstimate(now)) << step;
          ASSERT_EQ(e.sample_count(), ref.sample_count()) << step;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Prober
// ---------------------------------------------------------------------------

TEST(ProberTest, ConvergesToOneWayDelayPlusSkew) {
  sim::Simulator simulator;
  LatencyMatrix matrix = LatencyMatrix::AzureFive();
  Transport t(&simulator, &matrix, MakeConstantDelay(), TransportOptions{}, 3);

  // Target at SG with +2 ms clock skew; prober at VA with no skew.
  Node target(&t, 4, sim::NodeClock(Millis(2)));
  Prober prober(&t, 0, sim::NodeClock(0), /*quantile=*/0.95);
  prober.AddTarget(7, &target);
  prober.Start();
  simulator.RunUntil(Seconds(2));
  prober.Stop();

  ASSERT_TRUE(prober.HasEstimate(7));
  // One-way VA->SG is 107 ms; the sample includes the +2 ms relative skew.
  EXPECT_EQ(prober.EstimateDelayTo(7), Millis(109));
}

TEST(ProberTest, TracksVariableDelaysAtHighPercentile) {
  sim::Simulator simulator;
  LatencyMatrix matrix = LatencyMatrix::AzureFive();
  Transport t(&simulator, &matrix, MakeParetoDelay(0.10), TransportOptions{},
              11);
  Node target(&t, 1, sim::NodeClock(0));
  Prober prober(&t, 0, sim::NodeClock(0), /*quantile=*/0.95);
  prober.AddTarget(1, &target);
  prober.Start();
  simulator.RunUntil(Seconds(3));
  prober.Stop();

  ASSERT_TRUE(prober.HasEstimate(1));
  // p95 of a jittery link should exceed its mean one-way delay.
  EXPECT_GT(prober.EstimateDelayTo(1), matrix.OneWay(0, 1));
  EXPECT_GT(prober.MeanDelayTo(1), 0);
}

}  // namespace
}  // namespace natto::net
