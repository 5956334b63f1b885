// Observability-layer tests: tracer span lifecycle and abort-cause
// taxonomy, registry merge determinism across job counts, and the
// no-perturbation guarantee (tracing never changes a measured number).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "harness/experiment.h"
#include "harness/systems.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/ycsbt.h"

namespace natto {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::GridPoint;
using harness::MakeSystem;
using harness::RunOnce;
using harness::RunStats;
using harness::System;
using harness::SystemKind;
using harness::WorkloadFactory;

TEST(TracerTest, SpanLifecycleAndMatching) {
  obs::Tracer tr(obs::TraceOptions{/*enabled=*/true, /*sample_period=*/1});
  tr.TxnBegin(7, /*priority=*/1, /*now=*/100);
  tr.SpanBegin(7, "prepare", /*partition=*/0, 110);
  tr.SpanBegin(7, "prepare", /*partition=*/1, 120);
  tr.SpanEnd(7, "prepare", 1, 130);
  tr.Instant(7, "decide_commit", -1, 140);
  tr.SpanEnd(7, "never_opened", 5, 150);  // unmatched close: dropped
  tr.TxnEnd(7, "committed", obs::AbortCause::kNone, 160);

  std::vector<obs::TxnTrace> traces = tr.Drain();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TxnTrace& t = traces[0];
  EXPECT_EQ(t.id, 7u);
  EXPECT_EQ(t.priority, 1);
  EXPECT_EQ(t.begin_time, 100);
  EXPECT_EQ(t.end_time, 160);
  EXPECT_EQ(t.outcome, "committed");
  EXPECT_EQ(t.cause, obs::AbortCause::kNone);

  ASSERT_EQ(t.events.size(), 3u);
  // prepare@p0 was still open at TxnEnd: end < start marks it unclosed.
  EXPECT_EQ(t.events[0].name, "prepare");
  EXPECT_EQ(t.events[0].partition, 0);
  EXPECT_EQ(t.events[0].start, 110);
  EXPECT_LT(t.events[0].end, t.events[0].start);
  // prepare@p1 closed normally.
  EXPECT_EQ(t.events[1].partition, 1);
  EXPECT_EQ(t.events[1].start, 120);
  EXPECT_EQ(t.events[1].end, 130);
  EXPECT_TRUE(t.events[2].instant);
  EXPECT_EQ(t.events[2].name, "decide_commit");

  // Drain moved the traces out.
  EXPECT_EQ(tr.Drain().size(), 0u);
}

TEST(TracerTest, SamplingIsDeterministicAndGatesAllCalls) {
  obs::Tracer a(obs::TraceOptions{true, /*sample_period=*/4});
  obs::Tracer b(obs::TraceOptions{true, /*sample_period=*/4});
  int sampled = 0;
  for (TxnId id = 1; id <= 256; ++id) {
    EXPECT_EQ(a.Sampled(id), b.Sampled(id)) << "id " << id;
    if (!a.Sampled(id)) {
      // Calls about unsampled (or never-begun) ids are ignored.
      a.TxnBegin(id, 0, 10);
      a.SpanBegin(id, "prepare", 0, 11);
      a.TxnEnd(id, "committed", obs::AbortCause::kNone, 12);
    } else {
      ++sampled;
    }
  }
  EXPECT_EQ(a.Drain().size(), 0u);
  // 1-in-4 hash sampling over 256 ids lands near 64.
  EXPECT_GT(sampled, 32);
  EXPECT_LT(sampled, 128);

  // Events for ids that were never begun are ignored too.
  obs::Tracer c(obs::TraceOptions{true, 1});
  c.SpanBegin(9, "prepare", 0, 10);
  c.TxnEnd(9, "aborted", obs::AbortCause::kOccConflict, 11);
  EXPECT_EQ(c.Drain().size(), 0u);
}

TEST(TracerTest, FirstAbortAttributionWins) {
  obs::Tracer tr(obs::TraceOptions{true, 1});
  tr.TxnBegin(3, 0, 0);
  tr.AttributeAbort(3, obs::AbortCause::kOccConflict);
  tr.AttributeAbort(3, obs::AbortCause::kWound);  // later: ignored
  // The recorded cause also wins over the TxnEnd parameter.
  tr.TxnEnd(3, "aborted", obs::AbortCause::kPriorityAbort, 5);
  std::vector<obs::TxnTrace> traces = tr.Drain();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].cause, obs::AbortCause::kOccConflict);
}

TEST(TracerTest, DrainIsSortedByBeginTime) {
  obs::Tracer tr(obs::TraceOptions{true, 1});
  tr.TxnBegin(20, 0, 300);
  tr.TxnBegin(10, 0, 100);
  tr.TxnBegin(30, 0, 100);  // same time as 10: id breaks the tie
  tr.TxnEnd(20, "committed", obs::AbortCause::kNone, 400);
  std::vector<obs::TxnTrace> traces = tr.Drain();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].id, 10u);
  EXPECT_EQ(traces[1].id, 30u);
  EXPECT_EQ(traces[2].id, 20u);
  // Unfinished traces are included with an empty outcome.
  EXPECT_EQ(traces[0].outcome, "");
}

TEST(MetricsTest, GetOrCreateSharesInstrumentsAndSnapshotsMerge) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("x.count");
  obs::Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Inc(3);
  b->Inc(2);
  reg.GetGauge("x.depth")->Set(7);
  reg.GetHistogram("x.lat")->Record(100);

  obs::MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.counter("x.count"), 5);
  EXPECT_EQ(s.counter("missing"), 0);
  EXPECT_EQ(s.runs, 1);

  obs::MetricsSnapshot merged;
  merged.runs = 0;  // accumulator, as AggregateRuns uses it
  merged.MergeFrom(s);
  merged.MergeFrom(s);
  EXPECT_EQ(merged.counter("x.count"), 10);
  EXPECT_EQ(merged.gauges.at("x.depth"), 14);
  EXPECT_EQ(merged.histograms.at("x.lat").count, 2u);
  EXPECT_EQ(merged.runs, 2);

  // ToJson is stable and contains every metric name.
  std::string json = merged.ToJson();
  EXPECT_NE(json.find("\"x.count\":10"), std::string::npos);
  EXPECT_EQ(json, merged.ToJson());

  // SumCounters adds the counters named <prefix>...<suffix>; the prefix and
  // the suffix may not overlap.
  reg.GetCounter("p1.x")->Inc(4);
  reg.GetCounter("p2.x")->Inc(6);
  reg.GetCounter("p2.y")->Inc(1);
  obs::MetricsSnapshot t = reg.Snapshot();
  EXPECT_EQ(t.SumCounters("p", ".x"), 10);
  EXPECT_EQ(t.SumCounters("p2", ""), 7);
  EXPECT_EQ(t.SumCounters("p2.x", ".x"), 0);
}

ExperimentConfig ContendedConfig() {
  ExperimentConfig config;
  config.input_rate_tps = 60;
  config.duration = Seconds(6);
  config.warmup = Seconds(1);
  config.cooldown = Seconds(1);
  config.drain = Seconds(8);
  config.repeats = 1;
  config.cluster.trace.enabled = true;
  config.cluster.trace.sample_period = 1;
  return config;
}

WorkloadFactory ContendedWorkload() {
  return []() {
    workload::YcsbTWorkload::Options o;
    o.num_keys = 200;  // tiny keyspace: heavy conflicts on purpose
    o.zipf_theta = 0.95;
    return std::make_unique<workload::YcsbTWorkload>(o);
  };
}

// Every system abort must carry exactly one attributed cause: aborted traces
// never read kNone, committed traces never carry a cause, and the client's
// fallback counter for unattributed aborts stays pinned at zero.
TEST(AbortTaxonomyTest, EveryAbortPathAttributesExactlyOneCause) {
  const SystemKind kinds[] = {
      SystemKind::kTwoPl,         SystemKind::kTwoPlPreempt,
      SystemKind::kTapir,         SystemKind::kCarouselBasic,
      SystemKind::kCarouselFast,  SystemKind::kNattoRecsf,
  };
  for (SystemKind kind : kinds) {
    System system = MakeSystem(kind);
    SCOPED_TRACE(system.name);
    RunStats stats =
        RunOnce(ContendedConfig(), system, ContendedWorkload(), /*seed=*/7);

    // The workload must actually have exercised abort paths.
    ASSERT_GT(stats.aborted_attempts, 0) << "no contention generated";
    EXPECT_EQ(stats.metrics.counter("client.abort_cause.unknown"), 0);

    int64_t attributed = 0;
    for (const auto& [name, value] : stats.metrics.counters) {
      if (name.rfind("client.abort_cause.", 0) == 0) attributed += value;
    }
    EXPECT_GT(attributed, 0);

    ASSERT_FALSE(stats.traces.empty());
    for (const obs::TxnTrace& t : stats.traces) {
      if (t.outcome == "aborted") {
        EXPECT_NE(t.cause, obs::AbortCause::kNone)
            << "unattributed abort, txn " << t.id;
      } else if (t.outcome == "committed") {
        EXPECT_EQ(t.cause, obs::AbortCause::kNone)
            << "committed txn carries an abort cause, txn " << t.id;
      }
    }
  }
}

// A traced committed transaction has a coherent span timeline, and both
// exporters render it.
TEST(TraceEndToEndTest, CommittedTransactionHasLifecycleSpans) {
  txn::ClusterOptions opts;
  opts.trace.enabled = true;
  opts.trace.sample_period = 1;
  auto cluster = testutil::MakeCluster(/*seed=*/5, opts);
  System system = MakeSystem(SystemKind::kCarouselBasic);
  auto engine = system.make(cluster.get());

  auto probe = testutil::ScheduleTxn(cluster.get(), engine.get(), Millis(1),
                                     /*id=*/42, txn::Priority::kHigh,
                                     /*read_set=*/{1, 2}, /*write_set=*/{1, 2},
                                     /*origin_site=*/0);
  cluster->simulator()->RunUntil(Seconds(5));
  ASSERT_TRUE(probe->committed());

  ASSERT_NE(cluster->tracer(), nullptr);
  std::vector<obs::TxnTrace> traces = cluster->tracer()->Drain();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TxnTrace& t = traces[0];
  EXPECT_EQ(t.id, 42u);
  EXPECT_EQ(t.outcome, "committed");
  EXPECT_EQ(t.cause, obs::AbortCause::kNone);
  EXPECT_GE(t.end_time, t.begin_time);

  bool saw_round1 = false, saw_prepare = false;
  for (const obs::SpanEvent& e : t.events) {
    if (e.name == "round1" && !e.instant) {
      saw_round1 = true;
      EXPECT_GE(e.end, e.start);
    }
    if (e.name == "prepare" && !e.instant) {
      saw_prepare = true;
      EXPECT_GE(e.end, e.start);
      EXPECT_GE(e.partition, 0);
    }
  }
  EXPECT_TRUE(saw_round1);
  EXPECT_TRUE(saw_prepare);

  std::string chrome = obs::ChromeTraceJson(traces);
  EXPECT_NE(chrome.find("\"round1\""), std::string::npos);
  std::string jsonl = obs::TraceJsonLines(traces);
  EXPECT_NE(jsonl.find("\"outcome\":\"committed\""), std::string::npos);
  std::string timeline = obs::RenderTimeline(t);
  EXPECT_NE(timeline.find("committed"), std::string::npos);
  EXPECT_NE(timeline.find("round1"), std::string::npos);
}

// gtest's ASSERT_* macros need a void function.
void RunTracedGrid(const char* jobs, ExperimentResult* out) {
  ASSERT_EQ(setenv("NATTO_JOBS", jobs, /*overwrite=*/1), 0);
  ExperimentConfig config = ContendedConfig();
  config.repeats = 2;
  *out = harness::RunGrid({GridPoint{config, ContendedWorkload()}},
                          {MakeSystem(SystemKind::kNattoRecsf)},
                          /*jobs=*/0)[0][0];
}

// Registry snapshots and the trace stream merge in submission order, so the
// job count never changes a byte of either.
TEST(MergeDeterminismTest, MetricsAndTracesAreJobCountInvariant) {
  ExperimentResult serial, parallel;
  RunTracedGrid("1", &serial);
  RunTracedGrid("8", &parallel);
  ASSERT_EQ(unsetenv("NATTO_JOBS"), 0);

  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.metrics.ToJson(), parallel.metrics.ToJson());
  ASSERT_FALSE(serial.traces.empty());
  EXPECT_EQ(obs::ChromeTraceJson(serial.traces),
            obs::ChromeTraceJson(parallel.traces));
}

// Enabling the tracer must not change any measured number: it buffers
// events against sim time, schedules nothing and draws no randomness.
TEST(NoPerturbationTest, TracingDoesNotChangeResults) {
  System system = MakeSystem(SystemKind::kCarouselFast);
  ExperimentConfig off = ContendedConfig();
  off.cluster.trace.enabled = false;
  ExperimentConfig on = ContendedConfig();

  RunStats a = RunOnce(off, system, ContendedWorkload(), /*seed=*/7);
  RunStats b = RunOnce(on, system, ContendedWorkload(), /*seed=*/7);

  EXPECT_TRUE(a.traces.empty());
  EXPECT_FALSE(b.traces.empty());
  EXPECT_EQ(a.latencies_high_ms, b.latencies_high_ms);
  EXPECT_EQ(a.latencies_low_ms, b.latencies_low_ms);
  EXPECT_EQ(a.committed_high, b.committed_high);
  EXPECT_EQ(a.committed_low, b.committed_low);
  EXPECT_EQ(a.aborted_attempts, b.aborted_attempts);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.metrics, b.metrics);
}

}  // namespace
}  // namespace natto
