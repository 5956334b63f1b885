// Availability under failure: goodput and tail latency through a scripted
// crash -> re-election -> recovery -> partition -> heal sequence, for one
// representative of every protocol family. Not a paper figure — the paper
// measures fault-free performance (Sec 5) — but the failover semantics of
// Sec 4 (Raft-replicated participants, coordinator-replicated decisions)
// are what this bench exercises end to end: the partition-0 leader dies
// mid-run, a new leader is elected, engines re-attach, clients time out,
// back off and re-route, and goodput recovers after the heal.
//
// Usage:
//   fig_failover [--schedule=<file>] [--trace=<path>] [--trace-sample=<N>]
//                [--dsan] [--dsan-trail=<path>] [--dsan-diff[=<path>]]
//
// Without --schedule, a default script scaled to the run duration is used
// (crash at 20%, recover at 45%, partition s0|s1 at 55%, heal at 75%).
// Schedule files use the ParseSchedule grammar, e.g.:
//   5s  crash p0 r0
//   11s recover p0 r0
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "workload/ycsbt.h"

using namespace natto;
using namespace natto::bench;
using namespace natto::harness;

namespace {

fault::FaultSchedule DefaultSchedule(SimDuration duration) {
  // Scaled to the run so NATTO_DURATION_S keeps the same shape: the crash
  // window and the partition window each cover ~a quarter of the run and
  // both heal well before cooldown.
  fault::FaultSchedule s;
  s.CrashReplica(duration / 5, /*partition=*/0, /*replica=*/0)
      .RecoverReplica(duration * 45 / 100, 0, 0)
      .PartitionSites(duration * 55 / 100, /*site_a=*/0, /*site_b=*/1)
      .HealSites(duration * 75 / 100, 0, 1);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string schedule_path;
  const TraceArgs trace_args =
      ParseTraceArgs(argc, argv, {.schedule_path = &schedule_path});

  std::vector<System> systems = FailoverSystems();
  ExperimentConfig config = QuickConfig();
  ApplyTraceArgs(trace_args, &config);
  config.input_rate_tps = 200;
  // Failover client: bounded per-attempt waits with capped backoff, and an
  // availability timeline at 1 s resolution.
  config.request_timeout = Seconds(1);
  config.backoff_base = Millis(50);
  config.timeline_bucket = Seconds(1);

  config.cluster.fault_schedule = schedule_path.empty()
                                      ? DefaultSchedule(config.duration)
                                      : LoadSchedule(schedule_path);

  std::printf("fault schedule:\n%s",
              fault::FormatSchedule(config.cluster.fault_schedule).c_str());

  auto workload = []() {
    return std::make_unique<workload::YcsbTWorkload>(
        workload::YcsbTWorkload::Options{});
  };
  std::vector<std::vector<ExperimentResult>> results =
      RunGrid({GridPoint{config, workload}}, systems);
  std::vector<obs::TxnTrace> traces;
  CollectTraces(results, &traces);
  const std::vector<ExperimentResult>& row = results[0];

  PrintHeader("Failover: goodput through crash/recover/partition/heal, "
              "YCSB+T @200 (txn/s)",
              "metric", systems);
  std::printf("%-10s", "goodput");
  for (const auto& r : row) PrintCell(r.goodput_total_tps);
  EndRow();
  std::printf("%-10s", "p95 low");
  for (const auto& r : row) PrintCell(r.p95_low_ms);
  EndRow();
  std::printf("%-10s", "failed");
  for (const auto& r : row) PrintCellValue(static_cast<double>(r.failed));
  EndRow();
  std::printf("%-10s", "timeouts");
  for (const auto& r : row) {
    PrintCellValue(static_cast<double>(r.timeout_aborts));
  }
  EndRow();
  std::printf("%-10s", "elections");
  for (const auto& r : row) {
    PrintCellValue(static_cast<double>(r.metrics.counter(
        "fault.leader_elections")));
  }
  EndRow();

  size_t buckets = 0;
  for (const auto& r : row) buckets = std::max(buckets, r.timeline.size());

  PrintHeader("Failover timeline: committed txn/s per 1 s bucket "
              "(all repeats)",
              "t (s)", systems);
  double repeats = static_cast<double>(config.repeats);
  for (size_t b = 0; b < buckets; ++b) {
    PrintRowStart(static_cast<double>(b));
    for (const auto& r : row) {
      double committed =
          b < r.timeline.size()
              ? static_cast<double>(r.timeline[b].committed)
              : 0;
      PrintCellValue(committed / repeats);
    }
    EndRow();
  }

  PrintHeader("Failover timeline: p99 commit latency per 1 s bucket (ms)",
              "t (s)", systems);
  for (size_t b = 0; b < buckets; ++b) {
    PrintRowStart(static_cast<double>(b));
    for (const auto& r : row) {
      double p99 = b < r.timeline.size()
                       ? Percentile(r.timeline[b].latencies_ms, 0.99)
                       : 0;
      PrintCellValue(p99);
    }
    EndRow();
  }

  WriteTraces(trace_args, traces);
  return FinishDsan(trace_args, systems, results) ? 0 : 1;
}
