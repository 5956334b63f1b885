// Gray-failure resilience: per-priority SLO attainment through a scripted
// fail-slow + gray-stall + half-open-partition sequence, with the defense
// stack off vs on. Not a paper figure — the paper assumes fail-stop — but
// the gray-fault model is where prioritization earns its keep: a leader
// that is slow-but-alive never trips fail-stop detection, so without
// defenses every priority class eats the degraded tail together.
//
// The scripted scenario (scaled to the run duration):
//   20%..45%  partition-0 leader goes fail-slow (x30 service time; it still
//             heartbeats on time, so no election fires on its own)
//   50%..62%  the same replica gray-stalls: service traffic freezes but
//             pings keep answering (probe-based liveness stays green)
//   70%..85%  half-open link: s0 -> s1 drops, s1 -> s0 keeps flowing
//
// Defenses compared (all off in the baseline column):
//   - phi-accrual failure detection + follower suspicion elections
//   - Raft pre-vote + commit-latency fail-away (leadership transfer)
//   - client-side hedged requests with adaptive per-priority hedge delay
//
// Flags:
//   --quick              CI smoke sizing (1 repeat, short run)
//   --out=<path>         also write the summary as JSON
//   --schedule=<file>    override the scripted scenario (ParseSchedule)
//   --trace/--dsan families as in the other figure benches
#include <algorithm>
#include <cstdio>
#include <cstring>
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

// Per-priority SLO targets for the attainment report. Gray faults stretch
// the tail by orders of magnitude (a x30 leader turns ~100 ms commits into
// seconds), so the targets are deliberately loose: they separate "degraded
// but bounded" from "unbounded gray tail", not fast from slow.
constexpr double kSloP99HighMs = 4000.0;
constexpr double kSloP99LowMs = 8000.0;

fault::FaultSchedule GrayFailSchedule(SimDuration d) {
  fault::FaultSchedule s;
  s.SlowReplica(d / 5, /*partition=*/0, /*replica=*/0, /*factor=*/30.0,
                /*duration=*/d / 4)
      .StallReplica(d / 2, /*partition=*/0, /*replica=*/0,
                    /*duration=*/d * 12 / 100)
      .PartitionOneWay(d * 70 / 100, /*from_site=*/0, /*to_site=*/1)
      .HealSites(d * 85 / 100, 0, 1);
  return s;
}

double Availability(int64_t committed, int64_t failed) {
  int64_t total = committed + failed;
  return total > 0 ? static_cast<double>(committed) /
                         static_cast<double>(total)
                   : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::string schedule_path;
  const TraceArgs trace_args =
      ParseTraceArgs(argc, argv,
                     {.quick = &quick,
                      .out_path = &out_path,
                      .schedule_path = &schedule_path});
  const fault::FaultSchedule custom_schedule =
      schedule_path.empty() ? fault::FaultSchedule{}
                            : LoadSchedule(schedule_path);

  std::vector<System> systems = {MakeSystem(SystemKind::kNattoRecsf)};
  auto workload = []() {
    return std::make_unique<workload::YcsbTWorkload>(
        workload::YcsbTWorkload::Options{});
  };

  const char* settings[] = {"defenses off", "defenses on"};
  std::vector<GridPoint> points;
  for (int on = 0; on < 2; ++on) {
    ExperimentConfig config = QuickConfig();
    ApplyTraceArgs(trace_args, &config);
    if (quick) {
      // CI smoke: one repeat is enough — the scenario is scripted, and the
      // availability assertion below has a wide margin to the floor.
      config.repeats = 1;
      config.duration = Seconds(16);
      config.warmup = Seconds(2);
      config.cooldown = Seconds(2);
      config.drain = Seconds(10);
    }
    config.input_rate_tps = 200;
    // Failover-style client: bounded per-attempt waits with capped backoff.
    // The retry budget is deliberately tight (the default 100 attempts x 1 s
    // timeout outlasts any gray window, which would make availability read
    // 1.0 no matter what): a transaction that can't land in 8 attempts
    // counts as failed, so availability reflects the gray degradation.
    config.request_timeout = Seconds(1);
    config.backoff_base = Millis(50);
    config.timeline_bucket = Seconds(1);
    config.max_attempts = 8;
    config.cluster.fault_schedule = schedule_path.empty()
                                        ? GrayFailSchedule(config.duration)
                                        : custom_schedule;
    if (on == 1) {
      // The full defense stack. Thresholds sit well above healthy-run
      // operating points (commit latency ~tens of ms, phi ~0 between
      // heartbeats) so the defenses are quiet until the faults land.
      config.cluster.gray_defense = true;
      config.cluster.raft.pre_vote = true;
      config.cluster.raft.fail_away_commit_latency = Millis(300);
      config.hedge_percentile = 0.95;
    }
    points.push_back({config, workload});
  }

  std::printf("fault schedule:\n%s",
              fault::FormatSchedule(points[0].config.cluster.fault_schedule)
                  .c_str());

  std::vector<std::vector<ExperimentResult>> results =
      RunGrid(points, systems);
  std::vector<obs::TxnTrace> traces;
  CollectTraces(results, &traces);

  struct Row {
    double p99_high, p99_low;
    double avail_high, avail_low;
    double hedges, hedge_wins, transfers, elections, stalls;
    const ExperimentResult* r;
  };
  std::vector<Row> rows;
  for (int on = 0; on < 2; ++on) {
    const ExperimentResult& r = results[static_cast<size_t>(on)][0];
    Row row;
    row.p99_high = r.p99_high_ms.mean;
    row.p99_low = r.p99_low_ms.mean;
    row.avail_high = Availability(r.committed_high, r.failed_high);
    row.avail_low = Availability(r.committed_low, r.failed_low);
    row.hedges = static_cast<double>(r.metrics.counter("client.hedges"));
    row.hedge_wins =
        static_cast<double>(r.metrics.counter("client.hedge_wins"));
    row.transfers =
        static_cast<double>(r.metrics.counter("raft.leader_transfers"));
    row.elections =
        static_cast<double>(r.metrics.counter("fault.leader_elections"));
    row.stalls =
        static_cast<double>(r.metrics.counter("net.stall_deferrals"));
    row.r = &r;
    rows.push_back(row);
  }

  std::printf("\n=== Gray failure: Natto-RECSF, YCSB+T @200 txn/s, "
              "slow-leader + stall + half-open link ===\n");
  std::printf("%-14s %12s %12s %12s %12s %8s %10s %10s %10s %8s\n",
              "setting", "p99 high ms", "p99 low ms", "avail high",
              "avail low", "failed", "hedges", "hedge_wins", "transfers",
              "elections");
  for (int on = 0; on < 2; ++on) {
    const Row& row = rows[static_cast<size_t>(on)];
    std::printf("%-14s %12.1f %12.1f %12.4f %12.4f %8lld %10.0f %10.0f "
                "%10.0f %8.0f\n",
                settings[on], row.p99_high, row.p99_low, row.avail_high,
                row.avail_low, static_cast<long long>(row.r->failed),
                row.hedges, row.hedge_wins, row.transfers, row.elections);
  }

  std::printf("\n=== Per-priority SLO attainment (p99 target: high < %.0f "
              "ms, low < %.0f ms) ===\n",
              kSloP99HighMs, kSloP99LowMs);
  std::printf("%-14s %12s %12s\n", "setting", "high", "low");
  for (int on = 0; on < 2; ++on) {
    const Row& row = rows[static_cast<size_t>(on)];
    std::printf("%-14s %12s %12s\n", settings[on],
                row.p99_high < kSloP99HighMs ? "met" : "MISSED",
                row.p99_low < kSloP99LowMs ? "met" : "MISSED");
  }

  // Availability timeline: where in the scenario each setting lost txns.
  size_t buckets = 0;
  for (const Row& row : rows) {
    buckets = std::max(buckets, row.r->timeline.size());
  }
  std::printf("\n=== Timeline: committed txn/s per 1 s bucket ===\n");
  std::printf("%-8s %14s %14s\n", "t (s)", settings[0], settings[1]);
  double repeats = static_cast<double>(points[0].config.repeats);
  for (size_t b = 0; b < buckets; ++b) {
    std::printf("%-8zu", b);
    for (const Row& row : rows) {
      double committed =
          b < row.r->timeline.size()
              ? static_cast<double>(row.r->timeline[b].committed)
              : 0;
      std::printf(" %14.1f", committed / repeats);
    }
    std::printf("\n");
  }
  std::fflush(stdout);

  if (!out_path.empty()) {
    std::string json = "{\n  \"bench\": \"fig_grayfail\",\n"
                       "  \"cell\": \"Natto-RECSF/AzureFive/YCSB+T/200tps\","
                       "\n  \"slo_p99_high_ms\": " +
                       std::to_string(kSloP99HighMs) +
                       ",\n  \"slo_p99_low_ms\": " +
                       std::to_string(kSloP99LowMs) + ",\n  \"rows\": [\n";
    char buf[512];
    for (int on = 0; on < 2; ++on) {
      const Row& row = rows[static_cast<size_t>(on)];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"setting\": \"%s\", \"defenses\": %s, "
          "\"p99_high_ms\": %.2f, \"p99_low_ms\": %.2f, "
          "\"availability_high\": %.6f, \"availability_low\": %.6f, "
          "\"failed\": %lld, \"hedges\": %.0f, \"hedge_wins\": %.0f, "
          "\"leader_transfers\": %.0f, \"elections\": %.0f, "
          "\"stall_deferrals\": %.0f}%s\n",
          settings[on], on == 1 ? "true" : "false", row.p99_high,
          row.p99_low, row.avail_high, row.avail_low,
          static_cast<long long>(row.r->failed), row.hedges, row.hedge_wins,
          row.transfers, row.elections, row.stalls, on == 0 ? "," : "");
      json += buf;
    }
    json += "  ]\n}\n";
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }

  WriteTraces(trace_args, traces);
  return FinishDsan(trace_args, systems, results) ? 0 : 1;
}
