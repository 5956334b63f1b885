#ifndef NATTO_HARNESS_EXPERIMENT_H_
#define NATTO_HARNESS_EXPERIMENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/stats.h"
#include "harness/systems.h"
#include "net/latency_matrix.h"
#include "txn/cluster.h"
#include "workload/workload.h"

namespace natto::harness {

using WorkloadFactory = std::function<std::unique_ptr<workload::Workload>()>;

/// One experiment point: a system x workload x load configuration, repeated
/// `repeats` times with distinct seeds.
struct ExperimentConfig {
  net::LatencyMatrix matrix = net::LatencyMatrix::AzureFive();
  int num_partitions = 5;  // paper default: 5 partitions x 3 replicas
  int num_replicas = 3;
  int clients_per_site = 2;  // paper: two client machines per datacenter

  double input_rate_tps = 100;  // aggregate new-transaction rate

  SimDuration duration = Seconds(60);
  SimDuration warmup = Seconds(10);
  SimDuration cooldown = Seconds(10);
  SimDuration drain = Seconds(30);  // extra time for in-flight retries

  int repeats = 10;
  uint64_t seed = 42;
  int max_attempts = 100;

  /// Failover-harness knobs, all off by default (fault-free runs are
  /// byte-identical to a build without the fault layer). See
  /// Client::Options for semantics.
  SimDuration request_timeout = 0;
  SimDuration backoff_base = 0;
  SimDuration timeline_bucket = 0;

  /// Client-side hedged requests (gray-failure defense, off by default;
  /// see Client::Options). When hedge_percentile > 0 and the cluster has a
  /// fault injector, hedges are routed through Cluster::HedgeOriginSite so
  /// they dodge the primary coordinator site.
  double hedge_percentile = 0.0;
  SimDuration hedge_min_delay = Millis(100);
  int hedge_min_samples = 8;

  txn::ClusterOptions cluster;  // transport/delay/skew knobs

  /// Initial value of unwritten keys (workload-specific).
  std::function<Value(Key)> default_value;
};

/// Aggregated output of one experiment point.
struct ExperimentResult {
  std::string system;
  Aggregate p95_high_ms;
  Aggregate p95_low_ms;
  /// Tail view for the gray-failure SLO reports (p99 over each run's
  /// committed latencies, aggregated across repeats like the p95s).
  Aggregate p99_high_ms;
  Aggregate p99_low_ms;
  /// p95 per priority level (txn::PriorityLevel), over the repeats that
  /// committed a transaction of that level in their measurement window.
  std::map<int, Aggregate> p95_by_level_ms;
  Aggregate mean_high_ms;
  Aggregate mean_low_ms;
  Aggregate goodput_low_tps;
  Aggregate goodput_total_tps;
  /// Fraction of attempts that aborted: aborted / (aborted + committed),
  /// in [0, 1]. (Formerly `abort_rate` = aborted / committed, which
  /// exceeded 1.0 under contention and read 0 when everything aborted.)
  Aggregate abort_fraction;
  int64_t failed = 0;  // total across repeats
  /// Per-priority split of `failed` and `committed` (totals across
  /// repeats), for per-priority availability = committed / (committed +
  /// failed) in the gray-failure reports.
  int64_t failed_high = 0;
  int64_t failed_low = 0;
  int64_t committed_high = 0;
  int64_t committed_low = 0;
  /// Committed transactions (high + low), total across repeats. Denominator
  /// for the wire-cost report (messages/txn, bytes/txn from `metrics`).
  int64_t committed = 0;
  /// Attempts that hit the per-attempt request timeout, total across repeats.
  int64_t timeout_aborts = 0;
  /// Per-bucket availability timeline, merged across repeats (counts summed,
  /// latencies concatenated per bucket). Empty unless timeline_bucket > 0.
  std::vector<RunStats::TimelineBucket> timeline;
  /// Registry snapshots of all repeats, merged in repeat order.
  obs::MetricsSnapshot metrics;
  /// Sampled transaction traces from all repeats, concatenated in repeat
  /// order. Empty unless tracing was enabled in the cluster options.
  std::vector<obs::TxnTrace> traces;
  /// Determinism-sanitizer trails, one per repeat in repeat order. Empty
  /// unless cluster.dsan.enabled (see src/sim/dsan.h).
  std::vector<sim::DsanTrail> dsan;
};

/// Runs one run (single seed) and returns its stats. Exposed for tests.
RunStats RunOnce(const ExperimentConfig& config, const System& system,
                 const WorkloadFactory& workload_factory, uint64_t seed);

/// Aggregates repeated runs (in repeat order) into one experiment result.
ExperimentResult AggregateRuns(const std::string& system_name,
                               const std::vector<RunStats>& runs);

/// One x-axis datapoint of a figure grid: the full experiment configuration
/// plus the workload it runs. The workload factory is called once per
/// simulation cell, possibly from several threads at once, so it must be
/// safe to invoke concurrently (value-capturing lambdas that construct a
/// fresh Workload are — which is what every bench uses).
struct GridPoint {
  ExperimentConfig config;
  WorkloadFactory workload;
};

/// Runs the full (datapoint x system x repeat) grid, fanning the mutually
/// independent simulation cells across a ParallelRunner thread pool (job
/// count: `jobs`, or NATTO_JOBS / hardware concurrency when <= 0).
///
/// Determinism: each cell runs in its own Simulator/Cluster/engine with the
/// pure per-cell seed CellSeed(point.config.seed, system, x, repeat), and
/// per-(point, system) RunStats merge into Aggregates in submission order —
/// rows follow `points`, columns follow `systems`, repeats aggregate in
/// repeat order. The output is therefore bit-identical for any job count.
std::vector<std::vector<ExperimentResult>> RunGrid(
    const std::vector<GridPoint>& points, const std::vector<System>& systems,
    int jobs = 0);

/// Runs `config.repeats` runs (fanned out like a one-point, one-system
/// RunGrid) and aggregates.
ExperimentResult RunExperiment(const ExperimentConfig& config,
                               const System& system,
                               const WorkloadFactory& workload_factory);

/// Reads NATTO_REPEATS / NATTO_DURATION_S / NATTO_DSAN / NATTO_SIM_THREADS
/// env overrides so the benches can be dialed between quick mode and the
/// paper's full 10x60s setting (and audited with the determinism sanitizer)
/// without recompiling. A malformed number, a NATTO_DURATION_S below 3 or
/// another count below 1 fails a NATTO_CHECK.
void ApplyEnvOverrides(ExperimentConfig* config);

}  // namespace natto::harness

#endif  // NATTO_HARNESS_EXPERIMENT_H_
