#ifndef NATTO_HARNESS_STATS_H_
#define NATTO_HARNESS_STATS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/dsan.h"

namespace natto::harness {

/// Latencies and counters collected from one experiment run.
struct RunStats {
  std::vector<double> latencies_high_ms;  // committed prioritized txns
  std::vector<double> latencies_low_ms;   // committed base-level txns
  /// Finer-grained view for multi-level runs: latencies per priority level.
  std::map<int, std::vector<double>> latencies_by_level_ms;
  int64_t committed_high = 0;
  int64_t committed_low = 0;
  int64_t aborted_attempts = 0;  // system aborts (each retry counts once)
  int64_t user_aborted = 0;
  int64_t failed = 0;  // gave up after the retry limit
  /// Per-priority split of `failed`, keyed by the transaction's priority.
  /// The gray-failure experiments report availability per priority class
  /// from these.
  int64_t failed_high = 0;
  int64_t failed_low = 0;
  /// Attempts that hit the client's per-attempt request timeout (a subset
  /// of aborted_attempts; nonzero only in fault runs with timeouts armed).
  int64_t timeout_aborts = 0;
  double measured_seconds = 0;

  /// Availability-over-time view for the failover experiments: fixed-width
  /// buckets over the *whole* run (not just the measurement window), indexed
  /// by completion time. Empty unless Client::Options::timeline_bucket > 0.
  struct TimelineBucket {
    int64_t committed = 0;
    int64_t aborted = 0;  // system aborts, including timeouts
    int64_t timeouts = 0;
    std::vector<double> latencies_ms;  // commit latencies ending in bucket
  };
  std::vector<TimelineBucket> timeline;

  /// Snapshot of the cell's metrics registry, taken after the run drains.
  obs::MetricsSnapshot metrics;
  /// Sampled transaction traces (empty unless tracing was enabled).
  std::vector<obs::TxnTrace> traces;
  /// Determinism-sanitizer trail (enabled=false unless dsan was on).
  sim::DsanTrail dsan;

  double GoodputLow() const {
    return measured_seconds > 0 ? static_cast<double>(committed_low) /
                                      measured_seconds
                                : 0;
  }
  double GoodputTotal() const {
    return measured_seconds > 0
               ? static_cast<double>(committed_low + committed_high) /
                     measured_seconds
               : 0;
  }
};

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// Aggregation of one metric across repeated runs: mean and the halfwidth of
/// the 95% confidence interval (paper Sec 5.1: error bars over 10 repeats).
struct Aggregate {
  double mean = 0;
  double ci95 = 0;
  int n = 0;
};

Aggregate Aggregated(const std::vector<double>& per_run_values);

}  // namespace natto::harness

#endif  // NATTO_HARNESS_STATS_H_
