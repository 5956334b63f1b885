#ifndef NATTO_HARNESS_CLIENT_H_
#define NATTO_HARNESS_CLIENT_H_

#include <functional>

#include "common/rng.h"
#include "harness/stats.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "txn/transaction.h"
#include "workload/workload.h"

namespace natto::harness {

/// Open-loop workload client: submits new transactions following a Poisson
/// process at its share of the aggregate input rate and retries aborted
/// transactions immediately (Sec 5.1). Retried transactions do not count
/// toward the input rate; a transaction that cannot commit within
/// `max_attempts` is recorded as failed; committed latency includes retries.
class Client {
 public:
  /// Upper bound on one retry's backoff wait, jitter included.
  static constexpr SimDuration kBackoffCap = Seconds(2);

  struct Options {
    double rate_tps = 10;  // this client's share of the input rate
    int origin_site = 0;
    uint32_t client_id = 0;
    SimTime stop_generating_at = 0;
    /// Measurement window [start, end): transactions *starting* inside it
    /// contribute to the statistics.
    SimTime measure_start = 0;
    SimTime measure_end = 0;
    int max_attempts = 100;

    /// Per-attempt request timeout (0 = off). An attempt with no outcome
    /// after this long counts as an abort with AbortCause::kTimeout and is
    /// retried; a late engine response for it is ignored. Off by default:
    /// fault-free runs keep the paper's unbounded-wait client.
    SimDuration request_timeout = 0;

    /// Retry backoff (0 = the paper's immediate retry). Retry n waits
    /// base * 2^(n-1) plus deterministic jitter in [0, delay/2] hashed from
    /// (client id, txn start, attempt), the sum clamped to kBackoffCap so
    /// the cap bounds the observable wait. No RNG stream is consumed, so
    /// enabling backoff never perturbs arrivals.
    SimDuration backoff_base = 0;

    /// Fault-aware origin re-selection hook (Cluster::RouteOriginSite).
    /// Called per attempt with the home site; a different return value
    /// re-routes the attempt through that site's gateway/coordinator.
    std::function<int(int)> route_origin;

    /// Width of the availability-timeline buckets recorded into
    /// RunStats::timeline (0 = off).
    SimDuration timeline_bucket = 0;

    /// Hedged requests (tail-latency defense against gray failures): when
    /// > 0, each attempt arms a hedge timer at this percentile of recently
    /// observed settled-attempt latencies for the transaction's priority
    /// (per-priority, so high-priority hedges track the high-priority
    /// tail). If the primary hasn't settled when the timer fires, the
    /// attempt is re-issued — fresh txn id, hedge-routed coordinator — and
    /// the first outcome wins exactly-once: the loser's response is
    /// dropped by a shared settled token, so stats and retries see one
    /// outcome per attempt. The hedge may still execute server-side
    /// (standard hedged-request caveat; the workloads' RMW transactions
    /// are idempotent re-executions under a fresh id). Quantile in (0, 1],
    /// e.g. 0.95. 0 (default) = off, byte-identical to the unhedged
    /// client.
    double hedge_percentile = 0.0;
    /// Floor for the hedge delay, and the delay used until
    /// `hedge_min_samples` latency observations exist.
    SimDuration hedge_min_delay = Millis(100);
    /// Observed-latency samples (per priority) required before the
    /// adaptive percentile is trusted over hedge_min_delay.
    int hedge_min_samples = 8;
    /// Alternate-coordinator route for hedge attempts
    /// (Cluster::HedgeOriginSite). Unset = hedge to the primary's origin
    /// (still useful: the reissue dodges a lost message, not a bad site).
    std::function<int(int)> hedge_route;
  };

  /// `registry` is optional; when given, the client registers one counter
  /// per abort cause (`client.abort_cause.<name>`) and counts every aborted
  /// attempt against the cause the engine reported. A system abort reported
  /// with `AbortCause::kNone` counts as `client.abort_cause.unknown`, which
  /// the taxonomy tests pin to zero.
  Client(sim::Simulator* simulator, txn::TxnEngine* engine,
         workload::Workload* workload, Options options, Rng rng,
         RunStats* stats, obs::MetricsRegistry* registry = nullptr);

  /// Schedules the first arrival.
  void Start();

  /// The exact (jittered, capped) backoff delay retry `next_attempt` of a
  /// transaction first attempted at `first_start` would wait under
  /// `options`. Pure function of its arguments; exposed so tests can pin
  /// the backoff envelope (never exceeds kBackoffCap).
  static SimDuration BackoffDelay(const Options& options, SimTime first_start,
                                  int next_attempt);

  /// The hedge delay the next attempt of priority class `high` would use:
  /// the configured percentile over the observation window, floored at
  /// hedge_min_delay (which also covers the cold-start window). Exposed
  /// for tests.
  SimDuration HedgeDelay(bool high) const;

 private:
  void ScheduleNext();
  void BeginTransaction();
  void Attempt(txn::TxnRequest request, SimTime first_start, int attempt);
  /// Records a settled attempt's latency into the per-priority hedge
  /// observation window (no-op when hedging is off).
  void RecordAttemptLatency(bool high, SimDuration latency);
  void HandleOutcome(const txn::TxnResult& result, txn::TxnRequest request,
                     SimTime first_start, int attempt);
  void HandleTimeout(txn::TxnRequest request, SimTime first_start,
                     int attempt);
  /// Ends an aborted or timed-out attempt: records the transaction as
  /// failed once it has made max_attempts attempts, else schedules the next
  /// attempt after the configured backoff (immediately, synchronously, when
  /// backoff is off — the paper's retry loop).
  void RetryOrFail(txn::TxnRequest request, SimTime first_start, int attempt,
                   bool in_window);
  void RecordTimelineCommit(double latency_ms);
  void RecordTimelineAbort(bool timeout);

  sim::Simulator* simulator_;
  txn::TxnEngine* engine_;
  workload::Workload* workload_;
  Options options_;
  Rng rng_;
  RunStats* stats_;
  uint32_t next_seq_ = 1;
  /// Per-cause abort counters, indexed by AbortCause; all null when no
  /// registry was given. Slot 0 (kNone) is `client.abort_cause.unknown`.
  obs::Counter* abort_cause_[static_cast<int>(obs::AbortCause::kNumCauses)] =
      {};
  /// Attempts whose origin was re-routed away from the home site; null
  /// when no registry was given.
  obs::Counter* reroutes_ = nullptr;
  /// Hedge attempts issued / hedges whose outcome won the race; null when
  /// no registry was given or hedging is off.
  obs::Counter* hedges_ = nullptr;
  obs::Counter* hedge_wins_ = nullptr;
  /// Per-priority ring of recent settled-attempt latencies feeding the
  /// adaptive hedge delay; [0] = low, [1] = high.
  static constexpr size_t kHedgeWindow = 64;
  SimDuration hedge_obs_[2][kHedgeWindow] = {};
  size_t hedge_next_[2] = {0, 0};
  size_t hedge_count_[2] = {0, 0};
};

}  // namespace natto::harness

#endif  // NATTO_HARNESS_CLIENT_H_
