#ifndef NATTO_NET_DELAY_ESTIMATOR_H_
#define NATTO_NET_DELAY_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace natto::net {

/// Domino-style one-way delay estimator: keeps delay samples from a sliding
/// time window and reports a high percentile (default p95) so that arrival
/// times are rarely underestimated (Sec 2.2).
///
/// Samples are measured as (server local receive time - client local send
/// time), so they deliberately include relative clock skew: a timestamp
/// computed from the estimate is directly comparable to the *server's*
/// clock.
///
/// Outage behavior: when probes stop (crash, partition) and every sample
/// ages out of the window, the estimator *holds* the last in-window
/// estimate rather than collapsing to 0, until the last sample is older
/// than `max_age` (0 = hold forever). This keeps timestamp computation
/// sane through a fault instead of scheduling everything "now".
///
/// The in-window delays are also kept sorted, with an exact integer sum, so
/// the quantile is one indexed read and the mean one division: a probe
/// reply never copies or re-selects the window.
class DelayEstimator {
 public:
  explicit DelayEstimator(SimDuration window = Seconds(1),
                          double quantile = 0.95, SimDuration max_age = 0);

  /// Records a delay sample observed at local time `now`.
  void AddSample(SimTime now, SimDuration delay);

  /// True when at least one sample is inside [now - window, now].
  bool HasSamples(SimTime now) const;

  /// True when Estimate() has something meaningful to report: in-window
  /// samples, or a held estimate younger than `max_age`.
  bool HasEstimate(SimTime now) const;

  /// The configured quantile of samples in [now - window, now]; with an
  /// empty window, the held last-known estimate while it is younger than
  /// `max_age`; 0 otherwise (never seen a sample, or the hold expired).
  SimDuration Estimate(SimTime now) const;

  /// Mean of in-window samples (used by the ablation estimator bench),
  /// with the same hold-last fallback as Estimate().
  SimDuration MeanEstimate(SimTime now) const;

  size_t sample_count() const { return samples_.size(); }

 private:
  void Evict(SimTime now) const;
  /// Reads the held quantile/mean off the current (non-empty) window.
  void RefreshHeld() const;
  bool HeldValid(SimTime now) const;

  SimDuration window_;
  double quantile_;
  SimDuration max_age_;
  // Mutable so the const query methods can drop expired samples lazily.
  // samples_ holds (arrival, delay) in arrival order; sorted_ holds the
  // same delays ascending, and sum_ their exact total.
  mutable std::deque<std::pair<SimTime, SimDuration>> samples_;
  mutable std::vector<SimDuration> sorted_;
  mutable int64_t sum_ = 0;
  // Last-known estimates, refreshed on every sample; served (subject to
  // max_age_) once the window empties during an outage.
  mutable SimDuration held_estimate_ = 0;
  mutable SimDuration held_mean_ = 0;
  SimTime last_sample_time_ = 0;
  bool ever_sampled_ = false;
};

}  // namespace natto::net

#endif  // NATTO_NET_DELAY_ESTIMATOR_H_
