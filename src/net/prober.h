#ifndef NATTO_NET_PROBER_H_
#define NATTO_NET_PROBER_H_

#include <map>
#include <vector>

#include "net/delay_estimator.h"
#include "net/node.h"

namespace natto::net {

/// Per-datacenter measurement proxy (Sec 4): periodically probes a set of
/// target nodes (the partition leaders) and maintains a one-way delay
/// estimate to each. Clients in the same datacenter fetch the estimates and
/// cache them.
///
/// A probe carries the sender's local send time; the target answers with its
/// own local receive time, so each sample includes relative clock skew — by
/// design (see DelayEstimator).
///
/// The paper fixes the cadence: a 64-byte probe every 10 ms, estimated over
/// the last second (prober.cc holds the constants, and the 10 s hold of a
/// last estimate through an outage).
class Prober : public Node {
 public:
  /// `quantile` is the percentile each estimate reports (paper: 0.95).
  Prober(Transport* transport, int site, sim::NodeClock clock,
         double quantile);

  /// Registers a probe target under integer key `key` (e.g. partition id).
  void AddTarget(int key, Node* target);

  /// Starts the periodic probe loop.
  void Start();
  void Stop() { running_ = false; }

  bool HasEstimate(int key) const;

  /// p95 one-way delay (including relative skew) to the target, by the
  /// target's clock. Returns 0 before the first sample arrives.
  SimDuration EstimateDelayTo(int key) const;

  /// Mean in-window estimate; used for completion-time prediction and the
  /// estimator ablation.
  SimDuration MeanDelayTo(int key) const;

 private:
  void ProbeAll();

  double quantile_;
  bool running_ = false;
  // Ordered: ProbeAll() walks targets_ and the probe send order must be a
  // pure function of the target set, never of hash layout.
  std::map<int, Node*> targets_;
  std::map<int, DelayEstimator> estimators_;
};

}  // namespace natto::net

#endif  // NATTO_NET_PROBER_H_
