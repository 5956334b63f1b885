#include "net/prober.h"

#include "common/logging.h"

namespace natto::net {
namespace {

constexpr SimDuration kProbeInterval = Millis(10);  // paper: every 10 ms
constexpr SimDuration kWindow = Seconds(1);         // paper: last second
constexpr size_t kProbeBytes = 64;
/// When probe responses stop (target crashed or partitioned away) and the
/// window drains, each estimator holds its last estimate this long before
/// reporting "no estimate". Irrelevant while probes flow: the window then
/// never empties.
constexpr SimDuration kEstimateMaxAge = Seconds(10);

}  // namespace

Prober::Prober(Transport* transport, int site, sim::NodeClock clock,
               double quantile)
    : Node(transport, site, clock), quantile_(quantile) {}

void Prober::AddTarget(int key, Node* target) {
  NATTO_CHECK(target != nullptr);
  targets_[key] = target;
  estimators_.emplace(key, DelayEstimator(kWindow, quantile_, kEstimateMaxAge));
}

void Prober::Start() {
  if (running_) return;
  running_ = true;
  ProbeAll();
}

void Prober::ProbeAll() {
  if (!running_) return;
  for (auto& [key, target] : targets_) {
    SimTime send_local = LocalNow();
    Node* t = target;
    int k = key;
    // Request: probe to target. The target replies with its local receive
    // time; the response travels back to this proxy. Both legs are kPing:
    // the echo responder lives in the target's kernel, so a gray `stall`
    // does not silence it (a `slow` fault still stretches its service time
    // and therefore inflates the estimates — the gray poison the detector
    // layer exists to catch).
    SendPing(t->id(), kProbeBytes, [this, t, k, send_local]() {
      SimTime server_local = t->LocalNow();
      t->SendPing(id(), kProbeBytes, [this, k, send_local, server_local]() {
        SimDuration one_way = server_local - send_local;
        auto it = estimators_.find(k);
        if (it != estimators_.end()) {
          it->second.AddSample(LocalNow(), one_way);
        }
      });
    });
  }
  After(kProbeInterval, [this]() { ProbeAll(); });
}

bool Prober::HasEstimate(int key) const {
  auto it = estimators_.find(key);
  return it != estimators_.end() && it->second.HasEstimate(LocalNow());
}

SimDuration Prober::EstimateDelayTo(int key) const {
  auto it = estimators_.find(key);
  if (it == estimators_.end()) return 0;
  return it->second.Estimate(LocalNow());
}

SimDuration Prober::MeanDelayTo(int key) const {
  auto it = estimators_.find(key);
  if (it == estimators_.end()) return 0;
  return it->second.MeanEstimate(LocalNow());
}

}  // namespace natto::net
