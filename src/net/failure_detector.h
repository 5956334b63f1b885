#ifndef NATTO_NET_FAILURE_DETECTOR_H_
#define NATTO_NET_FAILURE_DETECTOR_H_

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "obs/metrics.h"

namespace natto::net {

/// φ-accrual failure detector (Hayashibara et al., SRDS 2004), multi-stream.
///
/// Each stream tracks the inter-arrival distribution of one heartbeat
/// source (e.g. "the Raft leader of partition 2, as seen by replica 1")
/// over a sliding window and converts silence into a continuous suspicion
/// level instead of a binary timeout:
///
///   φ(t) = -log10( P(next heartbeat arrives later than t) )
///
/// with the arrival distribution approximated as Normal(μ, σ²) over the
/// windowed inter-arrival samples, so
///
///   P_later(t) = 1/2 · erfc( (t - t_last - μ) / (σ·√2) ).
///
/// φ ≈ 1 means "this silence had a 10% chance of being benign", φ ≈ 8 is
/// one in 10^8. Because μ and σ adapt to the observed cadence, a stream
/// fed by a chatty leader under load suspects faster (in absolute time)
/// than one fed by sparse idle heartbeats — the property that lets
/// fail-away act in ~2·μ instead of a full election timeout.
///
/// Deterministic: pure arithmetic over caller-supplied sim times, no wall
/// clock, no RNG. Suspicion is exposed per stream as an `fd.phi.<name>`
/// gauge when a registry is attached.
class FailureDetector {
 public:
  FailureDetector() = default;

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Creates a suspicion stream; `name` keys the `fd.phi.<name>` gauge.
  /// Returns the stream id for Heartbeat/Phi.
  int AddStream(const std::string& name);

  int num_streams() const { return static_cast<int>(streams_.size()); }

  /// Records a heartbeat arrival on `stream` at sim time `now` and resets
  /// its gauge. Out-of-order or duplicate timestamps (now <= last arrival)
  /// are ignored.
  void Heartbeat(int stream, SimTime now);

  /// Current suspicion level of `stream` at sim time `now`; 0 until the
  /// first heartbeat. Capped at kMaxPhi. Also mirrors the value into the
  /// stream's gauge, so periodic pollers keep the obs view fresh.
  double Phi(int stream, SimTime now);

  /// Samples seen on `stream` (heartbeats after the first).
  size_t samples(int stream) const;

  /// Attaches gauges (one per stream, including streams added later).
  void RegisterMetrics(obs::MetricsRegistry* registry);

  static constexpr double kMaxPhi = 100.0;

 private:
  struct Stream {
    std::string name;
    std::vector<SimDuration> intervals;  // ring buffer, kWindow capacity
    size_t next = 0;                     // ring write cursor
    size_t count = 0;                    // min(total samples, kWindow)
    SimTime last_arrival = 0;
    bool started = false;
    obs::Gauge* gauge = nullptr;  // null until RegisterMetrics
  };

  std::vector<Stream> streams_;
  obs::MetricsRegistry* registry_ = nullptr;
};

}  // namespace natto::net

#endif  // NATTO_NET_FAILURE_DETECTOR_H_
