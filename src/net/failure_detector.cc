#include "net/failure_detector.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace natto::net {

namespace {

/// Inter-arrival samples kept per stream.
constexpr size_t kWindow = 64;
static_assert(kWindow >= 2);
/// Prior mean interval assumed before the first two heartbeats, and blended
/// in while the window is still short.
constexpr SimDuration kInitialInterval = Millis(50);
/// Floor on σ as a fraction of μ: perfectly regular arrivals (constant
/// delay models) would otherwise make φ a step function and any jitter a
/// false positive.
constexpr double kMinStddevFraction = 0.10;

}  // namespace

int FailureDetector::AddStream(const std::string& name) {
  Stream s;
  s.name = name;
  s.intervals.assign(kWindow, 0);
  if (registry_ != nullptr) {
    s.gauge = registry_->GetGauge("fd.phi." + name);
  }
  streams_.push_back(std::move(s));
  return static_cast<int>(streams_.size()) - 1;
}

void FailureDetector::Heartbeat(int stream, SimTime now) {
  NATTO_DCHECK(stream >= 0 && stream < num_streams());
  Stream& s = streams_[static_cast<size_t>(stream)];
  if (!s.started) {
    s.started = true;
    s.last_arrival = now;
    if (s.gauge != nullptr) s.gauge->Set(0.0);
    return;
  }
  if (now <= s.last_arrival) return;
  s.intervals[s.next] = now - s.last_arrival;
  s.next = (s.next + 1) % kWindow;
  s.count = std::min(s.count + 1, kWindow);
  s.last_arrival = now;
  if (s.gauge != nullptr) s.gauge->Set(0.0);
}

double FailureDetector::Phi(int stream, SimTime now) {
  NATTO_DCHECK(stream >= 0 && stream < num_streams());
  Stream& s = streams_[static_cast<size_t>(stream)];
  if (!s.started || now <= s.last_arrival) return 0.0;

  // Windowed mean/variance, blended with the prior while the window is
  // short so a stream doesn't hair-trigger off its first couple of
  // intervals.
  const double prior = static_cast<double>(kInitialInterval);
  double sum = 0.0;
  for (size_t i = 0; i < s.count; ++i) {
    sum += static_cast<double>(s.intervals[i]);
  }
  const size_t prior_weight = s.count < kWindow
                                  ? std::max<size_t>(1, kWindow / 8)
                                  : 0;
  const double n = static_cast<double>(s.count + prior_weight);
  const double mean = (sum + prior * static_cast<double>(prior_weight)) / n;
  double var = 0.0;
  for (size_t i = 0; i < s.count; ++i) {
    const double d = static_cast<double>(s.intervals[i]) - mean;
    var += d * d;
  }
  const double dp = prior - mean;
  var = (var + dp * dp * static_cast<double>(prior_weight)) / n;
  double sigma = std::sqrt(var);
  sigma = std::max(sigma, kMinStddevFraction * mean);

  const double elapsed = static_cast<double>(now - s.last_arrival);
  const double z = (elapsed - mean) / sigma;
  // P(heartbeat still arrives after `elapsed` of silence) under N(μ, σ²).
  const double p_later = 0.5 * std::erfc(z / std::sqrt(2.0));
  double phi = p_later > 0.0 ? -std::log10(p_later) : kMaxPhi;
  phi = std::clamp(phi, 0.0, kMaxPhi);
  if (s.gauge != nullptr) s.gauge->Set(phi);
  return phi;
}

size_t FailureDetector::samples(int stream) const {
  NATTO_DCHECK(stream >= 0 && stream < num_streams());
  return streams_[static_cast<size_t>(stream)].count;
}

void FailureDetector::RegisterMetrics(obs::MetricsRegistry* registry) {
  NATTO_CHECK(registry != nullptr);
  registry_ = registry;
  for (Stream& s : streams_) {
    s.gauge = registry_->GetGauge("fd.phi." + s.name);
  }
}

}  // namespace natto::net
