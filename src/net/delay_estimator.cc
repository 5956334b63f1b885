#include "net/delay_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace natto::net {

DelayEstimator::DelayEstimator(SimDuration window, double quantile,
                               SimDuration max_age)
    : window_(window), quantile_(quantile), max_age_(max_age) {
  NATTO_CHECK(window_ > 0);
  NATTO_CHECK(quantile_ > 0.0 && quantile_ <= 1.0);
}

void DelayEstimator::AddSample(SimTime now, SimDuration delay) {
  Evict(now);
  samples_.emplace_back(now, delay);
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), delay),
                 delay);
  sum_ += delay;
  last_sample_time_ = now;
  ever_sampled_ = true;
  RefreshHeld();
}

void DelayEstimator::Evict(SimTime now) const {
  // Keep the full closed window [now - window, now]: a sample taken exactly
  // at the cutoff is still inside the probe window.
  SimTime cutoff = now - window_;
  while (!samples_.empty() && samples_.front().first < cutoff) {
    SimDuration d = samples_.front().second;
    sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), d));
    sum_ -= d;
    samples_.pop_front();
  }
}

bool DelayEstimator::HeldValid(SimTime now) const {
  if (!ever_sampled_) return false;
  return max_age_ <= 0 || now - last_sample_time_ <= max_age_;
}

bool DelayEstimator::HasSamples(SimTime now) const {
  Evict(now);
  return !samples_.empty();
}

bool DelayEstimator::HasEstimate(SimTime now) const {
  return HasSamples(now) || HeldValid(now);
}

void DelayEstimator::RefreshHeld() const {
  // Index of the quantile element (nearest-rank method): ceil(q*n) - 1.
  size_t rank = static_cast<size_t>(
      std::ceil(quantile_ * static_cast<double>(sorted_.size())));
  if (rank > 0) --rank;
  if (rank >= sorted_.size()) rank = sorted_.size() - 1;
  held_estimate_ = sorted_[rank];
  held_mean_ = static_cast<SimDuration>(
      static_cast<long double>(sum_) /
      static_cast<long double>(sorted_.size()));
}

SimDuration DelayEstimator::Estimate(SimTime now) const {
  Evict(now);
  if (samples_.empty()) return HeldValid(now) ? held_estimate_ : 0;
  RefreshHeld();
  return held_estimate_;
}

SimDuration DelayEstimator::MeanEstimate(SimTime now) const {
  Evict(now);
  if (samples_.empty()) return HeldValid(now) ? held_mean_ : 0;
  RefreshHeld();
  return held_mean_;
}

}  // namespace natto::net
