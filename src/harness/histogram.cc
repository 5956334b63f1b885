#include "harness/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace natto::harness {

LatencyHistogram::LatencyHistogram(double min_ms, double max_ms,
                                   int buckets_per_decade) {
  NATTO_CHECK(min_ms > 0 && max_ms > min_ms && buckets_per_decade > 0);
  min_ms_ = min_ms;
  log_min_ = std::log10(min_ms);
  bucket_width_log_ = 1.0 / buckets_per_decade;
  int n = static_cast<int>(
              std::ceil((std::log10(max_ms) - log_min_) / bucket_width_log_)) +
          2;  // +underflow/overflow catch-alls at the ends
  buckets_.assign(static_cast<size_t>(n), 0);
}

int LatencyHistogram::BucketFor(double ms) const {
  if (ms <= min_ms_) return 0;
  int b = 1 + static_cast<int>((std::log10(ms) - log_min_) / bucket_width_log_);
  return std::min(b, static_cast<int>(buckets_.size()) - 1);
}

double LatencyHistogram::BucketLow(int b) const {
  if (b <= 0) return 0;
  return std::pow(10.0, log_min_ + (b - 1) * bucket_width_log_);
}

double LatencyHistogram::BucketHigh(int b) const {
  return std::pow(10.0, log_min_ + b * bucket_width_log_);
}

void LatencyHistogram::Record(double ms) {
  ++buckets_[static_cast<size_t>(BucketFor(ms))];
  ++count_;
  sum_ += ms;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  NATTO_CHECK(buckets_.size() == other.buckets_.size())
      << "histograms must share a layout to merge";
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0;
}

double LatencyHistogram::Percentile(double q) const {
  // Empty inputs and q <= 0 produce rank 0 under the ceil-rank formula below
  // (count_ == 0 makes every target 0; q <= 0 makes ceil(q*n) <= 0): both
  // answer "the value no sample is below", which is 0.0 by definition —
  // never a bucket midpoint read off uninitialized rank state.
  if (count_ == 0 || q <= 0.0) return 0.0;
  // Nearest-rank: report the bucket holding the ceil(q*n)-th sample. The
  // previous `seen > floor(q*n)` form skewed one sample high (p50 of two
  // samples in distinct buckets landed in the upper bucket).
  auto target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (target < 1) target = 1;
  if (target > count_) target = count_;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= target) {
      // Geometric midpoint of the bucket.
      double lo = BucketLow(static_cast<int>(b));
      double hi = BucketHigh(static_cast<int>(b));
      return lo > 0 ? std::sqrt(lo * hi) : hi / 2;
    }
  }
  return BucketHigh(static_cast<int>(buckets_.size()) - 1);
}

std::string LatencyHistogram::ToAscii(int max_rows) const {
  std::string out;
  if (count_ == 0) return "(empty histogram)\n";
  // Find occupied range and coarsen into at most max_rows rows.
  int first = -1, last = -1;
  uint64_t max_count = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] > 0) {
      if (first < 0) first = static_cast<int>(b);
      last = static_cast<int>(b);
    }
  }
  int span = last - first + 1;
  int per_row = std::max(1, (span + max_rows - 1) / max_rows);
  std::vector<std::pair<int, uint64_t>> rows;  // (start bucket, count)
  for (int b = first; b <= last; b += per_row) {
    uint64_t c = 0;
    for (int i = b; i < std::min(b + per_row, last + 1); ++i) {
      c += buckets_[static_cast<size_t>(i)];
    }
    rows.emplace_back(b, c);
    max_count = std::max(max_count, c);
  }
  char line[160];
  for (const auto& [b, c] : rows) {
    int width = max_count > 0
                    ? static_cast<int>(50.0 * static_cast<double>(c) /
                                       static_cast<double>(max_count))
                    : 0;
    // The final row can be narrower than `per_row`; clamp its range label to
    // the last occupied bucket so the printed upper bound never exceeds the
    // recorded range.
    std::snprintf(line, sizeof(line), "%9.1f-%9.1f ms |%-50.*s| %llu\n",
                  BucketLow(b), BucketHigh(std::min(b + per_row - 1, last)),
                  width,
                  "##################################################",
                  static_cast<unsigned long long>(c));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "n=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n",
                static_cast<unsigned long long>(count_), mean(),
                Percentile(0.50), Percentile(0.95), Percentile(0.99));
  out += line;
  return out;
}

}  // namespace natto::harness
