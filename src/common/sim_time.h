#ifndef NATTO_COMMON_SIM_TIME_H_
#define NATTO_COMMON_SIM_TIME_H_

#include <cstdint>

namespace natto {

/// Simulated time in microseconds since the start of the run. All protocol
/// timestamps, delays and clock readings use this unit.
using SimTime = int64_t;

/// Duration in microseconds.
using SimDuration = int64_t;

constexpr SimTime kSimTimeMax = INT64_MAX;

constexpr SimDuration Micros(int64_t n) { return n; }
constexpr SimDuration Millis(int64_t n) { return n * 1000; }
constexpr SimDuration Seconds(int64_t n) { return n * 1000 * 1000; }

constexpr double ToMillis(SimDuration d) { return static_cast<double>(d) / 1000.0; }
constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / 1000000.0;
}

}  // namespace natto

#endif  // NATTO_COMMON_SIM_TIME_H_
