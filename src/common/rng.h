#ifndef NATTO_COMMON_RNG_H_
#define NATTO_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <random>

namespace natto {

namespace internal {
/// Per-thread side channel for the parallel kernel: while a worker runs an
/// event callback it points this at the event's draw-delta slot so dsan can
/// reconstruct the serial cumulative draw count at the merge barrier. Null
/// (the default, and always on the serial path) costs one branch per draw.
inline thread_local uint64_t* rng_thread_draw_delta = nullptr;
}  // namespace internal

/// Deterministic random source. Every component that needs randomness owns an
/// `Rng` seeded from the experiment seed so that runs are exactly
/// reproducible; nothing in the library calls global random state.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    Tick();
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    Tick();
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    Tick();
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    Tick();
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponentially distributed value with the given rate (events per unit
  /// time); used for open-loop Poisson arrival processes.
  double Exponential(double rate) {
    Tick();
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Pareto-distributed value with scale `xm > 0` and shape `alpha > 0`.
  /// Mean exists for alpha > 1 and equals alpha * xm / (alpha - 1).
  double Pareto(double xm, double alpha) {
    double u = UniformDouble();
    // Guard against u == 0 which would produce infinity.
    if (u < 1e-12) u = 1e-12;
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Derives an independent child generator; useful for giving each actor
  /// its own stream from one experiment seed. The child inherits the parent's
  /// dsan draw counter so a whole fork tree counts into one stream.
  Rng Fork() {
    Tick();
    Rng child(engine_());
    child.draws_ = draws_;
    return child;
  }

  std::mt19937_64& engine() { return engine_; }

  /// Determinism-sanitizer instrumentation (sim/dsan.h): every draw bumps
  /// `*counter`, and Fork() propagates it to children. Counting changes no
  /// drawn value; null (the default) is the zero-overhead off state. Draws
  /// made directly through engine() are not counted.
  void Instrument(uint64_t* counter) { draws_ = counter; }

  /// Arms (or disarms, with null) the calling thread's draw-delta slot; set
  /// by the parallel kernel around each event callback. Only instrumented
  /// draws bump the delta, so serial and parallel dsan streams agree.
  static void SetThreadDrawDelta(uint64_t* delta) {
    internal::rng_thread_draw_delta = delta;
  }

 private:
  void Tick() {
    if (draws_ != nullptr) {
      // Site workers share fork-tree counters across threads; a plain
      // increment would race under the parallel kernel. Relaxed is enough:
      // the merge barrier's mutex orders the final read.
      __atomic_fetch_add(draws_, 1, __ATOMIC_RELAXED);
      if (internal::rng_thread_draw_delta != nullptr) {
        ++*internal::rng_thread_draw_delta;
      }
    }
  }

  std::mt19937_64 engine_;
  uint64_t* draws_ = nullptr;
};

}  // namespace natto

#endif  // NATTO_COMMON_RNG_H_
