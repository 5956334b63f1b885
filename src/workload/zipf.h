#ifndef NATTO_WORKLOAD_ZIPF_H_
#define NATTO_WORKLOAD_ZIPF_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace natto::workload {

/// Zipfian distribution over {0, ..., n-1} with exponent `theta` (the
/// paper's "Zipfian coefficient", default 0.65). Uses the classic
/// Gray et al. rejection-free inverse method with a precomputed zeta
/// constant; theta == 0 reduces to uniform.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double zeta2_;
};

}  // namespace natto::workload

#endif  // NATTO_WORKLOAD_ZIPF_H_
