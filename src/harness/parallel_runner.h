#ifndef NATTO_HARNESS_PARALLEL_RUNNER_H_
#define NATTO_HARNESS_PARALLEL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace natto::harness {

/// Deterministic seed for one (system, datapoint, repeat) simulation cell of
/// an experiment grid. A pure splitmix64-based mix of the inputs, so the
/// schedule a cell sees never depends on which worker thread runs it or in
/// what order cells complete — the foundation of the runner's bit-identical
/// serial/parallel guarantee.
uint64_t CellSeed(uint64_t base_seed, int system_index, int x_index,
                  int repeat);

/// Worker count for experiment fan-out: the NATTO_JOBS env var when set (a
/// positive integer; anything else fails a check), else
/// std::thread::hardware_concurrency() (at least 1).
/// NATTO_JOBS=1 recovers the old serial path exactly: every cell runs inline
/// on the calling thread, in submission order, with no threads spawned.
int DefaultJobs();

/// Small thread pool for running independent simulation cells concurrently.
///
/// Each submitted task owns one slot of the caller's output vector, so
/// results are merged in submission order and the aggregate output is
/// bit-identical for any job count. Tasks must be mutually independent:
/// every cell builds its own Simulator/Cluster/engine and shares no mutable
/// state with its siblings (nattolint's natto-mutable-static rule keeps
/// process-wide state out of the engines).
class ParallelRunner {
 public:
  /// jobs <= 0 selects DefaultJobs().
  explicit ParallelRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  /// Runs every task to completion; returns when all have finished. With
  /// jobs() == 1 the tasks run inline in submission order (serial path).
  void Run(std::vector<std::function<void()>> tasks);

 private:
  int jobs_;
};

}  // namespace natto::harness

#endif  // NATTO_HARNESS_PARALLEL_RUNNER_H_
