#include "harness/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "common/parse_number.h"

namespace natto::harness {

namespace {

/// splitmix64 finalizer (Steele et al.): a cheap bijective mixer with good
/// avalanche behavior, so neighboring (system, x, repeat) cells get
/// decorrelated seed streams.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t CellSeed(uint64_t base_seed, int system_index, int x_index,
                  int repeat) {
  uint64_t h = SplitMix64(base_seed);
  h = SplitMix64(h ^ (static_cast<uint64_t>(system_index) << 42) ^
                 (static_cast<uint64_t>(x_index) << 21) ^
                 static_cast<uint64_t>(repeat));
  // mt19937_64(0) is a legal seed but keep ids nonzero for readability in
  // logs and debuggers.
  return h != 0 ? h : 1;
}

int DefaultJobs() {
  // Harness-level knob, not library state: the job count never affects
  // results (cells are deterministic and merge in submission order), so
  // this env read is sanctioned.
  if (const char* env = std::getenv("NATTO_JOBS")) {  // NOLINT(natto-env-read)
    return ParseEnvInt("NATTO_JOBS", env, 1);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ParallelRunner::ParallelRunner(int jobs)
    : jobs_(jobs > 0 ? jobs : DefaultJobs()) {}

void ParallelRunner::Run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  int workers = std::min<int>(jobs_, static_cast<int>(tasks.size()));
  if (workers <= 1) {
    for (auto& task : tasks) task();
    return;
  }
  // Work-stealing-free claim queue: workers pull the next unclaimed index.
  // Cells near the front of the submission order start first, which keeps
  // the long-pole cells (low x, all repeats) from bunching at the tail.
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&next, &tasks]() {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks.size()) return;
        tasks[i]();
      }
    });
  }
  for (auto& worker : pool) worker.join();
}

}  // namespace natto::harness
