// SIGPROF sampling profiler, loaded into any binary with LD_PRELOAD;
// profile.py sets it up and symbolizes what it records. For every 1 ms of
// process CPU time the kernel sends SIGPROF to the running thread, and the
// handler records the interrupted program counter plus a backtrace() of
// the stack under it. At exit the samples and the process's memory map go
// to /tmp/natto_profile.<pid>.raw, where profile.py reads them.
//
// The library interposes no symbol of the program it profiles. The only
// process state it touches is the SIGPROF disposition, the ITIMER_PROF
// timer and the LD_PRELOAD variable, which it removes from the environment
// so that child processes run unprofiled.
//
// Samples go through an atomic cursor into one flat anonymous mapping that
// the kernel commits page by page as it fills, so the handler neither
// allocates nor locks. backtrace() runs once before the timer starts,
// because its first call loads the unwinder.

#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr const char* kRawDir = "/tmp";  // profile.py's RAW_DIR
constexpr int kMaxFrames = 64;
constexpr long kIntervalUs = 1000;
// 256 MB of address space; a 20 s run at ~30 frames fills about 5 MB.
constexpr size_t kBufferWords = size_t{1} << 25;

// Process-wide by nature: a signal handler has no object to reach. Each
// record is [word count, pc, backtrace frames...]; the count is stored
// last, so a zero count marks a record still being written.
uint64_t* g_buffer = nullptr;
std::atomic<size_t> g_cursor{0};
std::atomic<uint64_t> g_dropped{0};
pid_t g_pid = 0;

uint64_t InterruptedPc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return uc->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

void OnSigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  void* frames[kMaxFrames];
  const int n = backtrace(frames, kMaxFrames);
  const size_t words = static_cast<size_t>(n) + 2;
  const size_t at = g_cursor.fetch_add(words, std::memory_order_relaxed);
  if (at + words > kBufferWords) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  } else {
    uint64_t* rec = g_buffer + at;
    rec[1] = InterruptedPc(context);
    for (int i = 0; i < n; ++i) {
      // Addresses are this tool's output: profile.py maps them to symbols.
      // NOLINTNEXTLINE(natto-pointer-repr)
      rec[2 + i] = reinterpret_cast<uintptr_t>(frames[i]);
    }
    std::atomic_ref<uint64_t>(rec[0]).store(words, std::memory_order_release);
  }
  errno = saved_errno;
}

__attribute__((constructor)) void StartSampling() {
  unsetenv("LD_PRELOAD");
  void* warm[4];
  backtrace(warm, 4);
  void* mem = mmap(nullptr, kBufferWords * sizeof(uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    std::fprintf(stderr, "natto-profile: cannot map the sample buffer\n");
    return;
  }
  g_buffer = static_cast<uint64_t*>(mem);
  g_pid = getpid();
  struct sigaction sa = {};
  sa.sa_sigaction = OnSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer = {};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value.tv_usec = kIntervalUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void WriteSamples() {
  // A forked child inherits the buffer; only the process that started the
  // timer reports.
  if (g_buffer == nullptr || getpid() != g_pid) return;
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);

  char path[256];
  std::snprintf(path, sizeof path, "%s/natto_profile.%d.raw", kRawDir,
                static_cast<int>(g_pid));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "natto-profile: cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "natto-profile v1\ninterval_us %ld\ndropped %llu\nmaps\n",
               kIntervalUs,
               static_cast<unsigned long long>(g_dropped.load()));
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fputs("samples\n", out);
  const size_t end = g_cursor.load() < kBufferWords ? g_cursor.load()
                                                    : kBufferWords;
  for (size_t at = 0; at < end;) {
    const uint64_t words =
        std::atomic_ref<uint64_t>(g_buffer[at]).load(std::memory_order_acquire);
    if (words == 0) break;  // a record cut off at exit
    for (uint64_t i = 1; i < words; ++i) {
      std::fprintf(out, i == 1 ? "%llx" : " %llx",
                   static_cast<unsigned long long>(g_buffer[at + i]));
    }
    std::fputc('\n', out);
    at += words;
  }
  std::fclose(out);
}

}  // namespace
