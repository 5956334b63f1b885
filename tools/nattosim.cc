// nattosim: flag-driven experiment driver. Runs any system x workload x
// network configuration from the command line and prints latency and
// goodput statistics — the tool a downstream user reaches for before
// writing code against the library.
//
// Examples:
//   nattosim --system=natto-recsf --workload=ycsbt --rate=350
//   nattosim --system=carousel-basic --workload=smallbank --rate=1000
//            --matrix=azure --repeats=3
//   nattosim --system=2pl-p --workload=retwis --rate=500 --variance=0.15
//   nattosim --system=natto-recsf --workload=ycsbt --trace=run.json
//   nattosim --system=carousel-fast --workload=retwis --timeline
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/parse_number.h"
#include "harness/experiment.h"
#include "harness/histogram.h"
#include "harness/systems.h"
#include "obs/trace.h"
#include "sim/dsan.h"
#include "workload/retwis.h"
#include "workload/smallbank.h"
#include "workload/ycsbt.h"

using namespace natto;
using namespace natto::harness;

namespace {

struct Flags {
  std::string system = "natto-recsf";
  std::string workload = "ycsbt";
  std::string matrix = "azure";
  double rate = 100;
  double zipf = 0.65;
  double high_fraction = 0.10;
  double medium_fraction = 0.0;
  double variance = 0.0;
  double loss = 0.0;
  int partitions = 5;
  int duration_s = 24;
  int repeats = 2;
  uint64_t seed = 42;
  int jobs = 0;  // 0 = NATTO_JOBS env / hardware concurrency
  bool hist = false;
  bool help = false;
  std::string trace_path;    // empty = no trace file
  int trace_sample = 1;      // 1-in-N sampling when tracing
  bool timeline = false;     // print one transaction's span timeline
  uint64_t timeline_txn = 0; // 0 = first finished sampled transaction
  bench::DsanArgs dsan;      // --dsan / --dsan-trail / --dsan-diff
};

void PrintUsage() {
  std::printf(
      "nattosim — run a simulated geo-distributed transaction experiment\n\n"
      "  --system=NAME     2pl | 2pl-p | 2pl-pow | tapir | carousel-basic |\n"
      "                    carousel-fast | natto-ts | natto-lecsf | natto-pa |\n"
      "                    natto-cp | natto-recsf   (default natto-recsf)\n"
      "  --workload=NAME   ycsbt | retwis | smallbank  (default ycsbt)\n"
      "  --matrix=NAME     azure | hybrid | triangle   (default azure)\n"
      "  --rate=N          aggregate input rate, txn/s (default 100)\n"
      "  --zipf=F          Zipfian coefficient (default 0.65)\n"
      "  --high=F          high-priority fraction (default 0.10)\n"
      "  --medium=F        medium-priority fraction, ycsbt only (default 0)\n"
      "  --variance=F      network delay variance ratio (Pareto; default 0)\n"
      "  --loss=F          packet loss probability (default 0)\n"
      "  --partitions=N    number of data partitions (default 5)\n"
      "  --duration=N      seconds per run (default 24; 1/6 trimmed each end)\n"
      "  --repeats=N       runs per configuration (default 2)\n"
      "  --seed=N          base seed (default 42)\n"
      "  --jobs=N          worker threads for the repeat fan-out\n"
      "                    (default: NATTO_JOBS or all hardware threads;\n"
      "                    1 = serial; any value is bit-identical)\n"
      "  --hist            print latency histograms per priority class\n"
      "  --trace=PATH      write sampled transaction traces after the run\n"
      "                    (.jsonl = flat JSON lines, else Chrome\n"
      "                    trace_event JSON for chrome://tracing)\n"
      "  --trace-sample=N  record 1-in-N transactions (default 1 = all)\n"
      "  --timeline[=ID]   print the span timeline of transaction ID\n"
      "                    (default: first finished sampled transaction)\n"
      "  --dsan            attach the determinism sanitizer; print each\n"
      "                    repeat's event-ledger digest after the run\n"
      "  --dsan-trail=PATH also write the digest trails to PATH (a labeled\n"
      "                    trail file for later --dsan-diff=PATH runs)\n"
      "  --dsan-diff[=PATH] diff the digest trails: against the trail file\n"
      "                    PATH when given, else run the experiment twice\n"
      "                    (serial, then 8 jobs) and compare; on divergence,\n"
      "                    re-run with a capture window over the divergent\n"
      "                    checkpoint interval and print an event-level\n"
      "                    first-difference report (exit 1)\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      flags->help = true;
    } else if (std::strcmp(argv[i], "--hist") == 0) {
      flags->hist = true;
    } else if (ParseFlag(argv[i], "--system", &v)) {
      flags->system = v;
    } else if (ParseFlag(argv[i], "--workload", &v)) {
      flags->workload = v;
    } else if (ParseFlag(argv[i], "--matrix", &v)) {
      flags->matrix = v;
    } else if (ParseFlag(argv[i], "--rate", &v)) {
      ok &= ParseNumber("--rate", v, &flags->rate);
    } else if (ParseFlag(argv[i], "--zipf", &v)) {
      ok &= ParseNumber("--zipf", v, &flags->zipf);
    } else if (ParseFlag(argv[i], "--high", &v)) {
      ok &= ParseNumber("--high", v, &flags->high_fraction);
    } else if (ParseFlag(argv[i], "--medium", &v)) {
      ok &= ParseNumber("--medium", v, &flags->medium_fraction);
    } else if (ParseFlag(argv[i], "--variance", &v)) {
      ok &= ParseNumber("--variance", v, &flags->variance);
    } else if (ParseFlag(argv[i], "--loss", &v)) {
      ok &= ParseNumber("--loss", v, &flags->loss);
    } else if (ParseFlag(argv[i], "--partitions", &v)) {
      ok &= ParseNumber("--partitions", v, &flags->partitions);
    } else if (ParseFlag(argv[i], "--duration", &v)) {
      ok &= ParseNumber("--duration", v, &flags->duration_s);
    } else if (ParseFlag(argv[i], "--repeats", &v)) {
      ok &= ParseNumber("--repeats", v, &flags->repeats);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      ok &= ParseNumber("--seed", v, &flags->seed);
    } else if (ParseFlag(argv[i], "--jobs", &v)) {
      ok &= ParseNumber("--jobs", v, &flags->jobs);
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      flags->trace_path = v;
    } else if (ParseFlag(argv[i], "--trace-sample", &v)) {
      ok &= ParseNumber("--trace-sample", v, &flags->trace_sample);
      if (flags->trace_sample < 1) flags->trace_sample = 1;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      flags->timeline = true;
    } else if (ParseFlag(argv[i], "--timeline", &v)) {
      flags->timeline = true;
      ok &= ParseNumber("--timeline", v, &flags->timeline_txn);
    } else if (bench::ParseDsanArg(argv[i], &flags->dsan)) {
      // handled
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return ok;
}

bool SystemFromName(const std::string& name, SystemKind* out) {
  struct Entry {
    const char* name;
    SystemKind kind;
  };
  static const Entry kEntries[] = {
      {"2pl", SystemKind::kTwoPl},
      {"2pl-p", SystemKind::kTwoPlPreempt},
      {"2pl-pow", SystemKind::kTwoPlPow},
      {"tapir", SystemKind::kTapir},
      {"carousel-basic", SystemKind::kCarouselBasic},
      {"carousel-fast", SystemKind::kCarouselFast},
      {"natto-ts", SystemKind::kNattoTs},
      {"natto-lecsf", SystemKind::kNattoLecsf},
      {"natto-pa", SystemKind::kNattoPa},
      {"natto-cp", SystemKind::kNattoCp},
      {"natto-recsf", SystemKind::kNattoRecsf},
  };
  for (const Entry& e : kEntries) {
    if (name == e.name) {
      *out = e.kind;
      return true;
    }
  }
  return false;
}

/// --dsan-diff self mode: run the configured experiment twice — serial, then
/// fanned across 8 jobs — and compare the per-repeat digest trails. Any
/// job-count-dependent behavior (shared mutable state between cells, an
/// iteration order leaking host addresses, ...) shows up as a divergent
/// checkpoint window; the divergent repeat is then re-run with a capture
/// window over that interval for an event-level first-difference report.
int RunDsanSelfDiff(ExperimentConfig config, const System& system,
                    const WorkloadFactory& workload) {
  auto collect = [&](const ExperimentConfig& c, int jobs) {
    std::vector<bench::LabeledTrail> trails;
    bench::CollectDsanTrails({system},
                             RunGrid({GridPoint{c, workload}}, {system}, jobs),
                             "", &trails);
    return trails;
  };
  std::fprintf(stderr,
               "dsan: self-diff — running %d repeat(s) serial, then with 8 "
               "jobs\n",
               config.repeats);
  std::vector<bench::LabeledTrail> serial = collect(config, 1);
  std::vector<bench::LabeledTrail> parallel = collect(config, 8);
  if (serial.size() != parallel.size()) {
    std::fprintf(stderr, "dsan: trail counts differ (%zu vs %zu)\n",
                 serial.size(), parallel.size());
    return 1;
  }
  for (size_t i = 0; i < serial.size(); ++i) {
    sim::DsanDivergence d =
        sim::DiffTrails(serial[i].trail, parallel[i].trail);
    if (!d.diverged) continue;
    std::fprintf(stderr, "dsan: cell %s DIVERGED: %s\n",
                 serial[i].label.c_str(), d.what.c_str());
    // Event-level context: re-run both sides with a capture window over the
    // divergent interval. One cell on its own always runs single-threaded
    // (parallelism is across cells), so the parallel side is reproduced by
    // re-running the whole grid at 8 jobs.
    ExperimentConfig cap = config;
    cap.cluster.dsan.capture_begin = d.window_begin;
    cap.cluster.dsan.capture_end = d.window_end;
    std::vector<bench::LabeledTrail> cs = collect(cap, 1);
    std::vector<bench::LabeledTrail> cp = collect(cap, 8);
    const sim::DsanTrail& a = i < cs.size() ? cs[i].trail : serial[i].trail;
    const sim::DsanTrail& b = i < cp.size() ? cp[i].trail : parallel[i].trail;
    std::string report =
        sim::FormatDivergenceReport("serial", a, "jobs=8", b,
                                    sim::DiffTrails(a, b));
    std::fprintf(stderr, "%s", report.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "dsan: serial and 8-job runs are identical (%zu repeat(s))\n",
               serial.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage();
    return 2;
  }
  if (flags.help) {
    PrintUsage();
    return 0;
  }

  SystemKind kind;
  if (!SystemFromName(flags.system, &kind)) {
    std::fprintf(stderr, "unknown system '%s'\n", flags.system.c_str());
    PrintUsage();
    return 2;
  }

  ExperimentConfig config;
  // Env-var defaults first (NATTO_SIM_THREADS and friends, the same knobs
  // the benches honor); the explicit flags below override them.
  ApplyEnvOverrides(&config);
  if (flags.matrix == "azure") {
    config.matrix = net::LatencyMatrix::AzureFive();
  } else if (flags.matrix == "hybrid") {
    config.matrix = net::LatencyMatrix::HybridAwsAzure();
    config.cluster.uniform_jitter = 0.05;
  } else if (flags.matrix == "triangle") {
    config.matrix = net::LatencyMatrix::LocalTriangle();
  } else {
    std::fprintf(stderr, "unknown matrix '%s'\n", flags.matrix.c_str());
    return 2;
  }
  config.num_partitions = flags.partitions;
  config.input_rate_tps = flags.rate;
  config.duration = Seconds(flags.duration_s);
  config.warmup = Seconds(flags.duration_s) / 6;
  config.cooldown = Seconds(flags.duration_s) / 6;
  config.repeats = flags.repeats;
  config.seed = flags.seed;
  config.cluster.delay_variance_ratio = flags.variance;
  config.cluster.transport.packet_loss = flags.loss;
  config.cluster.trace.enabled = !flags.trace_path.empty() || flags.timeline;
  config.cluster.trace.sample_period = flags.trace_sample;
  bench::ApplyDsanArgs(flags.dsan, &config);

  WorkloadFactory workload;
  if (flags.workload == "ycsbt") {
    workload::YcsbTWorkload::Options o;
    o.zipf_theta = flags.zipf;
    o.high_priority_fraction = flags.high_fraction;
    o.medium_priority_fraction = flags.medium_fraction;
    workload = [o]() { return std::make_unique<workload::YcsbTWorkload>(o); };
  } else if (flags.workload == "retwis") {
    workload::RetwisWorkload::Options o;
    o.zipf_theta = flags.zipf;
    o.high_priority_fraction = flags.high_fraction;
    workload = [o]() { return std::make_unique<workload::RetwisWorkload>(o); };
  } else if (flags.workload == "smallbank") {
    workload::SmallBankWorkload::Options o;
    o.high_priority_fraction = flags.high_fraction;
    Value initial = o.initial_balance;
    config.default_value = [initial](Key) { return initial; };
    workload = [o]() {
      return std::make_unique<workload::SmallBankWorkload>(o);
    };
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }

  System system = MakeSystem(kind);
  std::printf("system=%s workload=%s matrix=%s rate=%g zipf=%g high=%g\n",
              system.name.c_str(), flags.workload.c_str(),
              flags.matrix.c_str(), flags.rate, flags.zipf,
              flags.high_fraction);
  std::vector<std::vector<ExperimentResult>> results =
      RunGrid({GridPoint{config, workload}}, {system}, flags.jobs);
  const ExperimentResult& r = results[0][0];
  std::printf("\n%22s: %8.1f +- %.0f ms\n", "p95 high-priority",
              r.p95_high_ms.mean, r.p95_high_ms.ci95);
  std::printf("%22s: %8.1f +- %.0f ms\n", "p95 low-priority",
              r.p95_low_ms.mean, r.p95_low_ms.ci95);
  std::printf("%22s: %8.1f +- %.0f ms\n", "mean high-priority",
              r.mean_high_ms.mean, r.mean_high_ms.ci95);
  std::printf("%22s: %8.1f +- %.0f ms\n", "mean low-priority",
              r.mean_low_ms.mean, r.mean_low_ms.ci95);
  std::printf("%22s: %8.1f txn/s\n", "goodput (total)",
              r.goodput_total_tps.mean);
  std::printf("%22s: %8.2f of attempts\n", "abort fraction",
              r.abort_fraction.mean);
  std::printf("%22s: %8lld\n", "failed transactions",
              static_cast<long long>(r.failed));

  if (flags.hist) {
    RunStats run = RunOnce(config, system, workload, config.seed);
    harness::LatencyHistogram high, low;
    for (double ms : run.latencies_high_ms) high.Record(ms);
    for (double ms : run.latencies_low_ms) low.Record(ms);
    std::printf("\n--- high-priority latency distribution (one run) ---\n%s",
                high.ToAscii().c_str());
    std::printf("\n--- low-priority latency distribution (one run) ---\n%s",
                low.ToAscii().c_str());
  }

  if (!flags.trace_path.empty()) {
    const std::string& p = flags.trace_path;
    const bool jsonl =
        p.size() >= 6 && p.compare(p.size() - 6, 6, ".jsonl") == 0;
    const std::string out =
        jsonl ? obs::TraceJsonLines(r.traces) : obs::ChromeTraceJson(r.traces);
    std::FILE* f = std::fopen(p.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", p.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu transaction traces to %s\n",
                 r.traces.size(), p.c_str());
  }

  if (flags.timeline) {
    const obs::TxnTrace* pick = nullptr;
    for (const obs::TxnTrace& t : r.traces) {
      if (flags.timeline_txn != 0 ? t.id == flags.timeline_txn
                                  : !t.outcome.empty()) {
        pick = &t;
        break;
      }
    }
    if (pick == nullptr) {
      std::printf("\nno traced transaction matches --timeline\n");
    } else {
      std::printf("\n--- transaction timeline ---\n%s",
                  obs::RenderTimeline(*pick).c_str());
    }
  }

  if (flags.dsan.enabled) {
    std::vector<bench::LabeledTrail> trails;
    bench::CollectDsanTrails({system}, results, "", &trails);
    if (!bench::FinishDsanTrails(flags.dsan, trails)) return 1;
    if (flags.dsan.diff && flags.dsan.baseline_path.empty()) {
      return RunDsanSelfDiff(config, system, workload);
    }
  }
  return 0;
}
