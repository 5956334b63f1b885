#ifndef NATTO_BENCH_BENCH_UTIL_H_
#define NATTO_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse_number.h"
#include "fault/fault.h"
#include "harness/experiment.h"
#include "harness/systems.h"
#include "obs/trace.h"
#include "sim/dsan.h"

namespace natto::bench {

/// Default experiment sizing for the figure benches. The paper runs 10
/// repeats x 60 s with 10 s head/tail trim; that is ~20x the compute of this
/// quick default. Set NATTO_REPEATS=10 NATTO_DURATION_S=60 to reproduce the
/// paper's full setting.
///
/// Every bench fans its independent (system, datapoint, repeat) simulation
/// cells across a thread pool (harness::ParallelRunner). NATTO_JOBS caps the
/// worker count (default: all hardware threads; 1 = serial). The printed
/// tables are bit-identical for any job count.
inline harness::ExperimentConfig QuickConfig() {
  harness::ExperimentConfig config;
  config.repeats = 2;
  config.duration = Seconds(24);
  config.warmup = Seconds(4);
  config.cooldown = Seconds(4);
  config.drain = Seconds(20);
  harness::ApplyEnvOverrides(&config);
  return config;
}

inline void PrintHeader(const std::string& title, const std::string& x_label,
                        const std::vector<harness::System>& systems) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-10s", x_label.c_str());
  for (const auto& s : systems) std::printf(" %16s", s.name.c_str());
  std::printf("\n");
}

inline void PrintRowStart(double x) { std::printf("%-10.4g", x); }

inline void PrintCell(const harness::Aggregate& a) {
  std::printf(" %10.1f+-%4.0f", a.mean, a.ci95);
}

inline void PrintCellValue(double v) { std::printf(" %16.1f", v); }

inline void EndRow() {
  std::printf("\n");
  std::fflush(stdout);
}

/// Wire cost of one experiment cell, derived from the transport counters in
/// its merged metrics snapshot and the committed-transaction count. With
/// link batching off, wire_msgs_per_txn == msgs_per_txn (every protocol
/// message is its own wire frame).
struct WireCost {
  double msgs_per_txn = 0;       // protocol messages per committed txn
  double wire_msgs_per_txn = 0;  // framed wire messages (batches) per txn
  double bytes_per_txn = 0;      // framed wire bytes per committed txn
};

inline WireCost ComputeWireCost(const harness::ExperimentResult& r) {
  WireCost w;
  if (r.committed <= 0) return w;
  double committed = static_cast<double>(r.committed);
  w.msgs_per_txn =
      static_cast<double>(r.metrics.counter("net.messages_sent")) / committed;
  w.wire_msgs_per_txn =
      static_cast<double>(r.metrics.counter("net.batches_sent")) / committed;
  w.bytes_per_txn =
      static_cast<double>(r.metrics.counter("net.bytes_sent")) / committed;
  return w;
}

/// Prints one wire-cost table per metric (msgs/txn, wire msgs/txn,
/// bytes/txn) for a result grid, rows keyed by `xs` (same x-axis as the
/// latency tables).
inline void PrintWireCostReport(
    const std::string& title, const std::string& x_label,
    const std::vector<double>& xs,
    const std::vector<harness::System>& systems,
    const std::vector<std::vector<harness::ExperimentResult>>& results) {
  struct Metric {
    const char* name;
    double WireCost::* field;
  };
  const Metric metrics[] = {
      {"msgs/txn", &WireCost::msgs_per_txn},
      {"wire msgs/txn", &WireCost::wire_msgs_per_txn},
      {"bytes/txn", &WireCost::bytes_per_txn},
  };
  for (const Metric& m : metrics) {
    PrintHeader(title + " — " + m.name, x_label, systems);
    for (size_t p = 0; p < results.size(); ++p) {
      PrintRowStart(xs[p]);
      for (const auto& r : results[p]) {
        PrintCellValue(ComputeWireCost(r).*(m.field));
      }
      EndRow();
    }
  }
}

/// Command-line determinism-sanitizer knobs (DESIGN.md §4.10) shared by the
/// figure benches and `nattosim`:
///   --dsan               attach the ledger and print per-cell digests after
///                        the run (stderr; tables stay byte-identical)
///   --dsan-trail=<path>  also write every cell's trail to a labeled trail
///                        file for later --dsan-diff runs
///   --dsan-diff[=<path>] diff this run's trails: against a saved trail file
///                        when a path is given, else `nattosim` re-runs the
///                        grid serial-vs-parallel and compares the two
struct DsanArgs {
  bool enabled = false;
  bool diff = false;
  std::string trail_path;     // --dsan-trail output, empty = don't write
  std::string baseline_path;  // --dsan-diff=<path> input, empty = self-diff
};

/// Consumes one --dsan* argument into `args`; false if `arg` is not a dsan
/// flag (the caller decides whether that is an error).
inline bool ParseDsanArg(const std::string& arg, DsanArgs* args) {
  if (arg == "--dsan") {
    args->enabled = true;
  } else if (arg == "--dsan-trail" || arg == "--dsan-trail=") {
    // A trail flag without a path would silently open an empty filename;
    // fail loudly with the exact spelling instead of falling through to the
    // generic unknown-argument error (bare) or writing to "" (trailing =).
    std::fprintf(stderr,
                 "%s requires a path: --dsan-trail=<path>\n", arg.c_str());
    std::exit(2);
  } else if (arg.rfind("--dsan-trail=", 0) == 0) {
    args->enabled = true;
    args->trail_path = arg.substr(13);
  } else if (arg == "--dsan-diff") {
    args->enabled = true;
    args->diff = true;
  } else if (arg.rfind("--dsan-diff=", 0) == 0) {
    args->enabled = true;
    args->diff = true;
    args->baseline_path = arg.substr(12);
  } else {
    return false;
  }
  return true;
}

inline void ApplyDsanArgs(const DsanArgs& args,
                          harness::ExperimentConfig* config) {
  // OR, don't assign: NATTO_DSAN=1 (ApplyEnvOverrides) may already have
  // enabled the ledger, and the absence of a --dsan flag must not turn it
  // back off.
  if (args.enabled) config->cluster.dsan.enabled = true;
}

/// Command-line tracing knobs shared by the figure benches:
///   --trace=<path>       write sampled transaction traces after the run
///                        (a `.jsonl` path selects flat JSON lines; anything
///                        else selects Chrome trace_event JSON)
///   --trace-sample=<N>   record 1-in-N transactions (default 64)
/// Tracing is off unless --trace is given, and enabling it changes neither
/// the printed numbers nor the kernel a run executes on: the tracer only
/// buffers events against sim time, in serial order.
/// The --dsan* family (above) is parsed here too so every figure bench
/// accepts it.
struct TraceArgs {
  std::string path;
  int sample_period = 64;
  DsanArgs dsan;
  bool enabled() const { return !path.empty(); }
};

/// Flags a bench takes on top of the shared ones. ParseTraceArgs accepts
/// each flag whose target is set and rejects the others as unknown.
struct BenchFlags {
  bool* quick = nullptr;                 // --quick
  std::string* out_path = nullptr;       // --out=<path>
  std::string* schedule_path = nullptr;  // --schedule=<file>
};

/// Parses the command line: the bench's own flags, --trace, --trace-sample
/// and the --dsan* family. An unknown flag or a malformed number exits 2.
inline TraceArgs ParseTraceArgs(int argc, char** argv, BenchFlags own = {}) {
  TraceArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (own.quick != nullptr && arg == "--quick") {
      *own.quick = true;
    } else if (own.out_path != nullptr && arg.rfind("--out=", 0) == 0) {
      *own.out_path = arg.substr(6);
    } else if (own.schedule_path != nullptr &&
               arg.rfind("--schedule=", 0) == 0) {
      *own.schedule_path = arg.substr(11);
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.path = arg.substr(8);
    } else if (arg.rfind("--trace-sample=", 0) == 0) {
      if (!ParseNumber("--trace-sample", arg.substr(15),
                       &args.sample_period)) {
        std::exit(2);
      }
      if (args.sample_period < 1) args.sample_period = 1;
    } else if (ParseDsanArg(arg, &args.dsan)) {
      // handled
    } else {
      std::string supported;
      if (own.quick != nullptr) supported += "--quick, ";
      if (own.out_path != nullptr) supported += "--out=<path>, ";
      if (own.schedule_path != nullptr) supported += "--schedule=<file>, ";
      std::fprintf(stderr,
                   "unknown argument %s (supported: %s--trace=<path>, "
                   "--trace-sample=<N>, --dsan, --dsan-trail=<path>, "
                   "--dsan-diff[=<path>])\n",
                   arg.c_str(), supported.c_str());
      std::exit(2);
    }
  }
  return args;
}

/// Reads the fault schedule in `path` (fault::ParseSchedule grammar). A
/// file that cannot be read or parsed exits 1 with the reason.
inline fault::FaultSchedule LoadSchedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read schedule file %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  fault::FaultSchedule schedule;
  std::string error;
  if (!fault::ParseSchedule(buf.str(), &schedule, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    std::exit(1);
  }
  return schedule;
}

inline void ApplyTraceArgs(const TraceArgs& args,
                           harness::ExperimentConfig* config) {
  config->cluster.trace.enabled = args.enabled();
  config->cluster.trace.sample_period = args.sample_period;
  ApplyDsanArgs(args.dsan, config);
}

/// Appends the traces of a RunGrid result grid in row-major (point, then
/// system) order — the same deterministic order the grid itself merges in.
inline void CollectTraces(
    const std::vector<std::vector<harness::ExperimentResult>>& results,
    std::vector<obs::TxnTrace>* out) {
  for (const auto& row : results) {
    for (const auto& r : row) {
      out->insert(out->end(), r.traces.begin(), r.traces.end());
    }
  }
}

/// Writes the collected traces to args.path. No-op when tracing is off.
inline void WriteTraces(const TraceArgs& args,
                        const std::vector<obs::TxnTrace>& traces) {
  if (!args.enabled()) return;
  const std::string& p = args.path;
  const bool jsonl =
      p.size() >= 6 && p.compare(p.size() - 6, 6, ".jsonl") == 0;
  const std::string out =
      jsonl ? obs::TraceJsonLines(traces) : obs::ChromeTraceJson(traces);
  std::FILE* f = std::fopen(p.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", p.c_str());
    std::exit(1);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu transaction traces to %s\n", traces.size(),
               p.c_str());
}

/// One cell's dsan trail plus the label that identifies the cell across
/// runs: "p<point>.<system>.r<repeat>" (optionally tag-prefixed when a bench
/// runs more than one grid).
struct LabeledTrail {
  std::string label;
  sim::DsanTrail trail;
};

/// Appends the dsan trails of a RunGrid result grid in the same row-major
/// deterministic order as CollectTraces. `tag` prefixes labels ("" for the
/// common single-grid case).
inline void CollectDsanTrails(
    const std::vector<harness::System>& systems,
    const std::vector<std::vector<harness::ExperimentResult>>& results,
    const std::string& tag, std::vector<LabeledTrail>* out) {
  for (size_t p = 0; p < results.size(); ++p) {
    for (size_t s = 0; s < results[p].size(); ++s) {
      const auto& dsan = results[p][s].dsan;
      for (size_t r = 0; r < dsan.size(); ++r) {
        std::string label = tag.empty() ? "" : tag + ".";
        label += "p" + std::to_string(p) + "." + systems[s].name + ".r" +
                 std::to_string(r);
        out->push_back(LabeledTrail{label, dsan[r]});
      }
    }
  }
}

/// Labeled multi-trail file: `dsan-trails v1` header, then per trail a
/// `label <name>` line followed by its SerializeTrail block.
inline bool WriteDsanTrails(const std::string& path,
                            const std::vector<LabeledTrail>& trails) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::string out = "dsan-trails v1\n";
  for (const LabeledTrail& t : trails) {
    out += "label " + t.label + "\n";
    out += sim::SerializeTrail(t.trail);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu dsan trails to %s\n", trails.size(),
               path.c_str());
  return true;
}

inline bool ReadDsanTrails(const std::string& path,
                           std::vector<LabeledTrail>* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  // Split into label blocks; each block body round-trips through ParseTrail.
  size_t pos = text.find('\n');
  if (pos == std::string::npos || text.substr(0, pos) != "dsan-trails v1") {
    std::fprintf(stderr, "%s: not a dsan-trails v1 file\n", path.c_str());
    return false;
  }
  ++pos;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("label ", 0) != 0) {
      std::fprintf(stderr, "%s: expected a label line, got '%s'\n",
                   path.c_str(), line.c_str());
      return false;
    }
    size_t body_begin = pos;
    size_t body_end = text.find("\nlabel ", pos);
    body_end = body_end == std::string::npos ? text.size() : body_end + 1;
    LabeledTrail t;
    t.label = line.substr(6);
    if (!sim::ParseTrail(text.substr(body_begin, body_end - body_begin),
                         &t.trail)) {
      std::fprintf(stderr, "%s: bad trail block for label %s\n", path.c_str(),
                   t.label.c_str());
      return false;
    }
    out->push_back(std::move(t));
    pos = body_end;
  }
  return true;
}

/// Diffs two labeled trail sets (matched by label; `label_a`/`label_b` name
/// the runs, e.g. "serial" vs "jobs=8"). Prints a FormatDivergenceReport for
/// every divergent cell and returns the number of divergences; labels
/// present on only one side count as divergences too.
inline int DiffDsanTrailSets(const std::string& label_a,
                             const std::vector<LabeledTrail>& a,
                             const std::string& label_b,
                             const std::vector<LabeledTrail>& b) {
  int divergences = 0;
  std::vector<const LabeledTrail*> b_by_label;
  for (const LabeledTrail& ta : a) {
    const LabeledTrail* tb = nullptr;
    for (const LabeledTrail& cand : b) {
      if (cand.label == ta.label) {
        tb = &cand;
        break;
      }
    }
    if (tb == nullptr) {
      std::fprintf(stderr, "dsan: cell %s present only in %s\n",
                   ta.label.c_str(), label_a.c_str());
      ++divergences;
      continue;
    }
    sim::DsanDivergence d = sim::DiffTrails(ta.trail, tb->trail);
    if (!d.comparable || d.diverged) {
      ++divergences;
      std::string report = sim::FormatDivergenceReport(
          label_a + ":" + ta.label, ta.trail, label_b + ":" + tb->label,
          tb->trail, d);
      std::fprintf(stderr, "dsan: cell %s DIVERGED\n%s", ta.label.c_str(),
                   report.c_str());
    }
  }
  if (a.size() != b.size()) {
    std::fprintf(stderr, "dsan: trail counts differ (%zu in %s, %zu in %s)\n",
                 a.size(), label_a.c_str(), b.size(), label_b.c_str());
  }
  return divergences;
}

/// Post-run dsan handling on an already-collected trail set: print per-cell
/// digests, write the trail file, and diff against a saved baseline when one
/// was given. Returns false when a baseline diff found divergences (benches
/// turn that into a nonzero exit).
inline bool FinishDsanTrails(const DsanArgs& args,
                             const std::vector<LabeledTrail>& trails) {
  // Non-empty trails with no --dsan flag means NATTO_DSAN=1 enabled the
  // ledger through the environment; still print the per-cell digests.
  if (!args.enabled && trails.empty()) return true;
  for (const LabeledTrail& t : trails) {
    std::fprintf(stderr, "dsan: %s events=%llu digest=%016llx rng=%llu\n",
                 t.label.c_str(),
                 static_cast<unsigned long long>(t.trail.events),
                 static_cast<unsigned long long>(t.trail.final_digest),
                 static_cast<unsigned long long>(t.trail.rng_draws));
  }
  if (!args.trail_path.empty()) {
    if (!WriteDsanTrails(args.trail_path, trails)) return false;
  }
  if (!args.baseline_path.empty()) {
    std::vector<LabeledTrail> baseline;
    if (!ReadDsanTrails(args.baseline_path, &baseline)) return false;
    int n = DiffDsanTrailSets("baseline", baseline, "run", trails);
    if (n > 0) {
      std::fprintf(stderr, "dsan: %d divergent cell(s)\n", n);
      return false;
    }
    std::fprintf(stderr, "dsan: all %zu cells match the baseline\n",
                 trails.size());
  }
  return true;
}

/// Convenience wrapper for the single-grid benches.
inline bool FinishDsan(
    const TraceArgs& args, const std::vector<harness::System>& systems,
    const std::vector<std::vector<harness::ExperimentResult>>& results) {
  // Collect unconditionally (a no-op when dsan was off): the ledger may
  // have been enabled by NATTO_DSAN=1 rather than a --dsan flag.
  std::vector<LabeledTrail> trails;
  CollectDsanTrails(systems, results, "", &trails);
  return FinishDsanTrails(args.dsan, trails);
}

}  // namespace natto::bench

#endif  // NATTO_BENCH_BENCH_UTIL_H_
