#ifndef NATTO_BENCH_FIGURES_H_
#define NATTO_BENCH_FIGURES_H_

namespace natto::bench {

/// Runs the paper-figure or ablation sweep named `name` (its binary's name,
/// e.g. "fig8_zipf_contention") from the table in figures.cc: parses the
/// shared bench flags (bench_util.h), runs every grid of the entry, prints
/// its tables, writes --trace output and finishes the --dsan* family.
/// Returns the process exit code; a name not in the table fails a check.
int RunFigure(const char* name, int argc, char** argv);

}  // namespace natto::bench

#endif  // NATTO_BENCH_FIGURES_H_
