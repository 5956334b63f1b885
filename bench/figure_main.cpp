// The main of every paper-figure and ablation binary. CMake compiles this
// file once per entry of the table in figures.cc, with NATTO_FIGURE set to
// the binary's name.
#include "figures.h"

int main(int argc, char** argv) {
  return natto::bench::RunFigure(NATTO_FIGURE, argc, argv);
}
