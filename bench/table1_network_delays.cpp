// Reproduces Table 1: the average inter-datacenter round-trip delays used
// by every experiment, and validates that the Domino-style prober recovers
// them (p95 estimates over 10 ms probes with a 1 s window).
#include <cstdio>
#include <memory>

#include "net/latency_matrix.h"
#include "net/prober.h"
#include "net/transport.h"
#include "sim/simulator.h"

using namespace natto;

int main() {
  net::LatencyMatrix m = net::LatencyMatrix::AzureFive();

  std::printf("=== Table 1: configured network round-trip delays (ms) ===\n");
  std::printf("%6s", "");
  for (int b = 0; b < m.num_sites(); ++b) {
    std::printf(" %6s", m.site_name(b).c_str());
  }
  std::printf("\n");
  for (int a = 0; a < m.num_sites(); ++a) {
    std::printf("%6s", m.site_name(a).c_str());
    for (int b = 0; b < m.num_sites(); ++b) {
      if (b <= a) {
        std::printf(" %6s", "-");
      } else {
        std::printf(" %6.0f", ToMillis(m.Rtt(a, b)));
      }
    }
    std::printf("\n");
  }

  // Measured one-way estimates from a prober at each site.
  sim::Simulator simulator;
  net::Transport transport(&simulator, &m, net::MakeParetoDelay(0.001),
                           net::TransportOptions{}, 42);
  std::vector<std::unique_ptr<net::Node>> targets;
  std::vector<std::unique_ptr<net::Prober>> probers;
  for (int s = 0; s < m.num_sites(); ++s) {
    targets.push_back(
        std::make_unique<net::Node>(&transport, s, sim::NodeClock(0)));
  }
  for (int s = 0; s < m.num_sites(); ++s) {
    probers.push_back(std::make_unique<net::Prober>(
        &transport, s, sim::NodeClock(0), /*quantile=*/0.95));
    for (int t = 0; t < m.num_sites(); ++t) {
      probers.back()->AddTarget(t, targets[t].get());
    }
    probers.back()->Start();
  }
  simulator.RunUntil(Seconds(3));

  std::printf("\n=== Prober p95 one-way estimates x2 (ms; should match the "
              "RTTs above) ===\n");
  std::printf("%6s", "");
  for (int b = 0; b < m.num_sites(); ++b) {
    std::printf(" %6s", m.site_name(b).c_str());
  }
  std::printf("\n");
  for (int a = 0; a < m.num_sites(); ++a) {
    std::printf("%6s", m.site_name(a).c_str());
    for (int b = 0; b < m.num_sites(); ++b) {
      if (b <= a) {
        std::printf(" %6s", "-");
      } else {
        std::printf(" %6.0f", 2 * ToMillis(probers[a]->EstimateDelayTo(b)));
      }
    }
    std::printf("\n");
  }
  return 0;
}
