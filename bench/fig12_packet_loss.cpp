// Reproduces Figure 12: 95P high-priority latency vs network packet loss,
// YCSB+T at 100 txn/s on the emulated 1 Gbps local cluster (Sec 5.5).
// Loss both delays individual messages (TCP retransmission timeouts) and
// collapses effective link throughput (Mathis model), which is what
// saturates the replication-heavy protocols first.
#include <memory>

#include "bench_util.h"
#include "workload/ycsbt.h"

using namespace natto;
using namespace natto::bench;
using namespace natto::harness;

int main(int argc, char** argv) {
  TraceArgs trace_args = ParseTraceArgs(argc, argv);
  std::vector<obs::TxnTrace> traces;
  std::vector<System> systems = AzureSystems();
  std::vector<double> losses = {0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0};  // percent

  auto workload = []() {
    return std::make_unique<workload::YcsbTWorkload>(
        workload::YcsbTWorkload::Options{});
  };
  std::vector<GridPoint> points;
  for (double loss : losses) {
    ExperimentConfig config = QuickConfig();
    ApplyTraceArgs(trace_args, &config);
    config.input_rate_tps = 100;
    config.cluster.transport.packet_loss = loss / 100.0;
    // 1 Gbps local cluster links (Sec 5.1).
    config.cluster.transport.link_bandwidth_bytes_per_sec = 125e6;
    points.push_back({config, workload});
  }
  std::vector<std::vector<ExperimentResult>> results = RunGrid(points, systems);
  CollectTraces(results, &traces);

  PrintHeader("Fig 12: 95P HIGH-priority latency vs packet loss, "
              "YCSB+T @100 (ms)",
              "loss %", systems);
  for (size_t i = 0; i < losses.size(); ++i) {
    PrintRowStart(losses[i]);
    for (const auto& r : results[i]) PrintCell(r.p95_high_ms);
    EndRow();
    std::printf("  failed:  ");
    for (const auto& r : results[i]) std::printf(" %16lld",
        static_cast<long long>(r.failed));
    std::printf("\n");
    std::fflush(stdout);
  }
  WriteTraces(trace_args, traces);
  return FinishDsan(trace_args, systems, results) ? 0 : 1;
}
