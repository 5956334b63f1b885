// The paper-figure and ablation sweeps, one table entry per bench binary
// (figure_main.cpp). RunFigure runs every entry the same way: each sweep
// is one harness::RunGrid over its x values and systems.
#include "figures.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "natto/natto.h"
#include "workload/retwis.h"
#include "workload/smallbank.h"
#include "workload/ycsbt.h"

namespace natto::bench {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::System;
using harness::WorkloadFactory;
using Grid = std::vector<std::vector<ExperimentResult>>;
using Ycsbt = workload::YcsbTWorkload;
using Retwis = workload::RetwisWorkload;
using SmallBank = workload::SmallBankWorkload;

/// One grid of a figure. Each x is set on a copy of the base config, and
/// the finished grid (a row per x, a column per system) goes to `print`.
struct Sweep {
  std::vector<System> systems;
  std::vector<double> xs;
  /// Sets one x on `config` and returns that point's workload.
  std::function<WorkloadFactory(double x, ExperimentConfig* config)> point;
  std::function<void(const Sweep&, const Grid&)> print;
  /// Prefix of this grid's dsan trail labels, for a figure with two grids.
  std::string dsan_prefix = {};
};

struct Figure {
  std::string name;  // the binary's name
  std::vector<Sweep> sweeps;
};

template <typename W>
WorkloadFactory Make(typename W::Options options = {}) {
  return [options]() { return std::make_unique<W>(options); };
}

/// Unwritten SmallBank accounts hold the workload's initial balance.
std::function<Value(Key)> InitialBalance() {
  return [initial = SmallBank::Options{}.initial_balance](Key) {
    return initial;
  };
}

/// Prints one table with a row per x and a cell per system.
void PrintTable(const Sweep& sweep, const Grid& grid, const std::string& title,
                const std::string& x_label,
                void (*cell)(const ExperimentResult&)) {
  PrintHeader(title, x_label, sweep.systems);
  for (size_t i = 0; i < sweep.xs.size(); ++i) {
    PrintRowStart(sweep.xs[i]);
    for (const ExperimentResult& r : grid[i]) cell(r);
    EndRow();
  }
}

void P95High(const ExperimentResult& r) { PrintCell(r.p95_high_ms); }
void P95Low(const ExperimentResult& r) { PrintCell(r.p95_low_ms); }
void P95HighMean(const ExperimentResult& r) {
  PrintCellValue(r.p95_high_ms.mean);
}
void GoodputLow(const ExperimentResult& r) {
  PrintCellValue(r.goodput_low_tps.mean);
}

/// The print function of a sweep whose one table is the high-priority p95.
std::function<void(const Sweep&, const Grid&)> P95HighTable(
    std::string title, std::string x_label) {
  return [title, x_label](const Sweep& s, const Grid& g) {
    PrintTable(s, g, title, x_label, P95High);
  };
}

/// Fig 7 (Sec 5.2): high- and low-priority p95 vs input rate, and the
/// committed low-priority goodput that is the low panel's x-axis.
Sweep Fig7(std::vector<System> systems, std::vector<double> rates,
           std::string high, std::string low, std::string workload_name,
           WorkloadFactory workload,
           std::function<Value(Key)> default_value = nullptr) {
  return {std::move(systems), std::move(rates),
          [workload, default_value](double rate, ExperimentConfig* c) {
            c->input_rate_tps = rate;
            c->default_value = default_value;
            return workload;
          },
          [high, low, workload_name](const Sweep& s, const Grid& g) {
            PrintTable(s, g,
                       "Fig 7(" + high + "): 95P latency, HIGH priority, " +
                           workload_name + " (ms)",
                       "txn/s", P95High);
            PrintTable(s, g,
                       "Fig 7(" + low + "): 95P latency, LOW priority, " +
                           workload_name + " (ms)",
                       "txn/s", P95Low);
            PrintTable(s, g,
                       "Fig 7(" + low +
                           ") x-axis: committed LOW-priority goodput (txn/s)",
                       "txn/s", GoodputLow);
          }};
}

/// Fig 10 (Sec 5.4): SmallBank with only sendPayment transactions given
/// high priority; the high-priority p95's increase over the 100 txn/s
/// point as load grows.
Sweep Fig10() {
  SmallBank::Options o;
  o.priority_mode = SmallBank::PriorityMode::kSendPaymentHigh;
  return {harness::PrioritySystems(), {100, 1500},
          [o](double rate, ExperimentConfig* c) {
            c->repeats = 1;  // wide rate sweep; single seed per point
            c->duration = Seconds(10);
            c->warmup = Seconds(2);
            c->cooldown = Seconds(2);
            c->input_rate_tps = rate;
            c->default_value = InitialBalance();
            return Make<SmallBank>(o);
          },
          [](const Sweep& s, const Grid& g) {
            PrintHeader("Fig 10: 95P HIGH-priority (sendPayment) latency "
                        "increase vs the 100 txn/s point (%)",
                        "txn/s", s.systems);
            for (size_t i = 0; i < s.xs.size(); ++i) {
              PrintRowStart(s.xs[i]);
              for (size_t j = 0; j < s.systems.size(); ++j) {
                double base = g[0][j].p95_high_ms.mean;
                double p95 = g[i][j].p95_high_ms.mean;
                PrintCellValue(base > 0 ? (p95 - base) / base * 100.0 : 0);
              }
              EndRow();
            }
            PrintTable(s, g, "Fig 10 raw: 95P HIGH-priority latency (ms)",
                       "txn/s", P95HighMean);
          }};
}

/// Fig 12 (Sec 5.5): high-priority p95 vs packet loss on the emulated
/// 1 Gbps local cluster. Loss both delays single messages (TCP
/// retransmission timeouts) and collapses link throughput (Mathis model),
/// which saturates the replication-heavy protocols first; each row is
/// followed by the transactions that gave up.
Sweep Fig12() {
  return {harness::AzureSystems(), {0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0},
          [](double loss_pct, ExperimentConfig* c) {
            c->input_rate_tps = 100;
            c->cluster.transport.packet_loss = loss_pct / 100.0;
            // 1 Gbps local cluster links (Sec 5.1).
            c->cluster.transport.link_bandwidth_bytes_per_sec = 125e6;
            return Make<Ycsbt>();
          },
          [](const Sweep& s, const Grid& g) {
            PrintHeader("Fig 12: 95P HIGH-priority latency vs packet loss, "
                        "YCSB+T @100 (ms)",
                        "loss %", s.systems);
            for (size_t i = 0; i < s.xs.size(); ++i) {
              PrintRowStart(s.xs[i]);
              for (const ExperimentResult& r : g[i]) PrintCell(r.p95_high_ms);
              EndRow();
              std::printf("  failed:  ");
              for (const ExperimentResult& r : g[i]) {
                std::printf(" %16lld", static_cast<long long>(r.failed));
              }
              std::printf("\n");
              std::fflush(stdout);
            }
          }};
}

/// Fig 14 (Sec 5.6): peak committed throughput vs number of partitions.
/// Three datacenters with 4/6/8 ms round trips, Retwis on uniform keys, and
/// a server CPU model so that message processing bounds throughput. The
/// peak of a partition count is its best committed rate over the offered
/// rates.
Sweep Fig14() {
  const std::vector<int> partitions = {2, 4, 8};
  const std::vector<double> offered = {4000, 10000};
  // One point per (partitions, offered rate), keyed partitions + rate/1e6:
  // the wire-cost tables print that key as their row label.
  std::vector<double> xs;
  for (int parts : partitions) {
    for (double rate : offered) xs.push_back(parts + rate / 1e6);
  }
  return {harness::AzureSystems(), std::move(xs),
          [](double x, ExperimentConfig* c) {
            const int parts = static_cast<int>(x);
            c->repeats = 1;
            c->duration = Seconds(6);
            c->warmup = Seconds(2);
            c->cooldown = Seconds(2);
            c->drain = Seconds(5);
            c->matrix = net::LatencyMatrix::LocalTriangle();
            c->num_partitions = parts;
            c->input_rate_tps = std::round((x - parts) * 1e6);
            // Server capacity: ~25 us of CPU per message (a gRPC-ish
            // budget); this is what the leaders saturate on.
            c->cluster.transport.node_cost_per_message = Micros(25);
            Retwis::Options o;
            o.uniform_keys = true;
            return Make<Retwis>(o);
          },
          [partitions, offered](const Sweep& s, const Grid& g) {
            PrintHeader("Fig 14: peak committed throughput vs #partitions, "
                        "Retwis uniform (txn/s)",
                        "parts", s.systems);
            for (size_t pi = 0; pi < partitions.size(); ++pi) {
              PrintRowStart(partitions[pi]);
              for (size_t j = 0; j < s.systems.size(); ++j) {
                double peak = 0;
                for (size_t ri = 0; ri < offered.size(); ++ri) {
                  const ExperimentResult& r = g[pi * offered.size() + ri][j];
                  peak = std::max(peak, r.goodput_total_tps.mean);
                }
                PrintCellValue(peak);
              }
              EndRow();
            }
            PrintWireCostReport("Fig 14 wire cost", "parts.r", s.xs, s.systems,
                                g);
          }};
}

/// Estimator ablation (Sec 2.2): the Domino-style arrival-time estimator's
/// p95 against lower and higher quantiles under delay variance. Lower
/// quantiles underestimate arrival times, so transactions arrive late and
/// abort on timestamp-order violations; higher ones over-delay processing.
Sweep AblationEstimator() {
  const std::vector<double> quantiles = {0.50, 0.75, 0.90, 0.95, 0.99};
  std::vector<System> systems;  // one per quantile
  for (double q : quantiles) {
    char name[32];
    std::snprintf(name, sizeof(name), "Natto-RECSF q=%.2f", q);
    systems.push_back(System{harness::SystemKind::kNattoRecsf, name,
                             [q](txn::Cluster* c) {
                               core::NattoOptions o =
                                   core::NattoOptions::Recsf();
                               o.estimate_quantile = q;
                               return std::make_unique<core::NattoEngine>(c, o);
                             }});
  }
  return {std::move(systems), {0},
          [](double, ExperimentConfig* c) {
            c->input_rate_tps = 350;
            c->cluster.delay_variance_ratio = 0.15;
            return Make<Ycsbt>();
          },
          [quantiles](const Sweep&, const Grid& g) {
            std::printf(
                "=== Estimator ablation: quantile vs latency/aborts "
                "(YCSB+T @350, 15%% delay variance) ===\n");
            std::printf("%-10s %12s %12s %14s\n", "quantile", "p95hi(ms)",
                        "p95lo(ms)", "abort frac");
            for (size_t i = 0; i < quantiles.size(); ++i) {
              const ExperimentResult& r = g[0][i];
              std::printf("%-10.2f %12.1f %12.1f %14.2f\n", quantiles[i],
                          r.p95_high_ms.mean, r.p95_low_ms.mean,
                          r.abort_fraction.mean);
            }
            std::fflush(stdout);
          }};
}

/// Natto feature ablation: each mechanism's contribution at high contention
/// (the Fig 8(a) regime), with the server counters that explain why each
/// step helps, as per-run means over the same cells as the p95s.
Sweep AblationNattoFeatures() {
  core::NattoOptions pa_no_estimate = core::NattoOptions::Pa();
  pa_no_estimate.pa_completion_estimate = false;
  const std::pair<const char*, core::NattoOptions> variants[] = {
      {"Natto-TS", core::NattoOptions::TsOnly()},
      {"Natto-LECSF", core::NattoOptions::Lecsf()},
      {"Natto-PA", core::NattoOptions::Pa()},
      {"Natto-PA(no-est)", pa_no_estimate},
      {"Natto-CP", core::NattoOptions::Cp()},
      {"Natto-RECSF", core::NattoOptions::Recsf()},
  };
  std::vector<System> systems;
  for (const auto& [name, options] : variants) {
    systems.push_back(System{harness::SystemKind::kNattoRecsf, name,
                             [options](txn::Cluster* c) {
                               return std::make_unique<core::NattoEngine>(
                                   c, options);
                             }});
  }
  return {std::move(systems), {0},
          [](double, ExperimentConfig* c) {
            c->input_rate_tps = 50;
            Ycsbt::Options o;
            o.zipf_theta = 0.95;
            return Make<Ycsbt>(o);
          },
          [](const Sweep&, const Grid& g) {
            std::printf(
                "=== Natto feature ablation, YCSB+T zipf=0.95 @50 txn/s ===\n");
            std::printf("%-17s %10s %10s %8s %8s %8s %6s %6s %8s %8s\n",
                        "variant", "p95hi(ms)", "p95lo(ms)", "PA", "PAsupp",
                        "CP", "CPok", "CPfail", "RECSF", "ordAbrt");
            for (const ExperimentResult& r : g[0]) {
              auto mean = [&r](const char* field) {
                return static_cast<double>(r.metrics.SumCounters(
                           "natto.server.p", std::string(".") + field)) /
                       static_cast<double>(r.metrics.runs);
              };
              std::printf(
                  "%-17s %10.1f %10.1f %8.1f %8.1f %8.1f %6.1f %6.1f %8.1f "
                  "%8.1f\n",
                  r.system.c_str(), r.p95_high_ms.mean, r.p95_low_ms.mean,
                  mean("priority_aborts"), mean("pa_suppressed"),
                  mean("conditional_prepares"), mean("cp_satisfied"),
                  mean("cp_failed"), mean("recsf_forwards"),
                  mean("order_violation_aborts"));
              std::fflush(stdout);
            }
          }};
}

/// Multi-level priorities, the paper's future work (Sec 3.1): three levels
/// on YCSB+T (70% low, 20% medium, 10% high). The prioritizing systems'
/// per-level p95s should be strictly ordered.
Sweep AblationMultilevel() {
  std::vector<System> systems;
  for (harness::SystemKind kind :
       {harness::SystemKind::kTwoPl, harness::SystemKind::kTwoPlPreempt,
        harness::SystemKind::kCarouselBasic,
        harness::SystemKind::kNattoRecsf}) {
    systems.push_back(harness::MakeSystem(kind));
  }
  return {std::move(systems), {0},
          [](double, ExperimentConfig* c) {
            c->input_rate_tps = 350;
            Ycsbt::Options o;
            o.high_priority_fraction = 0.10;
            o.medium_priority_fraction = 0.20;
            return Make<Ycsbt>(o);
          },
          [](const Sweep&, const Grid& g) {
            std::printf("=== Multi-level extension: per-level 95P latency, "
                        "YCSB+T 70/20/10 @350 (ms) ===\n");
            std::printf("%-16s %12s %12s %12s\n", "system", "low", "medium",
                        "high");
            for (const ExperimentResult& r : g[0]) {
              auto p95 = [&r](txn::Priority priority) {
                auto it = r.p95_by_level_ms.find(txn::PriorityLevel(priority));
                return it == r.p95_by_level_ms.end() ? 0.0 : it->second.mean;
              };
              std::printf("%-16s %12.1f %12.1f %12.1f\n", r.system.c_str(),
                          p95(txn::Priority::kLow),
                          p95(txn::Priority::kMedium),
                          p95(txn::Priority::kHigh));
              std::fflush(stdout);
            }
          }};
}

std::vector<Figure> Figures() {
  using harness::AllSystems;
  using harness::AzureSystems;
  using harness::PrioritySystems;
  const std::vector<double> thetas = {0.65, 0.75, 0.85, 0.95};
  return {
      // YCSB+T (Sec 5.2.1) on the emulated local cluster with the Azure
      // delay matrix: 6 read-modify-writes on Zipf(0.65) keys, 10% high.
      {"fig7_ycsbt_input_rate",
       {Fig7(AllSystems(), {50, 150, 250, 350}, "a", "b", "YCSB+T",
             Make<Ycsbt>())}},
      // Retwis on the simulated Azure deployment (Sec 5.2.2).
      {"fig7_retwis_input_rate",
       {Fig7(AzureSystems(), {100, 500, 1000, 1500}, "c", "d", "Retwis",
             Make<Retwis>())}},
      // SmallBank: 1M users, 1K hot, 90% hot traffic (Sec 5.2.3).
      {"fig7_smallbank_input_rate",
       {Fig7(AzureSystems(), {500, 1000, 1500, 2000}, "e", "f", "SmallBank",
             Make<SmallBank>(), InitialBalance())}},
      // Fig 8 (Sec 5.3): high-priority p95 vs Zipf coefficient (contention),
      // (a) YCSB+T at 50 txn/s on the local cluster, (b) Retwis at 100.
      {"fig8_zipf_contention",
       {{AllSystems(), thetas,
         [](double theta, ExperimentConfig* c) {
           c->input_rate_tps = 50;
           Ycsbt::Options o;
           o.zipf_theta = theta;
           return Make<Ycsbt>(o);
         },
         P95HighTable(
             "Fig 8(a): 95P HIGH-priority latency vs Zipf, YCSB+T @50 (ms)",
             "zipf"),
         "a"},
        {AzureSystems(), thetas,
         [](double theta, ExperimentConfig* c) {
           c->input_rate_tps = 100;
           Retwis::Options o;
           o.zipf_theta = theta;
           return Make<Retwis>(o);
         },
         P95HighTable(
             "Fig 8(b): 95P HIGH-priority latency vs Zipf, Retwis @100 (ms)",
             "zipf"),
         "b"}}},
      // Fig 9 (Sec 5.4): high-priority p95 vs the percentage of
      // high-priority transactions.
      {"fig9_priority_mix",
       {{PrioritySystems(),
         {10, 20, 40, 60, 80, 100},
         [](double pct, ExperimentConfig* c) {
           c->input_rate_tps = 350;
           Ycsbt::Options o;
           o.high_priority_fraction = pct / 100.0;
           return Make<Ycsbt>(o);
         },
         P95HighTable("Fig 9: 95P HIGH-priority latency vs high-priority %, "
                      "YCSB+T @350 (ms)",
                      "high %")}}},
      {"fig10_sendpayment", {Fig10()}},
      // Fig 11 (Sec 5.5): high-priority p95 vs network delay variance, in
      // percent, of Pareto-distributed delays with the Table 1 averages.
      {"fig11_delay_variance",
       {{AzureSystems(),
         {0, 5, 15, 25, 40},
         [](double variance_pct, ExperimentConfig* c) {
           c->input_rate_tps = 350;
           c->cluster.delay_variance_ratio = variance_pct / 100.0;
           return Make<Ycsbt>();
         },
         P95HighTable("Fig 11: 95P HIGH-priority latency vs delay variance, "
                      "YCSB+T @350 (ms)",
                      "var %")}}},
      {"fig12_packet_loss", {Fig12()}},
      // Fig 13 (Sec 5.5): a hybrid-cloud deployment, two sites on another
      // provider. The paper gives no delay matrix for the AWS sites; the
      // geography stays and +-5% per-message jitter models the less
      // controlled cross-provider network.
      {"fig13_hybrid_cloud",
       {{AzureSystems(),
         {0},
         [](double, ExperimentConfig* c) {
           c->input_rate_tps = 1000;
           c->matrix = net::LatencyMatrix::HybridAwsAzure();
           c->cluster.uniform_jitter = 0.05;
           return Make<Retwis>();
         },
         P95HighTable("Fig 13: 95P HIGH-priority latency, hybrid AWS+Azure, "
                      "Retwis @1000 (ms)",
                      "")}}},
      {"fig14_throughput", {Fig14()}},
      {"ablation_estimator", {AblationEstimator()}},
      {"ablation_natto_features", {AblationNattoFeatures()}},
      {"ablation_multilevel", {AblationMultilevel()}},
  };
}

}  // namespace

int RunFigure(const char* name, int argc, char** argv) {
  const std::vector<Figure> figures = Figures();
  auto figure =
      std::find_if(figures.begin(), figures.end(),
                   [name](const Figure& f) { return f.name == name; });
  NATTO_CHECK(figure != figures.end()) << "no figure named " << name;

  const TraceArgs args = ParseTraceArgs(argc, argv);
  ExperimentConfig base = QuickConfig();
  ApplyTraceArgs(args, &base);
  std::vector<obs::TxnTrace> traces;
  std::vector<LabeledTrail> trails;
  for (const Sweep& sweep : figure->sweeps) {
    std::vector<harness::GridPoint> points;
    for (double x : sweep.xs) {
      ExperimentConfig config = base;
      WorkloadFactory workload = sweep.point(x, &config);
      points.push_back({std::move(config), std::move(workload)});
    }
    const Grid grid = harness::RunGrid(points, sweep.systems);
    CollectTraces(grid, &traces);
    CollectDsanTrails(sweep.systems, grid, sweep.dsan_prefix, &trails);
    sweep.print(sweep, grid);
  }
  WriteTraces(args, traces);
  return FinishDsanTrails(args.dsan, trails) ? 0 : 1;
}

}  // namespace natto::bench
