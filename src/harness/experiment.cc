#include "harness/experiment.h"

#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/parse_number.h"
#include "harness/client.h"
#include "harness/parallel_runner.h"
#include "txn/topology.h"

namespace natto::harness {

RunStats RunOnce(const ExperimentConfig& config, const System& system,
                 const WorkloadFactory& workload_factory, uint64_t seed) {
  txn::Topology topology = txn::Topology::Spread(
      config.num_partitions, config.num_replicas, config.matrix.num_sites());
  txn::ClusterOptions copts = config.cluster;
  copts.seed = seed;
  copts.default_value = config.default_value;
  txn::Cluster cluster(config.matrix, topology, copts);

  std::unique_ptr<txn::TxnEngine> engine = system.make(&cluster);
  std::unique_ptr<workload::Workload> workload = workload_factory();

  RunStats stats;
  SimTime measure_start = config.warmup;
  SimTime measure_end = config.duration - config.cooldown;
  NATTO_CHECK(measure_end > measure_start);
  stats.measured_seconds = ToSeconds(measure_end - measure_start);

  int num_sites = topology.num_sites();
  int total_clients = num_sites * config.clients_per_site;
  double per_client_rate =
      config.input_rate_tps / static_cast<double>(total_clients);

  Rng client_seed_rng(seed ^ 0x9e3779b97f4a7c15ull);
  if (sim::DeterminismLedger* ledger = cluster.ledger()) {
    // The client seed stream is the only randomness outside the cluster's
    // fork tree; count it separately so a draw-count divergence names the
    // side (harness vs cluster) that went off-script.
    client_seed_rng.Instrument(ledger->RegisterRngStream("harness.clients"));
  }
  std::vector<std::unique_ptr<Client>> clients;
  uint32_t client_id = 1;
  for (int s = 0; s < num_sites; ++s) {
    for (int c = 0; c < config.clients_per_site; ++c) {
      Client::Options opts;
      opts.rate_tps = per_client_rate;
      opts.origin_site = s;
      opts.client_id = client_id++;
      opts.stop_generating_at = config.duration;
      opts.measure_start = measure_start;
      opts.measure_end = measure_end;
      opts.max_attempts = config.max_attempts;
      opts.request_timeout = config.request_timeout;
      opts.backoff_base = config.backoff_base;
      opts.timeline_bucket = config.timeline_bucket;
      opts.hedge_percentile = config.hedge_percentile;
      opts.hedge_min_delay = config.hedge_min_delay;
      opts.hedge_min_samples = config.hedge_min_samples;
      if (cluster.fault_injector() != nullptr) {
        opts.route_origin = [&cluster](int site) {
          return cluster.RouteOriginSite(site);
        };
        if (config.hedge_percentile > 0.0) {
          opts.hedge_route = [&cluster](int site) {
            return cluster.HedgeOriginSite(site);
          };
        }
      }
      clients.push_back(std::make_unique<Client>(
          cluster.simulator(), engine.get(), workload.get(), opts,
          client_seed_rng.Fork(), &stats, cluster.metrics()));
      clients.back()->Start();
    }
  }

  cluster.simulator()->RunUntil(config.duration + config.drain);
  stats.metrics = cluster.metrics()->Snapshot();
  if (obs::Tracer* tr = cluster.tracer()) stats.traces = tr->Drain();
  if (sim::DeterminismLedger* ledger = cluster.ledger()) {
    stats.dsan = ledger->Trail();
  }
  return stats;
}

ExperimentResult AggregateRuns(const std::string& system_name,
                               const std::vector<RunStats>& runs) {
  ExperimentResult result;
  result.system = system_name;
  std::vector<double> p95_high, p95_low, p99_high, p99_low, mean_high,
      mean_low, goodput_low, goodput_total, abort_fraction;
  std::map<int, std::vector<double>> p95_by_level;
  result.metrics.runs = 0;  // accumulator: MergeFrom sums the runs back in
  for (const RunStats& run : runs) {
    p95_high.push_back(Percentile(run.latencies_high_ms, 0.95));
    p95_low.push_back(Percentile(run.latencies_low_ms, 0.95));
    p99_high.push_back(Percentile(run.latencies_high_ms, 0.99));
    p99_low.push_back(Percentile(run.latencies_low_ms, 0.99));
    for (const auto& [level, latencies] : run.latencies_by_level_ms) {
      p95_by_level[level].push_back(Percentile(latencies, 0.95));
    }
    mean_high.push_back(Mean(run.latencies_high_ms));
    mean_low.push_back(Mean(run.latencies_low_ms));
    goodput_low.push_back(run.GoodputLow());
    goodput_total.push_back(run.GoodputTotal());
    int64_t committed = run.committed_high + run.committed_low;
    int64_t attempts = run.aborted_attempts + committed;
    abort_fraction.push_back(
        attempts > 0 ? static_cast<double>(run.aborted_attempts) /
                           static_cast<double>(attempts)
                     : 0);
    result.failed += run.failed;
    result.failed_high += run.failed_high;
    result.failed_low += run.failed_low;
    result.committed_high += run.committed_high;
    result.committed_low += run.committed_low;
    result.timeout_aborts += run.timeout_aborts;
    result.committed += committed;
    if (result.timeline.size() < run.timeline.size()) {
      result.timeline.resize(run.timeline.size());
    }
    for (size_t b = 0; b < run.timeline.size(); ++b) {
      const RunStats::TimelineBucket& src = run.timeline[b];
      RunStats::TimelineBucket& dst = result.timeline[b];
      dst.committed += src.committed;
      dst.aborted += src.aborted;
      dst.timeouts += src.timeouts;
      dst.latencies_ms.insert(dst.latencies_ms.end(), src.latencies_ms.begin(),
                              src.latencies_ms.end());
    }
    result.metrics.MergeFrom(run.metrics);
    result.traces.insert(result.traces.end(), run.traces.begin(),
                         run.traces.end());
    if (run.dsan.enabled) result.dsan.push_back(run.dsan);
  }
  result.p95_high_ms = Aggregated(p95_high);
  result.p95_low_ms = Aggregated(p95_low);
  result.p99_high_ms = Aggregated(p99_high);
  result.p99_low_ms = Aggregated(p99_low);
  for (const auto& [level, p95s] : p95_by_level) {
    result.p95_by_level_ms[level] = Aggregated(p95s);
  }
  result.mean_high_ms = Aggregated(mean_high);
  result.mean_low_ms = Aggregated(mean_low);
  result.goodput_low_tps = Aggregated(goodput_low);
  result.goodput_total_tps = Aggregated(goodput_total);
  result.abort_fraction = Aggregated(abort_fraction);
  return result;
}

std::vector<std::vector<ExperimentResult>> RunGrid(
    const std::vector<GridPoint>& points, const std::vector<System>& systems,
    int jobs) {
  // Flatten the grid into independent cells; cell i owns stats[i], so
  // workers never touch a shared slot and the merge below reads the cells
  // back in submission order regardless of completion order.
  struct Cell {
    int point;
    int system;
    int repeat;
  };
  std::vector<Cell> cells;
  for (int p = 0; p < static_cast<int>(points.size()); ++p) {
    for (int s = 0; s < static_cast<int>(systems.size()); ++s) {
      for (int r = 0; r < points[p].config.repeats; ++r) {
        cells.push_back(Cell{p, s, r});
      }
    }
  }
  std::vector<RunStats> stats(cells.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    tasks.push_back([&points, &systems, &stats, &cells, i]() {
      const Cell& c = cells[i];
      const GridPoint& pt = points[c.point];
      stats[i] = RunOnce(pt.config, systems[c.system], pt.workload,
                         CellSeed(pt.config.seed, c.system, c.point, c.repeat));
    });
  }
  ParallelRunner(jobs).Run(std::move(tasks));

  std::vector<std::vector<ExperimentResult>> results(points.size());
  size_t i = 0;
  for (size_t p = 0; p < points.size(); ++p) {
    for (size_t s = 0; s < systems.size(); ++s) {
      int repeats = points[p].config.repeats;
      std::vector<RunStats> runs(stats.begin() + i, stats.begin() + i + repeats);
      i += static_cast<size_t>(repeats);
      results[p].push_back(AggregateRuns(systems[s].name, runs));
    }
  }
  return results;
}

ExperimentResult RunExperiment(const ExperimentConfig& config,
                               const System& system,
                               const WorkloadFactory& workload_factory) {
  return RunGrid({GridPoint{config, workload_factory}}, {system})[0][0];
}

void ApplyEnvOverrides(ExperimentConfig* config) {
  // This function is the harness's one sanctioned env entry point (the
  // library itself never reads the environment — natto-env-read enforces
  // that); everything configurable from outside funnels through here.
  if (const char* r = std::getenv("NATTO_REPEATS")) {  // NOLINT(natto-env-read)
    config->repeats = ParseEnvInt("NATTO_REPEATS", r, 1);
  }
  if (const char* d = std::getenv("NATTO_DURATION_S")) {  // NOLINT(natto-env-read)
    config->duration = Seconds(ParseEnvInt("NATTO_DURATION_S", d, 3));
    // Keep the paper's proportions: trim 1/6th at each end.
    config->warmup = config->duration / 6;
    config->cooldown = config->duration / 6;
  }
  if (const char* s = std::getenv("NATTO_DSAN")) {  // NOLINT(natto-env-read)
    if (s[0] != '\0' && !(s[0] == '0' && s[1] == '\0')) {
      config->cluster.dsan.enabled = true;
    }
  }
  if (const char* t = std::getenv("NATTO_SIM_THREADS")) {  // NOLINT(natto-env-read)
    config->cluster.sim_threads = ParseEnvInt("NATTO_SIM_THREADS", t, 1);
  }
}

}  // namespace natto::harness
