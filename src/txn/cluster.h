#ifndef NATTO_TXN_CLUSTER_H_
#define NATTO_TXN_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fault/fault.h"
#include "net/delay_model.h"
#include "net/failure_detector.h"
#include "net/latency_matrix.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "raft/group.h"
#include "sim/dsan.h"
#include "sim/simulator.h"
#include "txn/topology.h"

namespace natto::txn {

/// Everything an experiment deployment shares regardless of the engine under
/// test: the simulator, the WAN model, the data placement, and one Raft
/// group per partition. Engines attach their protocol servers to the
/// partition leaders and replicate through the groups.
struct ClusterOptions {
  net::TransportOptions transport;

  /// Delay distribution: variance ratio for a Pareto model (Sec 5.5), or
  /// jitter fraction for a uniform model; both zero = constant delays.
  double delay_variance_ratio = 0.0;
  double uniform_jitter = 0.0;

  /// Max absolute per-node clock skew (loose NTP sync).
  SimDuration max_clock_skew = Millis(1);

  raft::RaftReplica::Options raft;

  /// Initial value of never-written keys (workload-dependent).
  std::function<Value(Key)> default_value;

  /// Transaction-lifecycle tracing (off by default; see src/obs/trace.h).
  obs::TraceOptions trace;

  /// Determinism sanitizer (off by default; see src/sim/dsan.h). When
  /// enabled the cluster owns a DeterminismLedger, attaches it to the
  /// simulator, and instruments its root RNG stream; runs stay otherwise
  /// untouched (the ledger only observes).
  sim::DsanOptions dsan;

  /// Scripted fault schedule (empty by default). A non-empty schedule makes
  /// the cluster construct a FaultInjector, start raft election timers and
  /// arm replication timeouts; an empty one changes nothing at all, so
  /// no-fault runs stay byte-identical to builds without the fault layer.
  fault::FaultSchedule fault_schedule;

  /// Gray-failure defense wiring (off by default: no detector, no streams,
  /// no suspicion ticks — byte-identical to builds without the feature).
  /// Takes effect only alongside a fault schedule, which is what arms
  /// election timers; enabling it constructs a φ-accrual FailureDetector
  /// with one stream per replica (fed by that replica's accepted
  /// AppendEntries) and arms follower-side suspicion elections
  /// (raft::RaftReplica::EnableSuspicion). Pair with
  /// ClusterOptions::raft.pre_vote and fail_away_commit_latency for the
  /// full defense stack.
  bool gray_defense = false;

  /// Simulation kernel threads (NATTO_SIM_THREADS). 1 (default) runs the
  /// serial kernel. >1 installs the site-parallel kernel (num_sites =
  /// topology sites, lookahead = ConservativeLookahead()) when the
  /// configuration is eligible — see Cluster::SiteParallelEligible() — and
  /// leaves the serial kernel in place otherwise. Every thread count is
  /// byte-identical to serial: the kernel's barrier merge reproduces the
  /// serial event order (DESIGN.md §4.11).
  int sim_threads = 1;

  /// Optional self-profiling sink for the site-parallel kernel (see
  /// ParallelPhaseStats in sim/parallel_kernel.h; used by perf_kernel's
  /// fig14_site_parallel suite to model multi-core wall time from
  /// per-thread CPU clocks). Attached only when sim_threads > 1 actually
  /// engages site-parallel windows; purely observational — never alters
  /// the event stream. Must outlive the cluster.
  sim::ParallelPhaseStats* parallel_phase_stats = nullptr;

  uint64_t seed = 1;
};

class Cluster {
 public:
  Cluster(net::LatencyMatrix matrix, Topology topology,
          ClusterOptions options);

  sim::Simulator* simulator() { return &simulator_; }
  net::Transport* transport() { return transport_.get(); }
  const net::LatencyMatrix& matrix() const { return matrix_; }
  const Topology& topology() const { return topology_; }
  const ClusterOptions& options() const { return options_; }

  /// Per-cell metrics registry; engines and the harness client register
  /// their instruments here.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// Lifecycle tracer, or nullptr when tracing is disabled — instrumented
  /// paths guard with `if (auto* t = cluster->tracer())`.
  obs::Tracer* tracer() { return tracer_.get(); }

  /// Determinism-sanitizer ledger, or nullptr when dsan is disabled (the
  /// same null fast path as the tracer and fault injector).
  sim::DeterminismLedger* ledger() { return ledger_.get(); }

  raft::RaftGroup* group(int partition) { return groups_[partition].get(); }

  /// Fresh clock with the configured skew bound.
  sim::NodeClock MakeClock() {
    return sim::NodeClock::WithRandomSkew(rng_, options_.max_clock_skew);
  }

  /// Site whose partition leader should act as coordinator group for
  /// clients at `site`: the site itself if it leads a partition, else the
  /// nearest leader site.
  int CoordinatorSite(int site) const;

  /// Fault-aware origin selection for a client at `site`: `site` itself when
  /// no faults are installed or its coordinator is reachable, else the
  /// nearest reachable site whose coordinator is reachable from it (clients
  /// re-route around a dead or partitioned coordinator site). Falls back to
  /// `site` when nothing is reachable.
  int RouteOriginSite(int site) const;

  /// The injector driving the configured fault schedule, or nullptr when
  /// the schedule is empty (null fast path).
  fault::FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// The φ-accrual detector watching every replica's leader heartbeats, or
  /// nullptr unless `gray_defense` (same null fast path as the injector).
  net::FailureDetector* failure_detector() { return failure_detector_.get(); }

  /// Hedge-attempt origin for a client at `site`: the nearest site served
  /// by a *different* coordinator site than `site`'s own, skipping
  /// partitioned routes — so the hedge dodges a gray coordinator instead of
  /// queueing behind it twice. Falls back to `site` when every alternative
  /// shares the coordinator or is unreachable.
  int HedgeOriginSite(int site) const;

  /// Conservative PDES lookahead for this deployment: the minimum
  /// cross-site one-way delay in the latency matrix (over the topology's
  /// sites) scaled by the delay model's guaranteed minimum factor. Any
  /// event on one site can influence another site no sooner than this.
  SimDuration ConservativeLookahead() const;

  /// Whether this deployment's *configuration* supports site-parallel
  /// windows. A pure function of the config — never of sim_threads — so a
  /// serial run and a parallel run of the same config make identical
  /// decisions and stay byte-identical. Eligible = fault-free (empty fault
  /// schedule, no gray wiring), no tracer, a stateless wire
  /// (net::StatelessWire: constant delays, no batching, loss, or capacity),
  /// at least two sites, and a positive lookahead. Ineligible configs run
  /// the serial kernel at any sim_threads.
  bool SiteParallelEligible() const;

 private:
  /// SiteParallelEligible() without the tracer term: whether the simulated
  /// model itself is site-confined. It picks the CPU service model
  /// (deferred_node_service), so switching the tracer on changes only the
  /// kernel a run executes on, never a simulated number.
  bool SiteConfinedModel() const;
  /// Minimum one-way delay between two of the topology's sites; 0 for a
  /// single-site deployment.
  SimDuration MinCrossSiteDelay() const;

  net::LatencyMatrix matrix_;
  Topology topology_;
  ClusterOptions options_;
  sim::Simulator simulator_;
  Rng rng_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<sim::DeterminismLedger> ledger_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<raft::RaftGroup>> groups_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<net::FailureDetector> failure_detector_;
};

}  // namespace natto::txn

#endif  // NATTO_TXN_CLUSTER_H_
