#include "txn/cluster.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace natto::txn {

namespace {

/// A Propose that neither commits nor fails within this window once a
/// fault schedule is installed is treated as lost to a leader failure.
constexpr SimDuration kReplicationTimeout = Millis(1500);

std::unique_ptr<net::DelayModel> MakeDelayModel(const ClusterOptions& opts) {
  if (opts.delay_variance_ratio > 0.0) {
    return net::MakeParetoDelay(opts.delay_variance_ratio);
  }
  if (opts.uniform_jitter > 0.0) {
    return net::MakeUniformJitterDelay(opts.uniform_jitter);
  }
  return net::MakeConstantDelay();
}
}  // namespace

Cluster::Cluster(net::LatencyMatrix matrix, Topology topology,
                 ClusterOptions options)
    : matrix_(std::move(matrix)),
      topology_(std::move(topology)),
      options_(std::move(options)),
      rng_(options_.seed) {
  NATTO_CHECK(topology_.num_sites() <= matrix_.num_sites())
      << "topology uses more sites than the latency matrix defines";
  // A negative ratio would silently select constant delays.
  NATTO_CHECK(options_.delay_variance_ratio >= 0.0)
      << "delay_variance_ratio must be >= 0, got "
      << options_.delay_variance_ratio;
  NATTO_CHECK(options_.uniform_jitter >= 0.0 && options_.uniform_jitter < 1.0)
      << "uniform_jitter must be in [0, 1), got " << options_.uniform_jitter;
  if (SiteConfinedModel() && options_.transport.node_cost_per_message > 0) {
    // The CPU-cost model's FIFO queue is cross-site state when serviced at
    // send time; site-confined configs service at arrival on the
    // receiver's lane instead. Decided by the simulated config alone, so
    // serial, parallel and traced runs of one config agree. Must precede
    // transport construction.
    options_.transport.deferred_node_service = true;
  }
  if (options_.sim_threads > 1 && SiteParallelEligible()) {
    // Site-parallel windows, byte-identical to serial at any thread count;
    // an ineligible config keeps the serial kernel. Must precede any
    // scheduling — this is the first simulator touch in construction.
    simulator_.ConfigureParallel(sim::ParallelOptions{
        options_.sim_threads, topology_.num_sites(), ConservativeLookahead()});
    simulator_.SetParallelPhaseStats(options_.parallel_phase_stats);
  }
  if (options_.dsan.enabled) {
    // Attach before anything draws randomness or schedules events so the
    // ledger sees the whole run; instrumenting the root RNG here covers
    // every stream forked from it (transport, raft, clocks, engines).
    ledger_ = std::make_unique<sim::DeterminismLedger>(options_.dsan);
    simulator_.set_ledger(ledger_.get());
    rng_.Instrument(ledger_->RegisterRngStream("cluster"));
  }
  if (options_.trace.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(options_.trace);
  }
  transport_ = std::make_unique<net::Transport>(
      &simulator_, &matrix_, MakeDelayModel(options_), options_.transport,
      rng_.Fork().engine()());
  transport_->RegisterMetrics(&metrics_);
  for (int p = 0; p < topology_.num_partitions(); ++p) {
    groups_.push_back(std::make_unique<raft::RaftGroup>(
        transport_.get(), topology_.ReplicaSites(p), options_.raft, rng_,
        options_.max_clock_skew));
    for (size_t r = 0; r < groups_.back()->size(); ++r) {
      groups_.back()->replica(r)->RegisterMetrics(&metrics_);
    }
  }
  if (!options_.fault_schedule.empty()) {
    // Chaos mode: elections and replication timeouts are only armed when a
    // schedule is installed, so fault-free runs schedule not a single extra
    // event.
    std::vector<raft::RaftGroup*> group_ptrs;
    group_ptrs.reserve(groups_.size());
    for (auto& g : groups_) {
      g->StartTimers();
      g->EnableFailureHandling(kReplicationTimeout);
      g->SetOnLeaderChange([this](raft::RaftReplica*) {
        metrics_.GetCounter("fault.leader_elections")->Inc();
      });
      group_ptrs.push_back(g.get());
    }
    fault_injector_ = std::make_unique<fault::FaultInjector>(
        &simulator_, transport_.get(), std::move(group_ptrs), &metrics_,
        tracer_.get(), options_.fault_schedule);
    fault_injector_->Arm();
    if (options_.gray_defense) {
      // Gray defense rides on the chaos wiring: suspicion elections need
      // the election timers armed above, so the detector only exists in
      // fault runs (fault-free runs keep the exact pre-gray event stream).
      failure_detector_ = std::make_unique<net::FailureDetector>();
      failure_detector_->RegisterMetrics(&metrics_);
      for (int p = 0; p < topology_.num_partitions(); ++p) {
        raft::RaftGroup* g = groups_[static_cast<size_t>(p)].get();
        for (size_t r = 0; r < g->size(); ++r) {
          int stream = failure_detector_->AddStream(
              "p" + std::to_string(p) + ".r" + std::to_string(r));
          g->replica(r)->EnableSuspicion(failure_detector_.get(), stream);
        }
      }
    }
  }
}

bool Cluster::SiteParallelEligible() const {
  return !options_.trace.enabled && SiteConfinedModel();
}

bool Cluster::SiteConfinedModel() const {
  // A stateless wire's delay model never scales below 1, so its lookahead
  // is the minimum cross-site delay itself.
  return options_.fault_schedule.empty() && !options_.gray_defense &&
         net::StatelessWire(options_.transport, *MakeDelayModel(options_)) &&
         topology_.num_sites() >= 2 && MinCrossSiteDelay() > 0;
}

SimDuration Cluster::MinCrossSiteDelay() const {
  SimDuration min_delay = kSimTimeMax;
  int n = topology_.num_sites();
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      min_delay = std::min(min_delay, matrix_.OneWay(a, b));
    }
  }
  return min_delay == kSimTimeMax ? 0 : min_delay;  // 0: single site
}

SimDuration Cluster::ConservativeLookahead() const {
  SimDuration min_delay = MinCrossSiteDelay();
  if (min_delay == 0) return 0;
  double scale = MakeDelayModel(options_)->min_scale_factor();
  return static_cast<SimDuration>(static_cast<double>(min_delay) * scale);
}

int Cluster::CoordinatorSite(int site) const {
  if (topology_.PartitionLedAt(site) >= 0) return site;
  int best = topology_.LeaderSite(0);
  SimDuration best_d = matrix_.OneWay(site, best);
  for (int p = 1; p < topology_.num_partitions(); ++p) {
    int s = topology_.LeaderSite(p);
    SimDuration d = matrix_.OneWay(site, s);
    if (d < best_d) {
      best_d = d;
      best = s;
    }
  }
  return best;
}

int Cluster::RouteOriginSite(int site) const {
  if (fault_injector_ == nullptr) return site;
  auto coordinator_reachable = [this](int s) {
    return !transport_->IsSitePartitioned(s, CoordinatorSite(s));
  };
  if (coordinator_reachable(site)) return site;
  int best = -1;
  SimDuration best_d = 0;
  for (int t = 0; t < topology_.num_sites(); ++t) {
    if (t == site) continue;
    if (transport_->IsSitePartitioned(site, t)) continue;
    if (!coordinator_reachable(t)) continue;
    SimDuration d = matrix_.OneWay(site, t);
    if (best < 0 || d < best_d) {
      best = t;
      best_d = d;
    }
  }
  return best >= 0 ? best : site;
}

int Cluster::HedgeOriginSite(int site) const {
  int primary_coord = CoordinatorSite(site);
  int best = -1;
  SimDuration best_d = 0;
  for (int t = 0; t < topology_.num_sites(); ++t) {
    int coord = CoordinatorSite(t);
    if (coord == primary_coord) continue;
    if (transport_->IsSitePartitioned(site, t)) continue;
    if (transport_->IsSitePartitioned(t, coord)) continue;
    SimDuration d = matrix_.OneWay(site, t);
    if (best < 0 || d < best_d) {
      best = t;
      best_d = d;
    }
  }
  return best >= 0 ? best : site;
}

}  // namespace natto::txn
