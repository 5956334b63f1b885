#ifndef NATTO_FAULT_FAULT_H_
#define NATTO_FAULT_FAULT_H_

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "raft/group.h"
#include "sim/simulator.h"

namespace natto::fault {

/// One scripted fault. Coordinates are engine-independent: raft replicas are
/// addressed as (partition, replica index) — the raft groups are built
/// before any engine nodes, so these resolve to the same transport NodeIds
/// for every engine and one schedule stresses the whole lineup identically —
/// and partitions/overlays are addressed by datacenter site ids.
enum class FaultOp {
  kCrashReplica,    // a=partition, b=replica index
  kRecoverReplica,  // a=partition, b=replica index
  kPartitionSites,  // a,b = site pair to blackhole
  kHealSites,       // a,b = site pair to reconnect
  kIsolateSite,     // a = site cut off from every other site
  kHealSite,        // a = site reconnected to every other site
  kDegradeLink,     // a,b = site pair; loss/extra_delay for `duration`
  kSlowReplica,     // a=partition, b=replica; fail-slow stretch for `duration`
  kStallReplica,    // a=partition, b=replica; gray stall for `duration`
  kPartitionOneWay,  // a,b = directed site pair a->b to blackhole
};

struct FaultEvent {
  SimTime at = 0;
  FaultOp op = FaultOp::kCrashReplica;
  int a = -1;
  int b = -1;
  double loss = 0.0;          // kDegradeLink: added hard-drop probability
  SimDuration extra_delay = 0;  // kDegradeLink: added one-way delay
  SimDuration duration = 0;   // kDegradeLink/kSlow/kStall: fault lifetime
  double factor = 0.0;        // kSlowReplica: service-time multiplier
};

/// A scripted fault schedule: a value type the experiment config carries.
/// Empty = no injector is constructed at all (null fast path). Builders
/// return *this so schedules read as scripts.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  FaultSchedule& CrashReplica(SimTime at, int partition, int replica);
  FaultSchedule& RecoverReplica(SimTime at, int partition, int replica);
  FaultSchedule& PartitionSites(SimTime at, int site_a, int site_b);
  FaultSchedule& HealSites(SimTime at, int site_a, int site_b);
  FaultSchedule& IsolateSite(SimTime at, int site);
  FaultSchedule& HealSite(SimTime at, int site);
  FaultSchedule& DegradeLink(SimTime at, int site_a, int site_b, double loss,
                             SimDuration extra_delay, SimDuration duration);
  /// Gray fail-slow: replica stays up but every message it services costs
  /// `factor`x for `duration`.
  FaultSchedule& SlowReplica(SimTime at, int partition, int replica,
                             double factor, SimDuration duration);
  /// Gray stall: replica freezes service-message processing (in and out)
  /// for `duration` while its kernel keeps answering pings.
  FaultSchedule& StallReplica(SimTime at, int partition, int replica,
                              SimDuration duration);
  /// Asymmetric blackhole on the directed path a->b only; heal with
  /// HealSites (which clears both directions).
  FaultSchedule& PartitionOneWay(SimTime at, int from_site, int to_site);

  /// Events ordered by (time, insertion order) — the injector arms them in
  /// this order so simultaneous faults fire deterministically.
  std::vector<FaultEvent> Sorted() const;
};

/// Parses a text schedule, one event per line; '#' starts a comment.
///
///   12s   crash p0 r0
///   24s   recover p0 r0
///   30s   partition s1 s2
///   36s   heal s1 s2
///   30s   isolate s2
///   36s   heal-site s2
///   40s   degrade s0 s1 loss=0.05 delay=30ms for=5s
///   44s   slow p0 r0 factor=30 for=5s
///   50s   stall p0 r0 for=2s
///   54s   partition-oneway s0 s1
///
/// Times and durations accept `<float>s` and `<float>ms` suffixes. Returns
/// false with a diagnostic in `error` on malformed input.
bool ParseSchedule(const std::string& text, FaultSchedule* out,
                   std::string* error);

/// Renders a schedule back into the ParseSchedule text format.
std::string FormatSchedule(const FaultSchedule& schedule);

/// Drives a FaultSchedule against a deployment: crashes/recovers raft
/// replicas (transport mute + replica restart), installs/heals site-pair
/// blackholes, and overlays transient link degradation windows. All actions
/// run as ordinary simulator events against sim time, so fault runs stay
/// bit-identical across thread counts. Counts every action under `fault.*`
/// and, when tracing is enabled, records an instant marker per action.
class FaultInjector {
 public:
  /// `groups` are the per-partition raft groups (borrowed); `metrics` may
  /// be null.
  FaultInjector(sim::Simulator* simulator, net::Transport* transport,
                std::vector<raft::RaftGroup*> groups,
                obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                FaultSchedule schedule);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event. Call once, before the simulation runs.
  void Arm();

 private:
  void Apply(const FaultEvent& e);
  raft::RaftReplica* Replica(int partition, int replica);
  void SetReplicaCrashed(int partition, int replica, bool crashed);
  void Count(const char* name);
  void Mark(const char* name);

  sim::Simulator* simulator_;
  net::Transport* transport_;
  std::vector<raft::RaftGroup*> groups_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  FaultSchedule schedule_;
  bool armed_ = false;
  uint64_t next_marker_ = 0;
};

}  // namespace natto::fault

#endif  // NATTO_FAULT_FAULT_H_
