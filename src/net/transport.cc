#include "net/transport.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace natto::net {

namespace {

/// Base retransmission timeout (Linux TCP minimum RTO is 200 ms).
constexpr SimDuration kRetransmitTimeout = Millis(200);
/// Parallel TCP flows aggregated per link for the Mathis model.
constexpr int kTcpFlowsPerLink = 16;
/// TCP maximum segment size used by the Mathis model.
constexpr double kTcpMssBytes = 1460.0;
/// Framing overhead charged per batched message (length prefix + routing
/// header inside the shared frame), so `bytes_sent` reflects framed wire
/// bytes. The unbatched path charges exactly the caller's payload bytes.
constexpr size_t kFramingBytesPerMessage = 8;
/// Per-message service cost a `slow` gray fault multiplies when the CPU
/// cost model is off, so `slow factor=K` bites even in delay-only
/// topologies.
constexpr SimDuration kSlowDefaultServiceCost = Micros(100);

}  // namespace

bool StatelessWire(const TransportOptions& options, const DelayModel& delay) {
  return options.max_batch_bytes == 0 && options.packet_loss == 0.0 &&
         options.link_bandwidth_bytes_per_sec == 0.0 &&
         delay.min_scale_factor() == 1.0;
}

Transport::Transport(sim::Simulator* simulator, const LatencyMatrix* matrix,
                     std::unique_ptr<DelayModel> delay_model,
                     TransportOptions options, uint64_t seed)
    : simulator_(simulator),
      matrix_(matrix),
      delay_model_(std::move(delay_model)),
      options_(options),
      rng_(seed) {
  NATTO_CHECK(simulator_ != nullptr);
  NATTO_CHECK(matrix_ != nullptr);
  if (delay_model_ == nullptr) delay_model_ = MakeConstantDelay();
  // Bernoulli(p >= 1) always fires, so the retransmission loop would never
  // end; a negative p would silently mean no loss.
  NATTO_CHECK(options_.packet_loss >= 0.0 && options_.packet_loss < 1.0)
      << "packet_loss must be in [0, 1), got " << options_.packet_loss;
  int n = matrix_->num_sites();
  link_free_at_.assign(static_cast<size_t>(n) * n, 0);
  // Lane 0 serves the serial kernel and the main thread; lanes 1..n serve
  // the parallel kernel's per-site workers. Pools are lazily chunked, so
  // unused lanes cost one empty vector each.
  envelope_pools_.resize(static_cast<size_t>(n) + 1);
  traffic_.resize(static_cast<size_t>(n) + 1);
  if (batching_enabled()) {
    NATTO_CHECK(options_.max_batch_delay >= 0);
    link_batches_.assign(static_cast<size_t>(n) * n, LinkBatch{});
  }
  if (simulator_->site_parallel()) {
    // Under the site-parallel kernel Send/Deliver run concurrently on
    // worker lanes; every stateful wire model touched at send time (batch
    // FIFOs, link serialization clocks, the loss/jitter RNG) would race or
    // diverge from serial order. The node CPU-cost model is the exception:
    // in deferred mode its state is per receiver and touched only at
    // delivery on the receiver's own lane, so it is site-confined.
    NATTO_CHECK(StatelessWire(options_, *delay_model_) &&
                (options_.deferred_node_service ||
                 options_.node_cost_per_message == 0))
        << "site-parallel simulation requires the stateless transport fast "
           "path (no batching, loss, capacity, or random delays; CPU cost "
           "only with deferred_node_service)";
  }
}

NodeId Transport::AddNode(int site) {
  NATTO_CHECK(site >= 0 && site < matrix_->num_sites());
  node_sites_.push_back(site);
  node_crashed_.push_back(false);
  node_free_at_.push_back(0);
  return static_cast<NodeId>(node_sites_.size()) - 1;
}

void Transport::SetNodeCrashed(NodeId node, bool crashed) {
  NATTO_CHECK(node >= 0 && node < num_nodes());
  node_crashed_[node] = crashed;
  // Queued batches destined to the crashed node's site flush now, so their
  // messages meet the delivery-time crash check instead of outliving the
  // fault inside the batcher.
  if (crashed && !link_batches_.empty()) FlushBatchesTo(node_sites_[node]);
}

void Transport::SetSitePartitioned(int site_a, int site_b, bool partitioned) {
  int n = matrix_->num_sites();
  NATTO_CHECK(site_a >= 0 && site_a < n);
  NATTO_CHECK(site_b >= 0 && site_b < n);
  if (site_a == site_b) return;  // a site is never partitioned from itself
  if (partition_mask_.empty()) {
    if (!partitioned) return;
    partition_mask_.assign(static_cast<size_t>(n) * n, 0);
  }
  uint8_t v = partitioned ? 1 : 0;
  partition_mask_[static_cast<size_t>(site_a) * n + site_b] = v;
  partition_mask_[static_cast<size_t>(site_b) * n + site_a] = v;
  // A partition severs the path for everything already accepted onto it:
  // flush the straddling batches so their messages hit the delivery-time
  // partition re-check (and drop there) rather than waiting out the fault.
  if (partitioned && !link_batches_.empty()) {
    FlushLink(site_a, site_b);
    FlushLink(site_b, site_a);
  }
}

bool Transport::IsSitePartitioned(int site_a, int site_b) const {
  if (partition_mask_.empty()) return false;
  return partition_mask_[static_cast<size_t>(site_a) * matrix_->num_sites() +
                         site_b] != 0;
}

void Transport::SetSitePartitionedOneWay(int from_site, int to_site,
                                         bool partitioned) {
  int n = matrix_->num_sites();
  NATTO_CHECK(from_site >= 0 && from_site < n);
  NATTO_CHECK(to_site >= 0 && to_site < n);
  if (from_site == to_site) return;
  if (partition_mask_.empty()) {
    if (!partitioned) return;
    partition_mask_.assign(static_cast<size_t>(n) * n, 0);
  }
  partition_mask_[static_cast<size_t>(from_site) * n + to_site] =
      partitioned ? 1 : 0;
  // Only the severed direction's open batch is flushed into the
  // delivery-time drop check; the healthy reverse direction is untouched.
  if (partitioned && !link_batches_.empty()) FlushLink(from_site, to_site);
}

void Transport::SetNodeSlow(NodeId node, double factor, SimTime until) {
  NATTO_CHECK(node >= 0 && node < num_nodes());
  NATTO_CHECK(factor >= 1.0);
  if (node_degrade_.size() < node_sites_.size()) {
    node_degrade_.resize(node_sites_.size());
  }
  node_degrade_[node].slow_factor = factor;
  node_degrade_[node].slow_until = until;
}

void Transport::SetNodeStalled(NodeId node, SimTime until) {
  NATTO_CHECK(node >= 0 && node < num_nodes());
  if (node_degrade_.size() < node_sites_.size()) {
    node_degrade_.resize(node_sites_.size());
  }
  node_degrade_[node].stall_until = until;
}

double Transport::NodeSlowFactor(NodeId node) const {
  NATTO_DCHECK(node >= 0 && node < num_nodes());
  if (static_cast<size_t>(node) >= node_degrade_.size()) return 1.0;
  const NodeDegrade& d = node_degrade_[node];
  return d.slow_until > simulator_->Now() ? d.slow_factor : 1.0;
}

SimTime Transport::NodeStallUntil(NodeId node) const {
  NATTO_DCHECK(node >= 0 && node < num_nodes());
  if (static_cast<size_t>(node) >= node_degrade_.size()) return 0;
  SimTime until = node_degrade_[node].stall_until;
  return until > simulator_->Now() ? until : 0;
}

SimTime Transport::ServiceDone(NodeId to, SimTime arrival, SimTime now) {
  bool queue = options_.node_cost_per_message > 0;
  SimDuration cost = queue ? options_.node_cost_per_message : 0;
  if (!node_degrade_.empty() &&
      static_cast<size_t>(to) < node_degrade_.size()) {
    const NodeDegrade& d = node_degrade_[to];
    if (d.slow_until > now) {
      SimDuration base = cost > 0 ? cost : kSlowDefaultServiceCost;
      cost = static_cast<SimDuration>(static_cast<double>(base) *
                                      d.slow_factor);
      queue = true;
    } else if (!queue && node_free_at_[to] > arrival) {
      // The slow window has expired but its backlog hasn't drained: keep
      // new arrivals FIFO behind it instead of letting them overtake
      // messages queued during the fault.
      queue = true;
    }
  }
  if (!queue) return arrival;
  SimTime start = std::max(arrival, node_free_at_[to]);
  node_free_at_[to] = start + cost;
  return start + cost;
}

void Transport::SetLinkOverlay(int from_site, int to_site, double extra_loss,
                               SimDuration extra_delay, SimTime until) {
  int n = matrix_->num_sites();
  NATTO_CHECK(from_site >= 0 && from_site < n);
  NATTO_CHECK(to_site >= 0 && to_site < n);
  // loss == 1.0 is a deterministic blackhole (Bernoulli(1) draws nothing).
  NATTO_CHECK(extra_loss >= 0.0 && extra_loss <= 1.0);
  if (until <= simulator_->Now()) {
    link_overlays_.erase({from_site, to_site});
    return;
  }
  link_overlays_[{from_site, to_site}] =
      LinkOverlay{extra_loss, extra_delay, until};
}

uint64_t Transport::Total(uint64_t Traffic::*field) const {
  uint64_t sum = 0;
  for (const Traffic& c : traffic_) sum += c.*field;
  return sum;
}

uint64_t Transport::messages_in_flight() const {
  int64_t sum = 0;
  for (const Traffic& c : traffic_) sum += c.in_flight;
  return static_cast<uint64_t>(sum);
}

SimTime& Transport::LinkFreeAt(int from_site, int to_site) {
  return link_free_at_[static_cast<size_t>(from_site) * matrix_->num_sites() +
                       to_site];
}

double Transport::EffectiveLinkRate(int from_site, int to_site,
                                    const LinkOverlay* overlay) const {
  double rate = options_.link_bandwidth_bytes_per_sec;
  if (rate <= 0.0) return 0.0;  // capacity model disabled
  double loss = options_.packet_loss;
  if (overlay != nullptr) {
    // An active degradation overlay's extra loss compounds with the
    // baseline loss probability and collapses this link's Mathis capacity
    // for the overlay's duration.
    loss = 1.0 - (1.0 - loss) * (1.0 - overlay->extra_loss);
  }
  if (loss > 0.0) {
    // Mathis et al.: per-flow TCP throughput ~= MSS / (RTT * sqrt(p)).
    double rtt_sec = ToSeconds(matrix_->Rtt(from_site, to_site));
    rtt_sec = std::max(rtt_sec, 1e-4);
    double per_flow = kTcpMssBytes / (rtt_sec * std::sqrt(loss));
    double aggregate = per_flow * kTcpFlowsPerLink;
    rate = std::min(rate, aggregate);
  }
  return rate;
}

const Transport::LinkOverlay* Transport::ActiveOverlay(int from_site,
                                                       int to_site) {
  if (link_overlays_.empty()) return nullptr;
  auto it = link_overlays_.find({from_site, to_site});
  if (it == link_overlays_.end()) return nullptr;
  if (it->second.until <= simulator_->Now()) {
    link_overlays_.erase(it);
    return nullptr;
  }
  return &it->second;
}

SimTime Transport::WireFrame(int from_site, int to_site, size_t frame_bytes,
                             const LinkOverlay* overlay, SimTime now,
                             Traffic& c) {
  // Link serialization under the capacity model.
  SimTime depart = now;
  double rate = EffectiveLinkRate(from_site, to_site, overlay);
  if (rate > 0.0) {
    SimTime& free_at = LinkFreeAt(from_site, to_site);
    SimTime start = std::max(now, free_at);
    auto tx = static_cast<SimDuration>(static_cast<double>(frame_bytes) /
                                       rate * 1e6);  // seconds -> micros
    free_at = start + tx;
    depart = free_at;
  }

  // Propagation delay with the configured distribution.
  SimDuration delay =
      delay_model_->Sample(matrix_->OneWay(from_site, to_site), rng_);
  if (overlay != nullptr) delay += overlay->extra_delay;

  // Loss: the first lost transmission is usually recovered by TCP fast
  // retransmit on the busy persistent connection (~1 RTT); repeated losses
  // of the same segment fall back to the retransmission timeout with
  // exponential backoff.
  if (options_.packet_loss > 0.0) {
    SimDuration rtt = matrix_->Rtt(from_site, to_site);
    bool first = true;
    SimDuration rto = kRetransmitTimeout;
    while (rng_.Bernoulli(options_.packet_loss)) {
      ++c.lost;
      if (first) {
        delay += std::max<SimDuration>(rtt, Millis(1));
        first = false;
      } else {
        delay += rto;
        rto = std::min<SimDuration>(rto * 2, Seconds(8));
      }
    }
  }
  return depart + delay;
}

Transport::Envelope* Transport::AllocEnvelope(size_t lane) {
  NATTO_DCHECK(lane < envelope_pools_.size());
  EnvelopePool& pool = envelope_pools_[lane];
  if (pool.free == nullptr) {
    constexpr int kChunk = 64;
    pool.chunks.push_back(std::make_unique<Envelope[]>(kChunk));
    Envelope* chunk = pool.chunks.back().get();
    for (int i = kChunk - 1; i >= 0; --i) {
      chunk[i].next = pool.free;
      pool.free = &chunk[i];
    }
  }
  Envelope* env = pool.free;
  pool.free = env->next;
  return env;
}

void Transport::Deliver(Envelope* env) {
  const auto lane = static_cast<size_t>(simulator_->CurrentLane());
  Traffic& c = traffic_[lane];
  // Stall re-check before anything touches the envelope: a service message
  // arriving at a stalled node sits in its receive queue until the stall
  // ends (deferred, not dropped — it stays in flight and keeps its FIFO
  // position via the kernel's equal-time tie break). Pings bypass the
  // stall: the frozen process's kernel still answers them.
  if (!node_degrade_.empty() && !env->ping &&
      static_cast<size_t>(env->to) < node_degrade_.size()) {
    SimTime stall_until = node_degrade_[env->to].stall_until;
    if (stall_until > simulator_->Now()) {
      ++c.stall_deferrals;
      ScheduleWireDelivery(stall_until, env);
      return;
    }
  }
  // Deferred service: destination CPU queueing applies here, at wire
  // arrival on the receiver's lane, instead of at send time. node_free_at_
  // is then only ever touched by the owning site's lane (site-parallel
  // safe), with arrival order as the FIFO discipline.
  if (options_.deferred_node_service && !env->serviced) {
    env->serviced = true;
    SimTime now = simulator_->Now();
    SimTime done = ServiceDone(env->to, now, now);
    if (done > now) {
      ScheduleWireDelivery(done, env);
      return;
    }
  }
  // Move the closure out and recycle first: a re-entrant Send from inside
  // `deliver` can then reuse this very envelope.
  sim::EventFn deliver = std::move(env->deliver);
  const int sa = env->from_site;
  const int sb = env->to_site;
  const NodeId to = env->to;
  EnvelopePool& pool = envelope_pools_[lane];
  env->next = pool.free;
  pool.free = env;

  // Only the main thread may sum the lanes: workers are idle then.
  NATTO_DCHECK(lane != 0 || messages_in_flight() > 0);
  --c.in_flight;

  // The delivery-time checks re-validate against faults injected while the
  // message was in flight: a receiver that crashed before delivery eats the
  // message (crash reason), and a partition installed mid-flight severs the
  // path for packets already on it. Such drops stay counted as sent traffic
  // (they did enter the network) and additionally count under
  // delivery_drops, keeping sent == delivered + in_flight + delivery_drops.
  if (node_crashed_[to]) {
    ++c.delivery_drops;
    CountDrop(c, &Traffic::crash);
    return;
  }
  if (!partition_mask_.empty() && IsSitePartitioned(sa, sb)) {
    ++c.delivery_drops;
    CountDrop(c, &Traffic::partition);
    return;
  }
  ++c.delivered;
  deliver();
}

void Transport::ScheduleWireDelivery(SimTime at, Envelope* env) {
  // Routed to the destination's site so the parallel kernel delivers on the
  // receiver's lane; the serial kernel treats the site as a no-op.
  simulator_->ScheduleAtSite(  // NOLINT(natto-batch-bypass)
      env->to_site, at, [this, env]() { Deliver(env); });
}

void Transport::EnqueueBatched(int sa, int sb, Envelope* env,
                               size_t framed_bytes) {
  LinkBatch& batch =
      link_batches_[static_cast<size_t>(sa) * matrix_->num_sites() + sb];
  env->next = nullptr;
  if (batch.tail == nullptr) {
    batch.head = env;
  } else {
    batch.tail->next = env;
  }
  batch.tail = env;
  batch.framed_bytes += framed_bytes;
  ++batch.count;

  if (batch.framed_bytes >= options_.max_batch_bytes) {
    // Byte trigger: emit immediately (FlushLink cancels the delay timer).
    FlushLink(sa, sb);
    return;
  }
  if (!batch.timer_armed) {
    batch.timer_armed = true;
    // The timer clears its own armed flag before flushing so FlushLink only
    // ever cancels genuinely pending timers (cancelling an already-executed
    // event would leave a permanent tombstone in the kernel).
    batch.timer_id = simulator_->ScheduleAfter(
        options_.max_batch_delay, [this, sa, sb]() {
          LinkBatch& b = link_batches_[static_cast<size_t>(sa) *
                                           matrix_->num_sites() +
                                       sb];
          b.timer_armed = false;
          FlushLink(sa, sb);
        });
  }
}

void Transport::FlushLink(int from_site, int to_site) {
  LinkBatch& batch = link_batches_[static_cast<size_t>(from_site) *
                                       matrix_->num_sites() +
                                   to_site];
  if (batch.timer_armed) {
    // A byte-trigger, explicit, or fault-driven flush beat the max-delay
    // timer: cancel it so it never fires for this emptied batch (the timer
    // path clears timer_armed before calling in, so the id here is always
    // still pending and its tombstone is reclaimed by the kernel).
    simulator_->Cancel(batch.timer_id);
    batch.timer_armed = false;
  }
  Envelope* head = batch.head;
  if (head == nullptr) return;
  const size_t total_bytes = batch.framed_bytes;
  const uint64_t count = batch.count;
  batch.head = nullptr;
  batch.tail = nullptr;
  batch.framed_bytes = 0;
  batch.count = 0;

  Traffic& c = traffic_[static_cast<size_t>(simulator_->CurrentLane())];
  ++c.batches;
  if (msgs_per_batch_metric_) {
    msgs_per_batch_metric_->Record(static_cast<double>(count));
  }

  // The batch is one wire frame: one serialization slot for the summed
  // framed bytes, one propagation sample, one loss/retransmission process.
  SimTime now = simulator_->Now();
  SimTime arrival = WireFrame(from_site, to_site, total_bytes,
                              ActiveOverlay(from_site, to_site), now, c);

  // Unpack in FIFO order: destination CPU queueing stays per message (the
  // receiver still parses every message in the frame), and equal-time
  // deliveries keep their enqueue order through the kernel's FIFO tie
  // break.
  Envelope* env = head;
  while (env != nullptr) {
    Envelope* next = env->next;
    env->next = nullptr;
    SimTime done = options_.deferred_node_service
                       ? arrival
                       : ServiceDone(env->to, arrival, now);
    ScheduleWireDelivery(done, env);
    env = next;
  }
}

void Transport::Flush() {
  if (link_batches_.empty()) return;
  int n = matrix_->num_sites();
  for (int sa = 0; sa < n; ++sa) {
    for (int sb = 0; sb < n; ++sb) {
      FlushLink(sa, sb);
    }
  }
}

void Transport::FlushBatchesTo(int site) {
  int n = matrix_->num_sites();
  for (int sa = 0; sa < n; ++sa) {
    FlushLink(sa, site);
  }
}

void Transport::Send(NodeId from, NodeId to, size_t bytes,
                     sim::EventFn deliver, MessageClass cls) {
  NATTO_DCHECK(from >= 0 && from < num_nodes());
  NATTO_DCHECK(to >= 0 && to < num_nodes());
  const auto lane = static_cast<size_t>(simulator_->CurrentLane());
  Traffic& c = traffic_[lane];
  // A crashed endpoint means nothing enters the network: count the message
  // as a drop, not as sent traffic (a crashed sender must not inflate the
  // traffic stats).
  if (node_crashed_[from] || node_crashed_[to]) {
    CountDrop(c, &Traffic::crash);
    return;
  }

  int sa = node_sites_[from];
  int sb = node_sites_[to];
  SimTime now = simulator_->Now();

  // A stalled sender emits nothing until its stall window ends: the whole
  // send (fault checks, counters, wire model) replays at that instant, so a
  // partition installed mid-stall still eats the message. Ping replies are
  // exempt — the kernel answers even when the process is frozen. This is a
  // sender-side process stall, not a wire hand-off, hence the direct
  // re-entry instead of the batcher.
  if (!node_degrade_.empty() && cls == MessageClass::kService &&
      static_cast<size_t>(from) < node_degrade_.size()) {
    SimTime stall_until = node_degrade_[from].stall_until;
    if (stall_until > now) {
      ++c.stall_deferrals;
      simulator_->ScheduleAt(  // NOLINT(natto-batch-bypass)
          stall_until,
          [this, from, to, bytes, d = std::move(deliver), cls]() mutable {
            Send(from, to, bytes, std::move(d), cls);
          });
      return;
    }
  }

  // Site-pair blackhole: nothing crosses a partitioned path.
  if (!partition_mask_.empty() && IsSitePartitioned(sa, sb)) {
    CountDrop(c, &Traffic::partition);
    return;
  }

  // Transient degradation overlay on this directed link. The loss draw is
  // per message at send time (batched or not, so drop attribution and the
  // RNG stream stay per-message); the extra delay rides the wire frame,
  // below or at flush time for a batch.
  const LinkOverlay* overlay = ActiveOverlay(sa, sb);
  if (overlay != nullptr && overlay->extra_loss > 0.0 &&
      rng_.Bernoulli(overlay->extra_loss)) {
    CountDrop(c, &Traffic::loss);
    return;
  }

  ++c.sent;
  ++c.in_flight;
  Envelope* env = AllocEnvelope(lane);
  env->from_site = sa;
  env->to_site = sb;
  env->to = to;
  env->ping = cls == MessageClass::kPing;
  env->serviced = false;
  env->deliver = std::move(deliver);
  if (batching_enabled()) {
    // Batching stage: the message joins the open batch for its directed
    // site pair and is charged framed wire bytes; the wire-cost model runs
    // once per batch at flush time.
    size_t framed = bytes + kFramingBytesPerMessage;
    c.bytes += framed;
    EnqueueBatched(sa, sb, env, framed);
    return;
  }
  c.bytes += bytes;
  // Unbatched: every message is its own wire frame (the msgs_per_batch
  // histogram stays empty — it only describes real coalescing).
  ++c.batches;
  SimTime arrival = WireFrame(sa, sb, bytes, overlay, now, c);

  // Destination CPU queueing (plus fail-slow stretch when active); in
  // deferred mode it is applied by Deliver() on the receiver's lane.
  SimTime done = options_.deferred_node_service
                     ? arrival
                     : ServiceDone(to, arrival, now);
  ScheduleWireDelivery(done, env);
}

void Transport::RegisterMetrics(obs::MetricsRegistry* registry) {
  NATTO_CHECK(registry != nullptr);
  const std::pair<const char*, uint64_t Traffic::*> sources[] = {
      {"net.messages_sent", &Traffic::sent},
      {"net.bytes_sent", &Traffic::bytes},
      {"net.messages_delivered", &Traffic::delivered},
      {"net.messages_dropped", &Traffic::dropped},
      {"net.messages_lost", &Traffic::lost},
      {"net.dropped.crash", &Traffic::crash},
      {"net.dropped.partition", &Traffic::partition},
      {"net.dropped.loss", &Traffic::loss},
      {"net.dropped.in_flight", &Traffic::delivery_drops},
      {"net.batches_sent", &Traffic::batches},
      {"net.stall_deferrals", &Traffic::stall_deferrals},
  };
  for (const auto& [name, field] : sources) {
    registry->AddCounterSource(name, [this, field = field]() {
      return static_cast<int64_t>(Total(field));
    });
  }
  msgs_per_batch_metric_ = registry->GetHistogram("net.msgs_per_batch");
}

}  // namespace natto::net
