#include "fault/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace natto::fault {

FaultSchedule& FaultSchedule::CrashReplica(SimTime at, int partition,
                                           int replica) {
  events.push_back({at, FaultOp::kCrashReplica, partition, replica, 0, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::RecoverReplica(SimTime at, int partition,
                                             int replica) {
  events.push_back(
      {at, FaultOp::kRecoverReplica, partition, replica, 0, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::PartitionSites(SimTime at, int site_a,
                                             int site_b) {
  events.push_back({at, FaultOp::kPartitionSites, site_a, site_b, 0, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::HealSites(SimTime at, int site_a, int site_b) {
  events.push_back({at, FaultOp::kHealSites, site_a, site_b, 0, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::IsolateSite(SimTime at, int site) {
  events.push_back({at, FaultOp::kIsolateSite, site, -1, 0, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::HealSite(SimTime at, int site) {
  events.push_back({at, FaultOp::kHealSite, site, -1, 0, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::DegradeLink(SimTime at, int site_a, int site_b,
                                          double loss,
                                          SimDuration extra_delay,
                                          SimDuration duration) {
  events.push_back({at, FaultOp::kDegradeLink, site_a, site_b, loss,
                    extra_delay, duration});
  return *this;
}

FaultSchedule& FaultSchedule::SlowReplica(SimTime at, int partition,
                                          int replica, double factor,
                                          SimDuration duration) {
  events.push_back({at, FaultOp::kSlowReplica, partition, replica, 0, 0,
                    duration, factor});
  return *this;
}

FaultSchedule& FaultSchedule::StallReplica(SimTime at, int partition,
                                           int replica, SimDuration duration) {
  events.push_back(
      {at, FaultOp::kStallReplica, partition, replica, 0, 0, duration, 0});
  return *this;
}

FaultSchedule& FaultSchedule::PartitionOneWay(SimTime at, int from_site,
                                              int to_site) {
  events.push_back(
      {at, FaultOp::kPartitionOneWay, from_site, to_site, 0, 0, 0, 0});
  return *this;
}

std::vector<FaultEvent> FaultSchedule::Sorted() const {
  std::vector<FaultEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  return sorted;
}

namespace {

/// "12s" / "450ms" / "1500us" -> micros. Plain numbers are rejected so a
/// schedule never silently means the wrong unit.
bool ParseDuration(const std::string& tok, SimDuration* out) {
  size_t n = tok.size();
  double scale = 0;
  size_t suffix = 0;
  if (n > 2 && tok.compare(n - 2, 2, "ms") == 0) {
    scale = 1e3;
    suffix = 2;
  } else if (n > 2 && tok.compare(n - 2, 2, "us") == 0) {
    scale = 1;
    suffix = 2;
  } else if (n > 1 && tok[n - 1] == 's') {
    scale = 1e6;
    suffix = 1;
  } else {
    return false;
  }
  const std::string num = tok.substr(0, n - suffix);
  char* end = nullptr;
  double v = std::strtod(num.c_str(), &end);
  if (end == nullptr || *end != '\0' || num.empty() || v < 0) return false;
  *out = static_cast<SimDuration>(v * scale);
  return true;
}

bool ParseIdx(const std::string& tok, char prefix, int* out) {
  if (tok.size() < 2 || tok[0] != prefix) return false;
  for (size_t i = 1; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return false;
  }
  *out = std::atoi(tok.c_str() + 1);
  return true;
}

bool Fail(std::string* error, int line_no, const std::string& why) {
  if (error != nullptr) {
    *error = "schedule line " + std::to_string(line_no) + ": " + why;
  }
  return false;
}

}  // namespace

bool ParseSchedule(const std::string& text, FaultSchedule* out,
                   std::string* error) {
  NATTO_CHECK(out != nullptr);
  FaultSchedule schedule;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream toks(line);
    std::vector<std::string> t;
    for (std::string tok; toks >> tok;) t.push_back(tok);
    if (t.empty()) continue;
    SimDuration at = 0;
    if (!ParseDuration(t[0], &at)) {
      return Fail(error, line_no, "bad time '" + t[0] + "'");
    }
    const std::string& op = t.size() > 1 ? t[1] : t[0];
    int a = -1;
    int b = -1;
    if (op == "crash" || op == "recover") {
      if (t.size() != 4 || !ParseIdx(t[2], 'p', &a) ||
          !ParseIdx(t[3], 'r', &b)) {
        return Fail(error, line_no, op + " wants: p<P> r<R>");
      }
      if (op == "crash") {
        schedule.CrashReplica(at, a, b);
      } else {
        schedule.RecoverReplica(at, a, b);
      }
    } else if (op == "partition" || op == "heal") {
      if (t.size() != 4 || !ParseIdx(t[2], 's', &a) ||
          !ParseIdx(t[3], 's', &b)) {
        return Fail(error, line_no, op + " wants: s<A> s<B>");
      }
      if (op == "partition") {
        schedule.PartitionSites(at, a, b);
      } else {
        schedule.HealSites(at, a, b);
      }
    } else if (op == "isolate" || op == "heal-site") {
      if (t.size() != 3 || !ParseIdx(t[2], 's', &a)) {
        return Fail(error, line_no, op + " wants: s<S>");
      }
      if (op == "isolate") {
        schedule.IsolateSite(at, a);
      } else {
        schedule.HealSite(at, a);
      }
    } else if (op == "degrade") {
      if (t.size() != 7 || !ParseIdx(t[2], 's', &a) ||
          !ParseIdx(t[3], 's', &b)) {
        return Fail(error, line_no,
                    "degrade wants: s<A> s<B> loss=<f> delay=<dur> for=<dur>");
      }
      double loss = -1;
      SimDuration delay = -1;
      SimDuration dur = -1;
      for (size_t i = 4; i < t.size(); ++i) {
        if (t[i].rfind("loss=", 0) == 0) {
          char* end = nullptr;
          loss = std::strtod(t[i].c_str() + 5, &end);
          if (end == nullptr || *end != '\0' || loss < 0 || loss >= 1) {
            return Fail(error, line_no, "bad loss in '" + t[i] + "'");
          }
        } else if (t[i].rfind("delay=", 0) == 0) {
          if (!ParseDuration(t[i].substr(6), &delay)) {
            return Fail(error, line_no, "bad delay in '" + t[i] + "'");
          }
        } else if (t[i].rfind("for=", 0) == 0) {
          if (!ParseDuration(t[i].substr(4), &dur)) {
            return Fail(error, line_no, "bad duration in '" + t[i] + "'");
          }
        } else {
          return Fail(error, line_no, "unknown key '" + t[i] + "'");
        }
      }
      if (loss < 0 || delay < 0 || dur <= 0) {
        return Fail(error, line_no,
                    "degrade wants all of loss=, delay=, for=");
      }
      schedule.DegradeLink(at, a, b, loss, delay, dur);
    } else if (op == "slow") {
      if (t.size() != 6 || !ParseIdx(t[2], 'p', &a) ||
          !ParseIdx(t[3], 'r', &b)) {
        return Fail(error, line_no,
                    "slow wants: p<P> r<R> factor=<f> for=<dur>");
      }
      double factor = -1;
      SimDuration dur = -1;
      for (size_t i = 4; i < t.size(); ++i) {
        if (t[i].rfind("factor=", 0) == 0) {
          const std::string num = t[i].substr(7);
          char* end = nullptr;
          factor = std::strtod(num.c_str(), &end);
          if (num.empty() || end == nullptr || *end != '\0' || factor < 1) {
            return Fail(error, line_no,
                        "bad factor in '" + t[i] + "' (want a number >= 1)");
          }
        } else if (t[i].rfind("for=", 0) == 0) {
          if (!ParseDuration(t[i].substr(4), &dur)) {
            return Fail(error, line_no, "bad duration in '" + t[i] + "'");
          }
        } else {
          return Fail(error, line_no, "unknown key '" + t[i] + "'");
        }
      }
      if (factor < 1 || dur <= 0) {
        return Fail(error, line_no, "slow wants both factor= and for=");
      }
      schedule.SlowReplica(at, a, b, factor, dur);
    } else if (op == "stall") {
      if (t.size() != 5 || !ParseIdx(t[2], 'p', &a) ||
          !ParseIdx(t[3], 'r', &b)) {
        return Fail(error, line_no, "stall wants: p<P> r<R> for=<dur>");
      }
      SimDuration dur = -1;
      if (t[4].rfind("for=", 0) == 0) {
        if (!ParseDuration(t[4].substr(4), &dur)) {
          return Fail(error, line_no, "bad duration in '" + t[4] + "'");
        }
      } else {
        return Fail(error, line_no, "unknown key '" + t[4] + "'");
      }
      if (dur <= 0) {
        return Fail(error, line_no, "stall wants a positive for=");
      }
      schedule.StallReplica(at, a, b, dur);
    } else if (op == "partition-oneway") {
      if (t.size() != 4 || !ParseIdx(t[2], 's', &a) ||
          !ParseIdx(t[3], 's', &b)) {
        return Fail(error, line_no, "partition-oneway wants: s<A> s<B>");
      }
      schedule.PartitionOneWay(at, a, b);
    } else {
      return Fail(error, line_no, "unknown op '" + op + "'");
    }
  }
  *out = std::move(schedule);
  return true;
}

std::string FormatSchedule(const FaultSchedule& schedule) {
  std::ostringstream out;
  auto secs = [](SimTime t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%gs", ToSeconds(t));
    return std::string(buf);
  };
  for (const FaultEvent& e : schedule.Sorted()) {
    out << secs(e.at) << ' ';
    switch (e.op) {
      case FaultOp::kCrashReplica:
        out << "crash p" << e.a << " r" << e.b;
        break;
      case FaultOp::kRecoverReplica:
        out << "recover p" << e.a << " r" << e.b;
        break;
      case FaultOp::kPartitionSites:
        out << "partition s" << e.a << " s" << e.b;
        break;
      case FaultOp::kHealSites:
        out << "heal s" << e.a << " s" << e.b;
        break;
      case FaultOp::kIsolateSite:
        out << "isolate s" << e.a;
        break;
      case FaultOp::kHealSite:
        out << "heal-site s" << e.a;
        break;
      case FaultOp::kDegradeLink:
        out << "degrade s" << e.a << " s" << e.b << " loss=" << e.loss
            << " delay=" << secs(e.extra_delay) << " for=" << secs(e.duration);
        break;
      case FaultOp::kSlowReplica:
        out << "slow p" << e.a << " r" << e.b << " factor=" << e.factor
            << " for=" << secs(e.duration);
        break;
      case FaultOp::kStallReplica:
        out << "stall p" << e.a << " r" << e.b << " for=" << secs(e.duration);
        break;
      case FaultOp::kPartitionOneWay:
        out << "partition-oneway s" << e.a << " s" << e.b;
        break;
    }
    out << '\n';
  }
  return out.str();
}

FaultInjector::FaultInjector(sim::Simulator* simulator,
                             net::Transport* transport,
                             std::vector<raft::RaftGroup*> groups,
                             obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                             FaultSchedule schedule)
    : simulator_(simulator),
      transport_(transport),
      groups_(std::move(groups)),
      metrics_(metrics),
      tracer_(tracer),
      schedule_(std::move(schedule)) {
  NATTO_CHECK(simulator_ != nullptr);
  NATTO_CHECK(transport_ != nullptr);
}

void FaultInjector::Arm() {
  NATTO_CHECK(!armed_) << "Arm() is one-shot";
  armed_ = true;
  for (const FaultEvent& e : schedule_.Sorted()) {
    simulator_->ScheduleAt(e.at, [this, e]() { Apply(e); });
  }
}

raft::RaftReplica* FaultInjector::Replica(int partition, int replica) {
  NATTO_CHECK(partition >= 0 && partition < static_cast<int>(groups_.size()))
      << "fault schedule names partition " << partition << " of "
      << groups_.size();
  raft::RaftGroup* g = groups_[static_cast<size_t>(partition)];
  NATTO_CHECK(replica >= 0 && replica < static_cast<int>(g->size()))
      << "fault schedule names replica " << replica << " of " << g->size();
  return g->replica(static_cast<size_t>(replica));
}

void FaultInjector::SetReplicaCrashed(int partition, int replica,
                                      bool crashed) {
  raft::RaftReplica* r = Replica(partition, replica);
  transport_->SetNodeCrashed(r->id(), crashed);
  r->SetCrashed(crashed);
}

void FaultInjector::Count(const char* name) {
  if (metrics_ == nullptr) return;
  metrics_->GetCounter(std::string("fault.") + name)->Inc();
}

void FaultInjector::Mark(const char* name) {
  // A disabled tracer samples no id: the search below would never end.
  if (!tracer_->enabled()) return;
  // Fault markers share the transaction trace stream. Ids come from a
  // reserved high range and are advanced until the deterministic sampler
  // accepts one, so every marker is recorded at any sample period.
  TxnId id;
  do {
    id = (1ull << 63) | next_marker_++;
  } while (!tracer_->Sampled(id));
  tracer_->TxnBegin(id, 0);
  tracer_->Instant(id, name, -1);
  tracer_->TxnEnd(id, "fault", obs::AbortCause::kNone);
}

void FaultInjector::Apply(const FaultEvent& e) {
  switch (e.op) {
    case FaultOp::kCrashReplica:
      SetReplicaCrashed(e.a, e.b, true);
      Count("crash");
      Mark("fault_crash");
      break;
    case FaultOp::kRecoverReplica:
      SetReplicaCrashed(e.a, e.b, false);
      Count("recover");
      Mark("fault_recover");
      break;
    case FaultOp::kPartitionSites:
      transport_->SetSitePartitioned(e.a, e.b, true);
      Count("partition");
      Mark("fault_partition");
      break;
    case FaultOp::kHealSites:
      transport_->SetSitePartitioned(e.a, e.b, false);
      Count("heal");
      Mark("fault_heal");
      break;
    case FaultOp::kIsolateSite:
      for (int s = 0; s < transport_->matrix().num_sites(); ++s) {
        if (s != e.a) transport_->SetSitePartitioned(e.a, s, true);
      }
      Count("partition");
      Mark("fault_isolate");
      break;
    case FaultOp::kHealSite:
      for (int s = 0; s < transport_->matrix().num_sites(); ++s) {
        if (s != e.a) transport_->SetSitePartitioned(e.a, s, false);
      }
      Count("heal");
      Mark("fault_heal");
      break;
    case FaultOp::kDegradeLink: {
      SimTime until = e.at + e.duration;
      transport_->SetLinkOverlay(e.a, e.b, e.loss, e.extra_delay, until);
      transport_->SetLinkOverlay(e.b, e.a, e.loss, e.extra_delay, until);
      Count("link_degrade");
      Mark("fault_degrade");
      break;
    }
    case FaultOp::kSlowReplica:
      transport_->SetNodeSlow(Replica(e.a, e.b)->id(), e.factor,
                              e.at + e.duration);
      Count("slow");
      Mark("fault_slow");
      break;
    case FaultOp::kStallReplica:
      transport_->SetNodeStalled(Replica(e.a, e.b)->id(), e.at + e.duration);
      Count("stall");
      Mark("fault_stall");
      break;
    case FaultOp::kPartitionOneWay:
      transport_->SetSitePartitionedOneWay(e.a, e.b, true);
      Count("partition");
      Mark("fault_partition_oneway");
      break;
  }
}

}  // namespace natto::fault
