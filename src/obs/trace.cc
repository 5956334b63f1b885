#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "sim/simulator.h"

namespace natto::obs {

namespace {

// splitmix64 finalizer: spreads sequential txn ids uniformly so 1-in-N
// sampling does not systematically favor one client's transactions.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

SimTime SpanEnd(const SpanEvent& e, const TxnTrace& t) {
  if (e.end >= e.start) return e.end;
  // Still open when the txn finished: close at the txn's end.
  return t.end_time >= e.start ? t.end_time : e.start;
}

}  // namespace

bool Tracer::Sampled(TxnId id) const {
  if (!options_.enabled) return false;
  if (options_.sample_period <= 1) return true;
  return MixId(id) % static_cast<uint64_t>(options_.sample_period) == 0;
}

void Tracer::Post(TxnId id, Record r) {
  if (!Sampled(id)) return;
  // Now() is read on the calling lane: a worker lane's closure is replayed
  // on the main thread at the window barrier.
  simulator_->DeferOrdered(
      [this, id, r, now = simulator_->Now()]() { Apply(id, r, now); });
}

void Tracer::Apply(TxnId id, const Record& r, SimTime now) {
  auto it = r.op == Op::kTxnBegin ? txns_.try_emplace(id).first
                                  : txns_.find(id);
  if (it == txns_.end()) return;
  TxnTrace& t = it->second;
  switch (r.op) {
    case Op::kTxnBegin:
      t.id = id;
      t.priority = r.priority;
      t.begin_time = now;
      return;
    case Op::kSpanBegin:
    case Op::kInstant: {
      const bool instant = r.op == Op::kInstant;
      t.events.push_back(
          SpanEvent{r.name, r.partition, now, instant ? now : -1, instant});
      return;
    }
    case Op::kSpanEnd:
      for (auto e = t.events.rbegin(); e != t.events.rend(); ++e) {
        if (e->end < e->start && !e->instant && e->partition == r.partition &&
            e->name == r.name) {
          e->end = now;
          return;
        }
      }
      return;
    case Op::kTxnEnd:
      if (!t.outcome.empty()) return;  // already finished
      t.outcome = r.name;
      t.end_time = now;
      [[fallthrough]];  // the first recorded cause wins over TxnEnd's
    case Op::kAttributeAbort:
      if (t.cause == AbortCause::kNone) t.cause = r.cause;
      return;
  }
}

std::vector<TxnTrace> Tracer::Drain() {
  std::vector<TxnTrace> out;
  out.reserve(txns_.size());
  for (auto& [id, t] : txns_) out.push_back(std::move(t));
  txns_.clear();
  std::sort(out.begin(), out.end(), [](const TxnTrace& a, const TxnTrace& b) {
    if (a.begin_time != b.begin_time) return a.begin_time < b.begin_time;
    return a.id < b.id;
  });
  return out;
}

std::string ChromeTraceJson(const std::vector<TxnTrace>& traces) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto event = [&](const std::string& name, int pid, TxnId tid, SimTime ts,
                   SimTime dur, const std::string& args_json) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"X\",\"name\":";
    AppendJsonString(&out, name);
    out += ",\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"ts\":" + std::to_string(ts);
    out += ",\"dur\":" + std::to_string(dur);
    if (!args_json.empty()) out += ",\"args\":" + args_json;
    out += "}";
  };
  for (const TxnTrace& t : traces) {
    SimTime end = t.end_time >= t.begin_time ? t.end_time : t.begin_time;
    std::string args = "{\"priority\":" + std::to_string(t.priority) +
                       ",\"outcome\":";
    AppendJsonString(&args, t.outcome.empty() ? "unfinished" : t.outcome);
    args += ",\"cause\":";
    AppendJsonString(&args, AbortCauseName(t.cause));
    args += "}";
    // pid 0 = client/coordinator scope; one whole-lifetime event per txn.
    event("txn", 0, t.id, t.begin_time, end - t.begin_time, args);
    for (const SpanEvent& e : t.events) {
      event(e.name, e.partition + 1, t.id, e.start, SpanEnd(e, t) - e.start,
            "");
    }
  }
  out += "]}";
  return out;
}

std::string TraceJsonLines(const std::vector<TxnTrace>& traces) {
  std::string out;
  for (const TxnTrace& t : traces) {
    std::string prefix = "{\"txn\":" + std::to_string(t.id) +
                         ",\"priority\":" + std::to_string(t.priority) +
                         ",\"outcome\":";
    AppendJsonString(&prefix, t.outcome.empty() ? "unfinished" : t.outcome);
    prefix += ",\"cause\":";
    AppendJsonString(&prefix, AbortCauseName(t.cause));
    out += prefix + ",\"span\":\"txn\",\"partition\":-1,\"start\":" +
           std::to_string(t.begin_time) + ",\"end\":" +
           std::to_string(t.end_time >= t.begin_time ? t.end_time
                                                     : t.begin_time) +
           "}\n";
    for (const SpanEvent& e : t.events) {
      out += prefix + ",\"span\":";
      AppendJsonString(&out, e.name);
      out += ",\"partition\":" + std::to_string(e.partition) +
             ",\"start\":" + std::to_string(e.start) +
             ",\"end\":" + std::to_string(SpanEnd(e, t)) + "}\n";
    }
  }
  return out;
}

std::string RenderTimeline(const TxnTrace& trace) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "txn %llu priority=%d outcome=%s cause=%s\n",
                static_cast<unsigned long long>(trace.id), trace.priority,
                trace.outcome.empty() ? "unfinished" : trace.outcome.c_str(),
                AbortCauseName(trace.cause));
  std::string out = buf;
  SimTime t0 = trace.begin_time;
  std::snprintf(buf, sizeof(buf), "  %10.3f ms  begin\n", 0.0);
  out += buf;
  std::vector<const SpanEvent*> events;
  events.reserve(trace.events.size());
  for (const SpanEvent& e : trace.events) events.push_back(&e);
  std::stable_sort(events.begin(), events.end(),
                   [](const SpanEvent* a, const SpanEvent* b) {
                     return a->start < b->start;
                   });
  for (const SpanEvent* e : events) {
    if (e->instant) {
      std::snprintf(buf, sizeof(buf), "  %10.3f ms  %s [p%d]\n",
                    ToMillis(e->start - t0), e->name.c_str(), e->partition);
    } else {
      SimTime end = SpanEnd(*e, trace);
      std::snprintf(buf, sizeof(buf),
                    "  %10.3f ms  %s [p%d] +%.3f ms%s\n",
                    ToMillis(e->start - t0), e->name.c_str(), e->partition,
                    ToMillis(end - e->start),
                    e->end < e->start ? " (unclosed)" : "");
    }
    out += buf;
  }
  if (trace.end_time >= t0) {
    std::snprintf(buf, sizeof(buf), "  %10.3f ms  end (%s)\n",
                  ToMillis(trace.end_time - t0),
                  trace.outcome.empty() ? "unfinished" : trace.outcome.c_str());
    out += buf;
  }
  return out;
}

}  // namespace natto::obs
