#include "harness/client.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace natto::harness {

namespace {

/// splitmix64: the retry jitter must be deterministic and must not consume
/// the client's RNG stream (a fork or draw here would perturb the Poisson
/// arrivals of every later transaction).
uint64_t HashMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Client::Client(sim::Simulator* simulator, txn::TxnEngine* engine,
               workload::Workload* workload, Options options, Rng rng,
               RunStats* stats, obs::MetricsRegistry* registry)
    : simulator_(simulator),
      engine_(engine),
      workload_(workload),
      options_(std::move(options)),
      rng_(std::move(rng)),
      stats_(stats) {
  if (registry == nullptr) return;
  for (int c = 0; c < static_cast<int>(obs::AbortCause::kNumCauses); ++c) {
    auto cause = static_cast<obs::AbortCause>(c);
    const char* name = cause == obs::AbortCause::kNone
                           ? "unknown"
                           : obs::AbortCauseName(cause);
    abort_cause_[c] =
        registry->GetCounter(std::string("client.abort_cause.") + name);
  }
  // Registered only when re-routing is wired (fault runs), so fault-free
  // registries carry exactly the pre-fault-layer instrument set.
  if (options_.route_origin) {
    reroutes_ = registry->GetCounter("client.reroutes");
  }
  // Same gating for the hedging instruments: only gray-defense runs carry
  // them, so default registries (and their goldens) are untouched.
  if (options_.hedge_percentile > 0.0) {
    hedges_ = registry->GetCounter("client.hedges");
    hedge_wins_ = registry->GetCounter("client.hedge_wins");
  }
}

void Client::Start() { ScheduleNext(); }

void Client::ScheduleNext() {
  double gap_sec = rng_.Exponential(options_.rate_tps);
  auto gap = static_cast<SimDuration>(gap_sec * 1e6);
  // Explicitly routed to the origin site's lane (not inherited): the whole
  // per-client event chain — arrivals, gateway calls, engine callbacks,
  // retry/hedge timers — then runs on one lane, and arrivals don't land on
  // the global queue, where at saturation rates they would truncate every
  // site-parallel window to the next arrival gap.
  simulator_->ScheduleAtSite(
      options_.origin_site, simulator_->Now() + gap, [this]() {
        if (simulator_->Now() >= options_.stop_generating_at) return;
        BeginTransaction();
        ScheduleNext();
      });
}

void Client::BeginTransaction() {
  txn::TxnRequest req = workload_->Next(rng_);
  req.origin_site = options_.origin_site;
  Attempt(std::move(req), simulator_->Now(), /*attempt=*/1);
}

void Client::Attempt(txn::TxnRequest request, SimTime first_start,
                     int attempt) {
  if (options_.route_origin) {
    int routed = options_.route_origin(options_.origin_site);
    if (routed != request.origin_site) {
      if (reroutes_ != nullptr && routed != options_.origin_site) {
        reroutes_->Inc();
      }
      request.origin_site = routed;
    }
  }
  request.id = MakeTxnId(options_.client_id, next_seq_++);
  const bool hedging = options_.hedge_percentile > 0.0;
  if (options_.request_timeout <= 0 && !hedging) {
    // Fault-free fast path: no completion token, no timer — the engine
    // callback chain is identical to the pre-timeout client.
    engine_->Execute(request, [this, request, first_start,
                               attempt](const txn::TxnResult& result) {
      HandleOutcome(result, request, first_start, attempt);
    });
    return;
  }
  // One token settles the whole attempt: primary outcome, hedge outcome and
  // timeout race for it, first one wins, the others see *settled and drop
  // their response on the floor (exactly-once toward stats and retries).
  auto settled = std::make_shared<bool>(false);
  const bool high = txn::IsPrioritized(request.priority);
  SimTime attempt_start = simulator_->Now();
  engine_->Execute(request,
                   [this, settled, request, first_start, attempt,
                    attempt_start, high](const txn::TxnResult& result) {
                     if (*settled) return;  // lost the race; late response
                     *settled = true;
                     RecordAttemptLatency(high,
                                          simulator_->Now() - attempt_start);
                     HandleOutcome(result, request, first_start, attempt);
                   });
  if (hedging) {
    simulator_->ScheduleAfter(
        HedgeDelay(high),
        [this, settled, request, first_start, attempt, attempt_start,
         high]() mutable {
          if (*settled) return;
          // Re-issue under a fresh txn id (the engine keys execution state
          // by id; the hedge is a second, independent transaction whose
          // result we adopt) through the hedge route when wired.
          txn::TxnRequest hedge = std::move(request);
          hedge.id = MakeTxnId(options_.client_id, next_seq_++);
          if (options_.hedge_route) {
            hedge.origin_site = options_.hedge_route(hedge.origin_site);
          }
          if (hedges_ != nullptr) hedges_->Inc();
          engine_->Execute(
              hedge, [this, settled, hedge, first_start, attempt,
                      attempt_start, high](const txn::TxnResult& result) {
                if (*settled) return;
                *settled = true;
                if (hedge_wins_ != nullptr) hedge_wins_->Inc();
                RecordAttemptLatency(high,
                                     simulator_->Now() - attempt_start);
                HandleOutcome(result, hedge, first_start, attempt);
              });
        });
  }
  if (options_.request_timeout > 0) {
    simulator_->ScheduleAfter(
        options_.request_timeout,
        [this, settled, request, first_start, attempt]() {
          if (*settled) return;
          *settled = true;
          HandleTimeout(request, first_start, attempt);
        });
  }
}

SimDuration Client::HedgeDelay(bool high) const {
  const size_t pri = high ? 1 : 0;
  const size_t n = hedge_count_[pri];
  if (options_.hedge_min_samples > 0 &&
      n < static_cast<size_t>(options_.hedge_min_samples)) {
    return options_.hedge_min_delay;
  }
  // Nearest-rank percentile over the observation ring (same convention as
  // harness::Percentile), floored so a streak of fast commits can't shrink
  // the hedge delay into spraying duplicates at an idle cluster.
  std::vector<SimDuration> window(hedge_obs_[pri], hedge_obs_[pri] + n);
  std::sort(window.begin(), window.end());
  size_t rank = static_cast<size_t>(
      std::ceil(options_.hedge_percentile * static_cast<double>(n)));
  if (rank > 0) --rank;
  if (rank >= n) rank = n - 1;
  return std::max(window[rank], options_.hedge_min_delay);
}

void Client::RecordAttemptLatency(bool high, SimDuration latency) {
  if (options_.hedge_percentile <= 0.0) return;
  const size_t pri = high ? 1 : 0;
  hedge_obs_[pri][hedge_next_[pri]] = latency;
  hedge_next_[pri] = (hedge_next_[pri] + 1) % kHedgeWindow;
  hedge_count_[pri] = std::min(hedge_count_[pri] + 1, kHedgeWindow);
}

void Client::HandleOutcome(const txn::TxnResult& result,
                           txn::TxnRequest request, SimTime first_start,
                           int attempt) {
  bool in_window = first_start >= options_.measure_start &&
                   first_start < options_.measure_end;
  switch (result.outcome) {
    case txn::TxnOutcome::kCommitted: {
      double latency_ms = ToMillis(simulator_->Now() - first_start);
      if (in_window) {
        // RunStats is shared by every client in the run and its vectors and
        // plain counters are neither thread-safe nor order-insensitive
        // (Mean() sums doubles in push order), so clients on different site
        // lanes record through DeferOrdered. Serial runs execute inline.
        const bool high = txn::IsPrioritized(request.priority);
        const int level = txn::PriorityLevel(request.priority);
        simulator_->DeferOrdered([stats = stats_, latency_ms, high, level]() {
          if (high) {
            stats->latencies_high_ms.push_back(latency_ms);
            ++stats->committed_high;
          } else {
            stats->latencies_low_ms.push_back(latency_ms);
            ++stats->committed_low;
          }
          stats->latencies_by_level_ms[level].push_back(latency_ms);
        });
      }
      RecordTimelineCommit(latency_ms);
      return;
    }
    case txn::TxnOutcome::kUserAborted: {
      if (in_window) {
        simulator_->DeferOrdered(
            [stats = stats_]() { ++stats->user_aborted; });
      }
      if (abort_cause_[0] != nullptr) {
        abort_cause_[static_cast<int>(obs::AbortCause::kUserAbort)]->Inc();
      }
      return;
    }
    case txn::TxnOutcome::kAborted: {
      if (in_window) {
        simulator_->DeferOrdered(
            [stats = stats_]() { ++stats->aborted_attempts; });
      }
      // Counted outside the measurement window too: the registry records
      // system behavior over the whole run, not the sampled window.
      if (abort_cause_[0] != nullptr) {
        abort_cause_[static_cast<int>(result.abort_cause)]->Inc();
      }
      RecordTimelineAbort(/*timeout=*/false);
      RetryOrFail(std::move(request), first_start, attempt, in_window);
      return;
    }
  }
}

void Client::HandleTimeout(txn::TxnRequest request, SimTime first_start,
                           int attempt) {
  bool in_window = first_start >= options_.measure_start &&
                   first_start < options_.measure_end;
  simulator_->DeferOrdered([stats = stats_, in_window]() {
    if (in_window) ++stats->aborted_attempts;
    ++stats->timeout_aborts;
  });
  if (abort_cause_[0] != nullptr) {
    abort_cause_[static_cast<int>(obs::AbortCause::kTimeout)]->Inc();
  }
  RecordTimelineAbort(/*timeout=*/true);
  RetryOrFail(std::move(request), first_start, attempt, in_window);
}

void Client::RetryOrFail(txn::TxnRequest request, SimTime first_start,
                         int attempt, bool in_window) {
  if (attempt >= options_.max_attempts) {
    if (in_window) {
      const bool high = txn::IsPrioritized(request.priority);
      simulator_->DeferOrdered([stats = stats_, high]() {
        ++stats->failed;
        ++(high ? stats->failed_high : stats->failed_low);
      });
    }
    return;
  }
  const int next_attempt = attempt + 1;
  if (options_.backoff_base <= 0) {
    // The paper's client: retry immediately (Sec 5.1).
    Attempt(std::move(request), first_start, next_attempt);
    return;
  }
  SimDuration delay = BackoffDelay(options_, first_start, next_attempt);
  simulator_->ScheduleAfter(
      delay, [this, request = std::move(request), first_start,
              next_attempt]() mutable {
        Attempt(std::move(request), first_start, next_attempt);
      });
}

SimDuration Client::BackoffDelay(const Options& options, SimTime first_start,
                                 int next_attempt) {
  // Capped exponential backoff: retry n (first retry has next_attempt == 2)
  // waits base * 2^(n-1), so shift by next_attempt - 2. Jitter is added
  // before the final clamp so kBackoffCap bounds the observable wait
  // (clamping first and jittering after overshot the cap by up to 50%).
  int shift = std::min(next_attempt - 2, 20);
  SimDuration delay = options.backoff_base << shift;
  delay = std::min(delay, kBackoffCap);
  uint64_t h = HashMix((static_cast<uint64_t>(options.client_id) << 40) ^
                       (static_cast<uint64_t>(first_start) << 8) ^
                       static_cast<uint64_t>(next_attempt));
  SimDuration jitter =
      static_cast<SimDuration>(h % (static_cast<uint64_t>(delay) / 2 + 1));
  return std::min(delay + jitter, kBackoffCap);
}

void Client::RecordTimelineCommit(double latency_ms) {
  if (options_.timeline_bucket <= 0) return;
  // The bucket index is computed now (lane-local clock); only the shared
  // timeline mutation is deferred.
  size_t idx = static_cast<size_t>(simulator_->Now() /
                                   options_.timeline_bucket);
  simulator_->DeferOrdered([stats = stats_, idx, latency_ms]() {
    if (stats->timeline.size() <= idx) stats->timeline.resize(idx + 1);
    ++stats->timeline[idx].committed;
    stats->timeline[idx].latencies_ms.push_back(latency_ms);
  });
}

void Client::RecordTimelineAbort(bool timeout) {
  if (options_.timeline_bucket <= 0) return;
  size_t idx = static_cast<size_t>(simulator_->Now() /
                                   options_.timeline_bucket);
  simulator_->DeferOrdered([stats = stats_, idx, timeout]() {
    if (stats->timeline.size() <= idx) stats->timeline.resize(idx + 1);
    ++stats->timeline[idx].aborted;
    if (timeout) ++stats->timeline[idx].timeouts;
  });
}

}  // namespace natto::harness
