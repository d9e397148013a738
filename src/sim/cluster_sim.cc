#include "src/sim/cluster_sim.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace ca {

namespace {

// Cap on simultaneously outstanding prefetch transfers; keeps the event
// queue bounded while still saturating the single SSD channel.
constexpr std::size_t kMaxOutstandingFetches = 8;

}  // namespace

ClusterSim::ClusterSim(SimOptions options, std::vector<SessionTrace> workload)
    : options_(std::move(options)),
      workload_(std::move(workload)),
      timing_(options_.model, options_.hw),
      store_(options_.store),
      prefetcher_(&store_) {
  CA_CHECK(!workload_.empty());
  sessions_.resize(workload_.size());
  for (std::size_t i = 0; i < workload_.size(); ++i) {
    CA_CHECK_EQ(workload_[i].id, static_cast<SessionId>(i)) << "session ids must be dense";
    sessions_[i].trace = &workload_[i];
    total_turns_ += workload_[i].turns.size();
  }
}

SchedulerHints ClusterSim::CurrentHints() {
  const std::size_t window = EvictionWindowLength(store_, AvgSessionKvBytes());
  return BuildHints(queue_.WindowSnapshot(window), window);
}

std::uint64_t ClusterSim::AvgSessionKvBytes() const {
  const std::uint64_t used = store_.UsedBytes(Tier::kHbm) + store_.UsedBytes(Tier::kDram) +
                             store_.UsedBytes(Tier::kDisk);
  const std::size_t count = store_.RecordCount();
  if (count == 0) {
    // Cold store: assume a mid-size session (1K tokens).
    return timing_.KvBytes(1024);
  }
  return used / count;
}

std::pair<std::uint64_t, bool> ClusterSim::ClampHistory(SessionState& state,
                                                        std::uint32_t new_tokens) {
  const std::uint64_t window = options_.model.context_window;
  std::uint64_t hist = state.history_tokens;
  bool truncated = false;
  if (hist + new_tokens > window) {
    truncated = true;
    // Keep the most recent (1 - kTruncationRatio) of the window for history.
    const auto keep = static_cast<std::uint64_t>(
        static_cast<double>(window) * (1.0 - kTruncationRatio));
    hist = std::min(hist, keep);
    if (hist + new_tokens > window) {
      // Very long new input: history gives way entirely.
      hist = window > new_tokens ? window - new_tokens : 0;
    }
  }
  state.history_tokens = hist;
  return {hist, truncated};
}

void ClusterSim::OnTurnArrival(SessionId session) {
  SessionState& state = sessions_[session];
  const SessionTrace& trace = *state.trace;
  CA_CHECK_LT(state.next_turn, trace.turns.size());
  const Turn& turn = trace.turns[state.next_turn];

  Job job;
  job.id = next_job_id_++;
  job.session = session;
  job.arrival = events_.now();
  job.turn_index = state.next_turn + 1;
  job.new_tokens = turn.q_tokens;
  job.decode_tokens = std::max<std::uint32_t>(1, turn.a_tokens);
  // history_tokens is clamped at dispatch (truncation point); stash the raw
  // value here.
  job.history_tokens = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(state.history_tokens, UINT32_MAX));
  queue_.Push(job);

  SchedulePrefetch();
  WorkerWake();
}

void ClusterSim::SchedulePrefetch() {
  if (options_.mode != EngineMode::kCachedAttention || !options_.prefetch_enabled) {
    return;
  }
  if (outstanding_fetches_ >= kMaxOutstandingFetches) {
    return;
  }
  const auto upcoming = queue_.WindowSnapshot(queue_.size());
  const PrefetchPlan plan = prefetcher_.Plan(upcoming, AvgSessionKvBytes());
  ++metrics_.prefetch_plans;
  for (const SessionId session : plan.to_fetch) {
    if (outstanding_fetches_ >= kMaxOutstandingFetches) {
      break;
    }
    const auto info = store_.GetInfo(session);
    if (!info.has_value() || info->tier != Tier::kDisk) {
      continue;
    }
    if (fetch_in_flight_.count(session) > 0) {
      continue;  // already on the SSD channel
    }
    ++metrics_.prefetch_planned;
    // Serialise on the SSD channel.
    const SimTime start = std::max(disk_busy_until_, events_.now());
    const SimTime done = start + timing_.DiskToDram(info->bytes);
    disk_busy_until_ = done;
    ++outstanding_fetches_;
    fetch_in_flight_.insert(session);
    events_.ScheduleAt(done, [this, session] {
      --outstanding_fetches_;
      fetch_in_flight_.erase(session);
      if (store_.Lookup(session) == Tier::kDisk) {
        const SchedulerHints hints = CurrentHints();
        if (store_.Promote(session, events_.now(), hints).ok()) {
          ++metrics_.prefetch_promoted;
        }
        store_.MaintainDramBuffer(events_.now(), hints);
      } else {
        ++metrics_.prefetch_stale;
      }
      SchedulePrefetch();
    });
  }
}

void ClusterSim::WorkerWake() {
  if (worker_busy_) {
    return;
  }
  // Prefill priority: admit a waiting job if a batch slot is free.
  if (!queue_.empty() && batch_.size() < options_.model.max_batch) {
    auto job = queue_.Pop();
    CA_CHECK(job.has_value());
    StartPrefill(*job);
    return;
  }
  if (!batch_.empty()) {
    RunDecodeIteration();
    return;
  }
  // Idle; next arrival will wake us.
}

void ClusterSim::StartPrefill(Job job) {
  worker_busy_ = true;
  SessionState& state = sessions_[job.session];
  auto [hist, truncated] = ClampHistory(state, job.new_tokens);
  job.history_tokens = static_cast<std::uint32_t>(hist);
  if (truncated && measuring_) {
    ++metrics_.truncation_events;
  }

  SimTime duration = 0;
  std::uint64_t computed = 0;

  if (options_.mode == EngineMode::kRecompute) {
    // RE always recomputes the (possibly truncated) history plus new input.
    computed = hist + job.new_tokens;
    duration = timing_.PrefillTime(computed);
  } else {
    // OF baseline: a coupled-PE KV cache is invalidated by truncation.
    if (truncated && !options_.decoupled_pe) {
      store_.Remove(job.session);
    }
    const auto record = store_.Access(job.session, events_.now());
    if (record.has_value()) {
      // Reuse the cached KV; with decoupled PE a too-long cache is truncated
      // in place (still valid). Cached tokens never exceed history here.
      const std::uint64_t cached = std::min<std::uint64_t>(record->token_count, hist);
      const std::uint64_t missing_hist = hist - cached;
      computed = missing_hist + job.new_tokens;
      if (record->tier == Tier::kDisk) {
        // Prefetch missed: the KV streams disk -> DRAM -> HBM layer by
        // layer at min(SSD, PCIe) bandwidth, overlapped with the prefill
        // of the new tokens; the SSD channel is busy meanwhile.
        const double bw =
            std::min(options_.hw.ssd_read_bandwidth, options_.hw.pcie_bandwidth);
        duration = timing_.OverlappedPrefillAtBandwidth(cached, computed,
                                                        options_.read_buffer_layers,
                                                        options_.layerwise_preload, bw);
        disk_busy_until_ = std::max(disk_busy_until_, events_.now() + duration);
      } else {
        // DRAM (PCIe load) or HBM (already resident: nothing to load).
        const std::uint64_t load_tokens = record->tier == Tier::kHbm ? 0 : cached;
        duration = timing_.OverlappedPrefill(load_tokens, computed,
                                             options_.read_buffer_layers,
                                             options_.layerwise_preload);
      }
    } else {
      computed = hist + job.new_tokens;
      duration = timing_.PrefillTime(computed);
    }
  }

  const SimTime start = events_.now();
  events_.ScheduleAt(start + duration, [this, job, start, duration, computed] {
    FinishPrefill(job, start, duration, computed);
  });
}

void ClusterSim::FinishPrefill(const Job& job, SimTime start, SimTime duration,
                               std::uint64_t computed_tokens) {
  (void)start;
  if (measuring_) {
    metrics_.prefill_busy += duration;
    metrics_.ttft_s.Add(ToSeconds(events_.now() - job.arrival));
    metrics_.prompt_tokens += job.history_tokens + job.new_tokens;
    metrics_.computed_tokens += computed_tokens;
  }

  ActiveJob active;
  active.job = job;
  active.context_tokens = job.history_tokens + job.new_tokens;
  active.remaining_decode = job.decode_tokens;
  active.prefill_done = events_.now();
  batch_.push_back(active);
  batch_ctx_sum_ += active.context_tokens;

  worker_busy_ = false;
  WorkerWake();
}

void ClusterSim::RunDecodeIteration() {
  worker_busy_ = true;
  const std::size_t batch = batch_.size();
  const std::uint64_t avg_ctx = batch_ctx_sum_ / batch;
  const SimTime duration = timing_.DecodeIterTime(batch, avg_ctx);
  events_.ScheduleAt(events_.now() + duration, [this, duration] {
    if (measuring_) {
      metrics_.decode_busy += duration;
      metrics_.decoded_tokens += batch_.size();
    }
    // Advance every active job by one token.
    std::vector<ActiveJob> finished;
    for (auto it = batch_.begin(); it != batch_.end();) {
      it->context_tokens += 1;
      batch_ctx_sum_ += 1;
      CA_CHECK_GT(it->remaining_decode, 0U);
      it->remaining_decode -= 1;
      if (it->remaining_decode == 0) {
        batch_ctx_sum_ -= it->context_tokens;
        finished.push_back(*it);
        it = batch_.erase(it);
      } else {
        ++it;
      }
    }
    worker_busy_ = false;
    for (const ActiveJob& done : finished) {
      FinishTurn(done);
    }
    WorkerWake();
  });
}

void ClusterSim::FinishTurn(const ActiveJob& done) {
  SessionState& state = sessions_[done.job.session];
  state.history_tokens = done.context_tokens;
  state.next_turn += 1;

  if (options_.mode == EngineMode::kCachedAttention) {
    // Save the session's full KV cache (asynchronously overlapped with the
    // decode that just ran; the synchronous baseline blocks for the full
    // write, §3.2.2).
    const std::uint64_t save_bytes = timing_.KvBytes(done.context_tokens);
    SimTime stall;
    if (options_.async_save) {
      const SimTime overlappable = events_.now() - done.prefill_done;
      stall = timing_.SaveStall(save_bytes, overlappable, options_.write_buffer_bytes);
    } else {
      stall = timing_.HbmToHost(save_bytes);
    }
    if (stall > 0) {
      if (measuring_) {
        metrics_.save_stall += stall;
      }
      // The write-back blocks the worker. Stalls serialise on the PCIe
      // write channel, so extend any stall already in flight.
      const SimTime stall_end = std::max(events_.now(), pcie_write_busy_until_) + stall;
      pcie_write_busy_until_ = stall_end;
      worker_busy_ = true;
      ++worker_blocks_;
      events_.ScheduleAt(stall_end, [this] {
        if (--worker_blocks_ == 0) {
          worker_busy_ = false;
          WorkerWake();
        }
      });
    }
    const SchedulerHints hints = CurrentHints();
    const Status put =
        store_.Put(done.job.session, save_bytes, done.context_tokens, events_.now(), hints);
    if (!put.ok()) {
      CA_LOG(Debug) << "KV of session " << done.job.session << " dropped: " << put;
    }
    store_.MaintainDramBuffer(events_.now(), hints);
    if (options_.store.ttl > 0 && !ttl_sweep_scheduled_) {
      ttl_sweep_scheduled_ = true;
      events_.ScheduleAfter(options_.ttl_sweep_interval, [this] { SweepTtl(); });
    }
  }

  ++completed_turns_;
  if (measuring_) {
    ++metrics_.turns;
  } else if (completed_turns_ >= options_.warmup_turns) {
    // This turn was the last of the warmup; measurement starts now.
    ResetMeasurement();
  }

  // Schedule the user's next turn after their think time.
  const SessionTrace& trace = *state.trace;
  if (state.next_turn < trace.turns.size()) {
    const SimTime think = trace.think_times[state.next_turn];
    const SessionId session = done.job.session;
    events_.ScheduleAfter(think, [this, session] { OnTurnArrival(session); });
  }
}

void ClusterSim::SweepTtl() {
  store_.ExpireTtl(events_.now());
  if (completed_turns_ < total_turns_) {
    events_.ScheduleAfter(options_.ttl_sweep_interval, [this] { SweepTtl(); });
  } else {
    ttl_sweep_scheduled_ = false;
  }
}

void ClusterSim::ResetMeasurement() {
  measuring_ = true;
  measure_start_ = events_.now();
  store_.ResetStats();
}

SimMetrics ClusterSim::Run() {
  // Seed arrival events for every session's first turn.
  for (const SessionTrace& trace : workload_) {
    if (trace.turns.empty()) {
      continue;
    }
    const SessionId session = trace.id;
    events_.ScheduleAt(trace.arrival, [this, session] { OnTurnArrival(session); });
  }
  if (options_.warmup_turns == 0) {
    measuring_ = true;
    measure_start_ = 0;
  }
  events_.Run();
  CA_CHECK_EQ(completed_turns_, total_turns_) << "simulation ended with pending work";

  metrics_.makespan = events_.now() - measure_start_;
  metrics_.store = store_.stats();
  metrics_.cost = ComputeCost(options_.pricing, options_.model.num_gpus, metrics_.gpu_time(),
                              store_.CapacityBytes(Tier::kDram), store_.CapacityBytes(Tier::kDisk),
                              metrics_.makespan);
  return metrics_;
}

}  // namespace ca
