#include "src/sim/multi_node.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace ca {

double MultiNodeMetrics::load_balance_ratio() const {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (const NodePerf& n : nodes) {
    if (n.jobs_routed == 0) {
      continue;
    }
    hi = std::max(hi, n.jobs_routed);
    lo = lo == 0 ? n.jobs_routed : std::min(lo, n.jobs_routed);
  }
  return lo == 0 ? 0.0 : static_cast<double>(hi) / static_cast<double>(lo);
}

MultiNodeSim::MultiNodeSim(MultiNodeOptions options, std::vector<SessionTrace> workload)
    : options_(std::move(options)),
      workload_(std::move(workload)),
      timing_(options_.model, options_.hw),
      ring_(options_.vnodes_per_shard) {
  CA_CHECK_GT(options_.nodes, 0UL);
  CA_CHECK(!options_.store.real_payloads) << "the fleet sim models capacity only";
  nodes_.resize(options_.nodes);
  for (std::size_t i = 0; i < options_.nodes; ++i) {
    nodes_[i].store = std::make_unique<AttentionStore>(options_.store);
    ring_.AddShard(static_cast<ShardId>(i));
  }
  metrics_.nodes.resize(options_.nodes);
  for (const SessionTrace& trace : workload_) {
    SessionState state;
    state.trace = &trace;
    sessions_.emplace(trace.id, state);
  }
}

MultiNodeMetrics MultiNodeSim::Run() {
  for (const SessionTrace& trace : workload_) {
    if (trace.turns.empty()) {
      continue;
    }
    const SessionId session = trace.id;
    events_.ScheduleAt(trace.arrival, [this, session] { OnTurnArrival(session); });
  }
  if (options_.drain_at > 0) {
    const ShardId node = options_.drain_node;
    events_.ScheduleAt(options_.drain_at, [this, node] { DrainNode(node); });
  }
  events_.Run();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    metrics_.nodes[i] = nodes_[i].perf;
  }
  return metrics_;
}

void MultiNodeSim::OnTurnArrival(SessionId session) {
  SessionState& state = sessions_.at(session);
  const auto pin = pins_.find(session);
  const bool is_new = pin == pins_.end();
  ShardId target = is_new ? ring_.ShardFor(session) : pin->second;
  // Backpressure mirror of ShardRouter::TrySubmit: a full queue sheds
  // existing sessions (their KV is already local) and overflows new ones to
  // the least-loaded node.
  const bool full = options_.max_queue_depth > 0 &&
                    nodes_[target].queue_depth >= options_.max_queue_depth;
  if (full && is_new && options_.overflow_new_sessions) {
    std::optional<ShardId> best;
    std::size_t best_depth = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (i == target || nodes_[i].draining) {
        continue;
      }
      if (!best.has_value() || nodes_[i].queue_depth < best_depth) {
        best = static_cast<ShardId>(i);
        best_depth = nodes_[i].queue_depth;
      }
    }
    if (best.has_value() && best_depth < options_.max_queue_depth) {
      target = *best;
      nodes_[target].perf.jobs_overflowed_in += 1;
    } else {
      ++metrics_.shed;
      nodes_[target].perf.jobs_shed += 1;
      // A shed turn is lost, not retried: skip to the session's next turn.
      state.next_turn += 1;
      ScheduleNextTurn(session, events_.now());
      return;
    }
  } else if (full) {
    ++metrics_.shed;
    nodes_[target].perf.jobs_shed += 1;
    state.next_turn += 1;
    ScheduleNextTurn(session, events_.now());
    return;
  }
  pins_[session] = target;
  ServeTurn(target, session);
}

void MultiNodeSim::ServeTurn(ShardId node_id, SessionId session) {
  Node& node = nodes_[node_id];
  SessionState& state = sessions_.at(session);
  const Turn& turn = state.trace->turns[state.next_turn];
  node.queue_depth += 1;
  node.perf.jobs_routed += 1;
  state.turn_in_flight = true;

  const auto record = node.store->Access(session, events_.now());
  SimTime prefill;
  if (record.has_value() && state.history_tokens > 0) {
    node.perf.hits += 1;
    // Cached history streams in while the new tokens prefill (§3.2.1).
    const double bw = record->tier == Tier::kDisk
                          ? std::min(options_.hw.ssd_read_bandwidth, options_.hw.pcie_bandwidth)
                          : options_.hw.pcie_bandwidth;
    prefill = timing_.OverlappedPrefillAtBandwidth(state.history_tokens, turn.q_tokens,
                                                   options_.read_buffer_layers, true, bw);
  } else {
    node.perf.misses += state.history_tokens > 0 ? 1 : 0;
    prefill = timing_.PrefillTime(state.history_tokens + turn.q_tokens);
  }
  const std::uint64_t ctx = state.history_tokens + turn.q_tokens;
  const SimTime decode =
      static_cast<SimTime>(turn.a_tokens) * timing_.DecodeIterTime(1, ctx + turn.a_tokens / 2);
  // Single-server FIFO per node: service starts once the node frees up and
  // any in-flight migration of this session has landed.
  const SimTime start = std::max({events_.now(), node.busy_until, state.available_at});
  const SimTime done = start + prefill + decode;
  metrics_.ttft_s.Add(ToSeconds(start - events_.now() + prefill));
  node.busy_until = done;
  node.perf.busy += prefill + decode;
  const std::uint32_t a_tokens = turn.a_tokens;
  events_.ScheduleAt(done, [this, node_id, session, a_tokens] {
    FinishTurn(node_id, session, a_tokens);
  });
}

void MultiNodeSim::FinishTurn(ShardId node_id, SessionId session, std::uint32_t a_tokens) {
  Node& node = nodes_[node_id];
  SessionState& state = sessions_.at(session);
  const Turn& turn = state.trace->turns[state.next_turn];
  state.history_tokens += turn.q_tokens + a_tokens;
  state.next_turn += 1;
  state.turn_in_flight = false;
  node.queue_depth -= 1;
  ++metrics_.turns;

  const Status saved =
      node.store->Put(session, timing_.KvBytes(state.history_tokens), state.history_tokens,
                      events_.now(), SchedulerHints{});
  if (!saved.ok()) {
    CA_LOG(Debug) << "sim KV save for session " << session << " dropped: " << saved;
  }
  // A turn that was already in flight when its node started draining
  // finishes here (the real router's WaitIdle), then the session moves.
  if (node.draining) {
    MigrateSession(node_id, session);
  }
  ScheduleNextTurn(session, events_.now());
  metrics_.makespan = std::max(metrics_.makespan, events_.now());
}

void MultiNodeSim::ScheduleNextTurn(SessionId session, SimTime completed_at) {
  SessionState& state = sessions_.at(session);
  if (state.next_turn >= state.trace->turns.size()) {
    return;
  }
  const SimTime think =
      state.next_turn < state.trace->think_times.size() ? state.trace->think_times[state.next_turn]
                                                        : 0;
  const SimTime when = std::max(completed_at, events_.now()) + std::max<SimTime>(think, 0);
  events_.ScheduleAt(when, [this, session] { OnTurnArrival(session); });
}

void MultiNodeSim::DrainNode(ShardId node_id) {
  CA_CHECK_LT(node_id, nodes_.size());
  Node& node = nodes_[node_id];
  if (node.draining || ring_.shard_count() < 2) {
    return;
  }
  node.draining = true;
  ring_.RemoveShard(node_id);
  // Sessions with a turn in flight migrate when that turn finishes
  // (FinishTurn), mirroring the router's WaitIdle-before-export.
  std::vector<SessionId> resident;
  for (const auto& [session, shard] : pins_) {
    if (shard == node_id && !sessions_.at(session).turn_in_flight) {
      resident.push_back(session);
    }
  }
  for (const SessionId session : resident) {
    MigrateSession(node_id, session);
  }
}

void MultiNodeSim::MigrateSession(ShardId from, SessionId session) {
  const ShardId target = ring_.ShardFor(session);
  SessionState& state = sessions_.at(session);
  // KV payload rides the serialized node-to-node channel; the session is
  // unavailable until its transfer lands.
  auto exported = nodes_[from].store->ExportRecord(session);
  if (exported.ok()) {
    const SimTime transfer = static_cast<SimTime>(
        static_cast<double>(exported->bytes) / options_.net_bandwidth * kSecond);
    migration_channel_busy_until_ =
        std::max(migration_channel_busy_until_, events_.now()) + transfer;
    state.available_at = std::max(state.available_at, migration_channel_busy_until_);
    metrics_.migration_time += transfer;
    const Status imported =
        nodes_[target].store->ImportRecord(*exported, events_.now(), SchedulerHints{});
    if (!imported.ok()) {
      CA_LOG(Debug) << "sim KV import for session " << session << " dropped: " << imported;
    }
    nodes_[from].store->Remove(session);
  }
  // History always moves (it is metadata-sized); without the record the
  // target recomputes, exactly like the live router.
  pins_[session] = target;
  nodes_[from].perf.sessions_migrated_out += 1;
  nodes_[target].perf.sessions_migrated_in += 1;
  ++metrics_.migrations;
}

}  // namespace ca
