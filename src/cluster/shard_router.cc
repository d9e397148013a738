#include "src/cluster/shard_router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace ca {

std::string_view ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDraining:
      return "draining";
    case ShardHealth::kDrained:
      return "drained";
    case ShardHealth::kQuarantined:
      return "quarantined";
  }
  return "?";
}

ShardRouter::ShardRouter(const Transformer* model, ClusterOptions options)
    : model_(model), options_(std::move(options)) {
  CA_CHECK(model_ != nullptr);
  CA_CHECK_GT(options_.num_shards, 0UL);
  MetricsRegistry& reg = MetricsRegistry::Global();
  drain_seconds_hist_ = &reg.GetHistogram("cluster.drain_seconds");
  shards_.reserve(options_.num_shards);
  job_maps_.resize(options_.num_shards);
  parked_.resize(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    EngineOptions eopts =
        options_.engine_options_fn ? options_.engine_options_fn(i) : options_.engine;
    CA_CHECK(!eopts.store.durable)
        << "sharded serving over durable stores needs per-shard journal paths";
    if (!eopts.store.disk_path.empty()) {
      eopts.store.disk_path += ".shard" + std::to_string(i);
    }
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<CachedAttentionEngine>(model_, std::move(eopts));
    shard->loop = std::make_unique<ServingLoop>(shard->engine.get(), options_.server);
    const MetricLabels labels = {{"shard", std::to_string(i)}};
    shard->routed_counter = &reg.GetCounter("cluster.jobs_routed", labels);
    shard->shed_counter = &reg.GetCounter("cluster.jobs_shed", labels);
    shard->overflowed_counter = &reg.GetCounter("cluster.jobs_overflowed", labels);
    shard->migrated_out_counter = &reg.GetCounter("cluster.sessions_migrated_out", labels);
    shard->migrated_in_counter = &reg.GetCounter("cluster.sessions_migrated_in", labels);
    shard->resident_gauge = &reg.GetGauge("cluster.sessions_resident", labels);
    shard->depth_gauge = &reg.GetGauge("cluster.queue_depth", labels);
    shards_.push_back(std::move(shard));
    MutexLock lock(mutex_);
    ring_.AddShard(static_cast<ShardId>(i));
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

void ShardRouter::SubmitToShardLocked(ShardId shard, GlobalJob id, ServeRequest request) {
  Shard& s = *shards_[shard];
  // Accepted work is never dropped: parked-job flushes and Submit both take
  // the unbounded intake (backpressure already happened at acceptance).
  const JobId local = s.loop->Submit(std::move(request));
  job_maps_[shard].emplace(local, id);
  ++s.jobs_routed;
  s.routed_counter->Add(1);
}

std::optional<ShardId> ShardRouter::LeastLoadedShardLocked(ShardId exclude) const {
  std::optional<ShardId> best;
  std::size_t best_depth = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == exclude || shards_[i]->health != ShardHealth::kHealthy) {
      continue;
    }
    const std::size_t depth = shards_[i]->loop->queue_depth();
    if (!best.has_value() || depth < best_depth) {
      best = static_cast<ShardId>(i);
      best_depth = depth;
    }
  }
  return best;
}

std::size_t ShardRouter::HealthyCountLocked() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->health == ShardHealth::kHealthy ? 1 : 0;
  }
  return n;
}

JobId ShardRouter::Submit(ServeRequest request) {
  CA_CHECK(!request.input.empty()) << "empty turn submitted";
  JobId id = 0;
  {
    MutexLock lock(mutex_);
    CA_CHECK(accepting_) << "Submit after Shutdown";
    const SessionId session = request.session;
    const auto pin = pins_.find(session);
    ShardId target = pin != pins_.end() ? pin->second : ring_.ShardFor(session);
    const GlobalJob gid{next_job_id_++, ++turns_submitted_[session]};
    CA_TRACE_INSTANT("cluster.route", "session", session, "shard", target);
    if (shards_[target]->health == ShardHealth::kDraining) {
      parked_[target].push_back(ParkedJob{gid, std::move(request)});
    } else {
      pins_[session] = target;
      SubmitToShardLocked(target, gid, std::move(request));
    }
    id = gid.job;
  }
  MaybeInlinePollHealth();
  return id;
}

std::optional<JobId> ShardRouter::TrySubmit(ServeRequest request) {
  if (request.input.empty()) {
    return std::nullopt;
  }
  std::optional<JobId> id;
  {
    MutexLock lock(mutex_);
    if (!accepting_) {
      return std::nullopt;
    }
    const SessionId session = request.session;
    const auto pin = pins_.find(session);
    const bool is_new = pin == pins_.end();
    ShardId target = is_new ? ring_.ShardFor(session) : pin->second;
    if (shards_[target]->health == ShardHealth::kDraining) {
      // Parked intake bypasses the loop's own queue cap, so the cap applies
      // here too: a long drain under pressure sheds instead of accumulating
      // unbounded parked work. (Submit parks unconditionally — accepted
      // work is never dropped.)
      if (options_.server.max_queue_depth != 0 &&
          parked_[target].size() >= options_.server.max_queue_depth) {
        shards_[target]->jobs_shed += 1;
        shards_[target]->shed_counter->Add(1);
        return std::nullopt;
      }
      // Accepted but parked: the drain in progress flushes these to the
      // session's post-migration shard in acceptance order.
      const GlobalJob gid{next_job_id_++, ++turns_submitted_[session]};
      parked_[target].push_back(ParkedJob{gid, std::move(request)});
      id = gid.job;
    } else {
      auto local = shards_[target]->loop->TrySubmit(request);
      if (!local.has_value() && is_new) {
        // A new session has no KV anywhere yet — it is the mobile capacity.
        // Existing sessions stay put: a shed turn beats a cold-start on a
        // foreign shard.
        if (const auto alt = LeastLoadedShardLocked(target); alt.has_value()) {
          local = shards_[*alt]->loop->TrySubmit(request);
          if (local.has_value()) {
            shards_[*alt]->jobs_overflowed_in += 1;
            shards_[*alt]->overflowed_counter->Add(1);
            target = *alt;
          }
        }
      }
      if (!local.has_value()) {
        shards_[target]->jobs_shed += 1;
        shards_[target]->shed_counter->Add(1);
        return std::nullopt;
      }
      const GlobalJob gid{next_job_id_++, ++turns_submitted_[session]};
      CA_TRACE_INSTANT("cluster.route", "session", session, "shard", target);
      pins_[session] = target;
      job_maps_[target].emplace(*local, gid);
      shards_[target]->jobs_routed += 1;
      shards_[target]->routed_counter->Add(1);
      id = gid.job;
    }
  }
  MaybeInlinePollHealth();
  return id;
}

void ShardRouter::WaitIdle() {
  for (const auto& shard : shards_) {
    shard->loop->WaitIdle();
  }
}

void ShardRouter::Shutdown() {
  if (joined_) {
    return;
  }
  joined_ = true;
  // No drain may be mid-flight while the loops go down (a drain flushes
  // parked jobs through Submit, which needs open intake).
  MutexLock drain_lock(drain_mutex_);
  {
    MutexLock lock(mutex_);
    accepting_ = false;
  }
  for (const auto& shard : shards_) {
    shard->loop->Shutdown();
  }
}

std::vector<ServeReply> ShardRouter::TakeReplies() {
  std::vector<ServeReply> out;
  MutexLock lock(mutex_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (ServeReply& reply : shards_[i]->loop->TakeReplies()) {
      const auto it = job_maps_[i].find(reply.job);
      CA_CHECK(it != job_maps_[i].end())
          << "shard " << i << " completed job " << reply.job << " the router never routed";
      reply.job = it->second.job;
      reply.turn_index = it->second.turn_index;
      job_maps_[i].erase(it);
      out.push_back(std::move(reply));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ServeReply& a, const ServeReply& b) { return a.job < b.job; });
  return out;
}

std::optional<ShardId> ShardRouter::MigrateSession(ShardId from, SessionId session) {
  CA_TRACE_SPAN("cluster.migrate", "session", session, "from", from);
  Shard& src = *shards_[from];
  if (options_.migration_fault_fn && options_.migration_fault_fn(session, from)) {
    CA_LOG(Warn) << "session " << session << ": injected migration fault";
    return std::nullopt;
  }
  auto snapshot = src.engine->ExportSession(session);
  if (!snapshot.ok()) {
    // LiveSessions listed it, the loop is idle and routing parks this
    // session's turns, so only a concurrent EndSession can race us here.
    CA_LOG(Warn) << "session " << session << " vanished mid-drain: " << snapshot.status();
    return std::nullopt;
  }
  ShardId target;
  {
    MutexLock lock(mutex_);
    target = ring_.ShardFor(session);  // the drained shard already left the ring
  }
  const Status imported = shards_[target]->engine->ImportSession(*std::move(snapshot));
  if (!imported.ok()) {
    // kAlreadyExists would mean the session lives on two shards — routing
    // violated its own invariant. Keep the source copy; the drain sweep
    // unpins the session so it restarts fresh via the ring.
    CA_LOG(Error) << "session " << session << " import into shard " << target
                  << " failed: " << imported;
    return std::nullopt;
  }
  src.loop->EndSession(session);
  MutexLock lock(mutex_);
  src.sessions_migrated_out += 1;
  src.migrated_out_counter->Add(1);
  shards_[target]->sessions_migrated_in += 1;
  shards_[target]->migrated_in_counter->Add(1);
  return target;
}

Status ShardRouter::DrainInternal(ShardId shard, ShardHealth terminal) {
  CA_TRACE_SPAN("cluster.drain", "shard", shard);
  const std::uint64_t start_ns = TraceNowNs();
  if (shard >= shards_.size()) {
    return InvalidArgumentError("unknown shard " + std::to_string(shard));
  }
  Shard& src = *shards_[shard];
  {
    MutexLock lock(mutex_);
    if (src.health != ShardHealth::kHealthy) {
      return FailedPreconditionError("shard " + std::to_string(shard) + " is " +
                                     std::string(ShardHealthName(src.health)));
    }
    if (HealthyCountLocked() < 2) {
      return FailedPreconditionError("shard " + std::to_string(shard) +
                                     " is the last healthy shard");
    }
    // From here on: new sessions stop hashing to this shard, and turns for
    // its pinned sessions are accepted but parked.
    src.health = ShardHealth::kDraining;
    ring_.RemoveShard(shard);
  }
  // Everything the shard already accepted finishes first (per-session FIFO:
  // a migrated session can never have a turn still in flight here when its
  // next turn starts on the target shard).
  src.loop->WaitIdle();
  // Export/import only — the re-pins are recorded here and applied below,
  // atomically with the park-flush. Re-pinning any earlier would let a turn
  // submitted after the re-pin reach the target shard while earlier turns
  // for the same session still sit parked (per-session order violation).
  std::vector<std::pair<SessionId, ShardId>> repins;
  for (const SessionId session : src.engine->LiveSessions()) {
    if (const auto target = MigrateSession(shard, session); target.has_value()) {
      repins.emplace_back(session, *target);
    }
  }
  // Retire the shard's loop for good (graceful: it is idle) and flush its
  // async saves before the engine goes quiet.
  src.loop->Shutdown();
  {
    // Terminal-state flip, re-pins, pin sweep and park-flush in ONE
    // critical section: a turn routed after the flip must see its session's
    // new pin, and a parked turn must reach the loop before it —
    // per-session submission order is the bitwise-identity contract.
    MutexLock lock(mutex_);
    src.health = terminal;
    for (const auto& [session, target] : repins) {
      pins_[session] = target;
    }
    // Sweep every pin still pointing at the retired shard (failed export or
    // import, EndSession raced the drain): left in place it would route the
    // session's next turn to a shut-down loop forever. Unpinned, the
    // session restarts fresh via the ring on its next turn.
    for (auto it = pins_.begin(); it != pins_.end();) {
      it = it->second == shard ? pins_.erase(it) : std::next(it);
    }
    std::vector<ParkedJob> parked = std::move(parked_[shard]);
    parked_[shard].clear();
    for (ParkedJob& job : parked) {
      const SessionId session = job.request.session;
      // Post-sweep a pin can only name a healthy shard, and the ring holds
      // only healthy shards — both routes are safe to submit to.
      const auto pin = pins_.find(session);
      const ShardId target = pin != pins_.end() ? pin->second : ring_.ShardFor(session);
      pins_[session] = target;
      SubmitToShardLocked(target, job.id, std::move(job.request));
    }
  }
  drain_seconds_hist_->Observe(static_cast<double>(TraceNowNs() - start_ns) * 1e-9);
  CA_LOG(Info) << "shard " << shard << " drained (" << ShardHealthName(terminal) << "): "
               << repins.size() << " session(s) migrated";
  return Status::Ok();
}

Status ShardRouter::DrainShard(ShardId shard) {
  MutexLock drain_lock(drain_mutex_);
  return DrainInternal(shard, ShardHealth::kDrained);
}

bool ShardRouter::ShardStoreDead(const Shard& shard) const {
  const StoreConfig& store = shard.engine->options().store;
  bool any_tier = false;
  const auto dead = [&](Tier tier, std::uint64_t capacity) {
    if (capacity == 0) {
      return true;  // never configured — does not count
    }
    any_tier = true;
    return shard.engine->StoreTierHealth(tier) == TierHealth::kQuarantined;
  };
  const bool all_dead = dead(Tier::kHbm, store.hbm_capacity) &
                        dead(Tier::kDram, store.dram_capacity) &
                        dead(Tier::kDisk, store.disk_capacity);
  return any_tier && all_dead;
}

std::size_t ShardRouter::PollHealth() {
  MutexLock drain_lock(drain_mutex_);
  std::size_t retired = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    {
      MutexLock lock(mutex_);
      if (shards_[i]->health != ShardHealth::kHealthy) {
        continue;
      }
    }
    if (!ShardStoreDead(*shards_[i])) {
      continue;
    }
    // PR 3's tier machine, one level up: a store with every tier
    // quarantined can never cache again — move the sessions somewhere that
    // can. They carry their histories; replies stay identical (recompute).
    CA_LOG(Warn) << "shard " << i << " store lost every tier; auto-draining";
    const Status drained = DrainInternal(static_cast<ShardId>(i), ShardHealth::kQuarantined);
    if (drained.ok()) {
      ++retired;
    } else {
      CA_LOG(Error) << "auto-drain of shard " << i << " failed: " << drained;
    }
  }
  return retired;
}

void ShardRouter::MaybeInlinePollHealth() {
  if (options_.health_poll_every == 0) {
    return;
  }
  {
    MutexLock lock(mutex_);
    if (++routed_since_poll_ < options_.health_poll_every) {
      return;
    }
    routed_since_poll_ = 0;
  }
  PollHealth();
}

void ShardRouter::EndSession(SessionId session) {
  // Serialized behind drain_mutex_ so a concurrent drain cannot migrate
  // the session mid-end and resurrect its pin from the re-pin list.
  MutexLock drain_lock(drain_mutex_);
  std::optional<ShardId> pinned;
  {
    MutexLock lock(mutex_);
    const auto pin = pins_.find(session);
    if (pin != pins_.end()) {
      pinned = pin->second;
      pins_.erase(pin);
    }
    turns_submitted_.erase(session);
  }
  if (pinned.has_value()) {
    // A shut-down loop still ends sessions, so this is safe even for a
    // shard that was drained after the session last ran on it.
    shards_[*pinned]->loop->EndSession(session);
  }
}

ShardId ShardRouter::ShardOf(SessionId session) const {
  MutexLock lock(mutex_);
  const auto pin = pins_.find(session);
  return pin != pins_.end() ? pin->second : ring_.ShardFor(session);
}

ShardStatus ShardRouter::shard_status(ShardId shard) const {
  CA_CHECK_LT(shard, shards_.size());
  MutexLock lock(mutex_);
  const Shard& s = *shards_[shard];
  ShardStatus status;
  status.health = s.health;
  status.queue_depth = s.loop->queue_depth();
  status.sessions_resident = s.engine->LiveSessions().size();
  status.jobs_routed = s.jobs_routed;
  status.jobs_shed = s.jobs_shed;
  status.jobs_overflowed_in = s.jobs_overflowed_in;
  status.sessions_migrated_out = s.sessions_migrated_out;
  status.sessions_migrated_in = s.sessions_migrated_in;
  return status;
}

void ShardRouter::PublishMetrics(MetricsRegistry* registry) const {
  for (const auto& shard : shards_) {
    shard->resident_gauge->Set(static_cast<double>(shard->engine->LiveSessions().size()));
    shard->depth_gauge->Set(static_cast<double>(shard->loop->queue_depth()));
    shard->engine->PublishMetrics(registry);
  }
}

}  // namespace ca
