// ShardRouter: sharded cluster serving (DESIGN.md §16).
//
// One router fronts N in-process shards, each a full serving stack —
// CachedAttentionEngine (own AttentionStore) + ServingLoop. Shards share no
// memory: every interaction goes through the request/reply structs of
// src/serve and the export/import records of src/store, so a shard can
// later move behind a transport without touching this layer's contracts.
//
//   Routing.   Sessions map to shards through a consistent-hash ring
//   (virtual nodes), and the first accepted turn pins the session to its
//   shard. Pins — not the ring — are authoritative afterwards: the paper's
//   economics (§4, Figure 1) come from KV locality across turns, so an
//   existing session never moves for load reasons. New sessions are the
//   mobile capacity: when the ring owner's queue is full, TrySubmit routes
//   a *new* session to the least-loaded shard and pins it there
//   (overflow); an *existing* session is shed instead — a shed turn beats
//   a cold-start on a foreign shard.
//
//   Migration / drain.  DrainShard removes the shard from the ring (new
//   sessions stop arriving), waits for its accepted jobs to finish, then
//   moves every live session to its new ring owner via the engine's
//   ExportSession/ImportSession (KV payload + token history). Turns
//   submitted for those sessions mid-drain are accepted and parked — the
//   pins keep pointing at the draining shard for the whole drain, so no
//   turn can reach the new owner early. The re-pins to the migration
//   targets, a sweep of every pin the migration could not move, and the
//   park-flush (in submission order) all land in the one critical section
//   that retires the shard, so a drain under live traffic loses nothing,
//   per-session submission order holds end-to-end, and replies stay
//   bitwise-identical (a session whose KV could not travel recomputes from
//   its migrated history, which yields the same replies by the engine's
//   determinism contract; a session whose migration failed outright is
//   unpinned and restarts fresh via the ring — served, never wedged).
//
//   Whole-shard failure.  PR 3's tier-health machine extends to the shard
//   level: a shard whose store has every configured tier quarantined can
//   no longer cache anything — PollHealth (called inline every
//   health_poll_every routed jobs) auto-drains it, marking it
//   kQuarantined. Sessions resume elsewhere from their histories.
//
// Thread safety: Submit/TrySubmit/TakeReplies/DrainShard/PollHealth may be
// called from any thread. Lock order is cluster.Drain → cluster.Router →
// serve.ServingLoop → core.Engine; the router mutex is held across the
// loop submission so drain's park-then-flush window is race-free.
#ifndef CA_CLUSTER_SHARD_ROUTER_H_
#define CA_CLUSTER_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/cluster/hash_ring.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/core/cached_attention.h"
#include "src/obs/metrics.h"
#include "src/serve/serving_loop.h"

namespace ca {

// Shard lifecycle: healthy shards serve; a draining shard is mid-handoff
// (its sessions are being exported); drained/quarantined shards are out of
// the ring for good — kDrained by operator intent, kQuarantined because the
// shard's store lost every tier.
enum class ShardHealth : std::uint8_t { kHealthy, kDraining, kDrained, kQuarantined };

std::string_view ShardHealthName(ShardHealth health);

struct ClusterOptions {
  std::size_t num_shards = 4;
  // Applied to every shard's ServingLoop (max_queue_depth is the per-shard
  // backpressure that feeds router-level overflow/shedding).
  ServerOptions server;
  // Base engine options for every shard. Durable stores are rejected
  // (CHECK): per-shard journal paths need explicit operator layout. A
  // non-empty disk_path is suffixed ".shard<i>" so shards never collide on
  // one backing file.
  EngineOptions engine;
  // Per-shard override hook (heterogeneous fleets, per-shard fault
  // injection in tests). Null = every shard uses `engine`.
  std::function<EngineOptions(std::size_t shard)> engine_options_fn;
  // Test-only fault injection on the migration path: return true to make
  // the drain's move of `session` off `from` fail. The drain then sweeps
  // the session's pin and it restarts fresh via the ring (clean-miss
  // recompute). Null = no injected faults.
  std::function<bool(SessionId session, ShardId from)> migration_fault_fn;
  // Run PollHealth inline every N routed jobs (0 disables the inline poll;
  // PollHealth stays callable explicitly).
  std::size_t health_poll_every = 64;
};

// Point-in-time view of one shard (introspection + the cluster_demo report).
struct ShardStatus {
  ShardHealth health = ShardHealth::kHealthy;
  std::size_t queue_depth = 0;
  std::size_t sessions_resident = 0;
  std::uint64_t jobs_routed = 0;
  std::uint64_t jobs_shed = 0;
  std::uint64_t jobs_overflowed_in = 0;   // new sessions overflow-placed here
  std::uint64_t sessions_migrated_out = 0;
  std::uint64_t sessions_migrated_in = 0;
};

class ShardRouter {
 public:
  // `model` must outlive the router. All shards (engines + loops) start
  // immediately.
  ShardRouter(const Transformer* model, ClusterOptions options);
  ~ShardRouter();  // implies Shutdown()

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  const ClusterOptions& options() const { return options_; }
  std::size_t shard_count() const { return shards_.size(); }

  // Enqueues one turn on the session's shard; always accepted while the
  // router is up (CA_CHECKs on empty input / Submit-after-Shutdown, like
  // ServingLoop::Submit). Returns a router-global JobId; replies come back
  // through TakeReplies in this id order.
  JobId Submit(ServeRequest request) CA_EXCLUDES(mutex_);

  // Backpressure intake: nullopt when the router is shut down, the input
  // is empty, or the target shard's queue is full and overflow could not
  // place the request (see the routing policy above). While the target
  // shard drains, parked intake counts against the same max_queue_depth
  // cap — a long drain under pressure sheds here instead of accumulating
  // unbounded parked work (Submit stays unconditional).
  std::optional<JobId> TrySubmit(ServeRequest request) CA_EXCLUDES(mutex_);

  // Blocks until every routed job has been served. Quiescent-point API like
  // ServingLoop::WaitIdle; must not run concurrently with DrainShard (a
  // drain parks accepted jobs that no loop has seen yet).
  void WaitIdle();

  // Drains every shard and joins. Idempotent; called by the destructor.
  void Shutdown();

  // Completed turns in global JobId (= acceptance) order; clears the
  // internal buffers. Call at a quiescent point (after WaitIdle/Shutdown).
  std::vector<ServeReply> TakeReplies() CA_EXCLUDES(mutex_);

  // Moves every live session off `shard` (protocol in the file header) and
  // retires it as kDrained. Fails with kInvalidArgument for an unknown
  // shard, kFailedPrecondition when the shard is not healthy or is the last
  // healthy shard. Serialized against itself and PollHealth.
  Status DrainShard(ShardId shard) CA_EXCLUDES(drain_mutex_);

  // Whole-shard failure sweep: auto-drains (as kQuarantined) every healthy
  // shard whose store has all configured tiers quarantined. Returns the
  // number of shards retired.
  std::size_t PollHealth() CA_EXCLUDES(drain_mutex_);

  // Ends a session fleet-wide: ends it in its pinned shard's loop
  // (ServingLoop::EndSession: the loop's turn counter and the engine state)
  // and erases the router's pin and turn counter, so a long-running router
  // does not grow an entry per session ever seen. The next turn for the
  // same id starts a fresh session (turn_index 1) placed by the ring.
  // Per-session quiescent API like CachedAttentionEngine::EndSession: must
  // not race with in-flight or parked turns for the same session (it is
  // serialized against drains internally). No-op for sessions the router
  // has never accepted.
  void EndSession(SessionId session) CA_EXCLUDES(drain_mutex_, mutex_);

  // Current placement for a session: its pin, or the ring owner it would
  // get if it arrived now.
  ShardId ShardOf(SessionId session) const CA_EXCLUDES(mutex_);

  ShardStatus shard_status(ShardId shard) const CA_EXCLUDES(mutex_);

  // Quiescent introspection (tests, demo reporting): the shard's engine.
  // Same contract as CachedAttentionEngine::store().
  const CachedAttentionEngine& shard_engine(ShardId shard) const {
    return *shards_[shard]->engine;
  }

  // Republishes per-shard gauges ("cluster.sessions_resident{shard=i}",
  // queue depths) and each shard's engine/store stats. Quiescent-point API.
  void PublishMetrics(MetricsRegistry* registry = nullptr) const;

 private:
  struct Shard {
    std::unique_ptr<CachedAttentionEngine> engine;
    std::unique_ptr<ServingLoop> loop;
    // Mutable shard state below is guarded by the router mutex (annotation
    // lives on ShardRouter; this struct is private to it).
    ShardHealth health = ShardHealth::kHealthy;
    std::uint64_t jobs_routed = 0;
    std::uint64_t jobs_shed = 0;
    std::uint64_t jobs_overflowed_in = 0;
    std::uint64_t sessions_migrated_out = 0;
    std::uint64_t sessions_migrated_in = 0;
    // Cached registry handles (labels: {"shard", "<i>"}).
    Counter* routed_counter = nullptr;
    Counter* shed_counter = nullptr;
    Counter* overflowed_counter = nullptr;
    Counter* migrated_out_counter = nullptr;
    Counter* migrated_in_counter = nullptr;
    Gauge* resident_gauge = nullptr;
    Gauge* depth_gauge = nullptr;
  };

  // Router-global identity of one accepted turn.
  struct GlobalJob {
    JobId job = 0;
    std::uint32_t turn_index = 0;
  };
  // A turn accepted while its session's shard was draining: parked until
  // the drain re-pins the session, then flushed in acceptance order.
  struct ParkedJob {
    GlobalJob id;
    ServeRequest request;
  };

  // Routing core shared by Submit/TrySubmit/park-flush: sends `request` to
  // `shard`'s loop under the router mutex and records the id mapping.
  void SubmitToShardLocked(ShardId shard, GlobalJob id, ServeRequest request)
      CA_REQUIRES(mutex_);
  // Healthy shard with the shortest queue, excluding `exclude`; nullopt if
  // none exists.
  std::optional<ShardId> LeastLoadedShardLocked(ShardId exclude) const CA_REQUIRES(mutex_);
  std::size_t HealthyCountLocked() const CA_REQUIRES(mutex_);
  // Drain body; terminal is kDrained (operator) or kQuarantined (health).
  Status DrainInternal(ShardId shard, ShardHealth terminal) CA_REQUIRES(drain_mutex_)
      CA_EXCLUDES(mutex_);
  // Moves one session from `from` to its new ring owner; returns the
  // target on success, nullopt on failure. Deliberately does NOT touch
  // pins_ — the caller (DrainInternal) applies every re-pin inside the
  // same critical section that flushes the parked turns, otherwise a turn
  // submitted after the re-pin would overtake this session's parked turns.
  std::optional<ShardId> MigrateSession(ShardId from, SessionId session)
      CA_EXCLUDES(mutex_);
  // True when every configured store tier of the shard is quarantined.
  bool ShardStoreDead(const Shard& shard) const;
  void MaybeInlinePollHealth() CA_EXCLUDES(mutex_);

  const Transformer* model_;  // unguarded: set in ctor, immutable after
  ClusterOptions options_;    // unguarded: set in ctor, immutable after

  // Serializes drains (operator DrainShard, PollHealth auto-drain) against
  // each other; never held by the submission path. Ordered before mutex_.
  mutable Mutex drain_mutex_{"cluster.Drain"};
  mutable Mutex mutex_{"cluster.Router"};
  // The vector itself is fixed at construction (stable Shard addresses);
  // mutable Shard fields follow the router mutex, see Shard above.
  // unguarded: container immutable after ctor.
  std::vector<std::unique_ptr<Shard>> shards_;
  ConsistentHashRing ring_ CA_GUARDED_BY(mutex_);
  // Authoritative session placement once a session has been accepted.
  // Entries die with the session (EndSession) or with their shard (the
  // drain sweep); a pin never outlives the shard it points at.
  std::unordered_map<SessionId, ShardId> pins_ CA_GUARDED_BY(mutex_);
  std::unordered_map<SessionId, std::uint32_t> turns_submitted_ CA_GUARDED_BY(mutex_);
  // Per shard: loop-local JobId -> router-global identity, consumed by
  // TakeReplies.
  std::vector<std::unordered_map<JobId, GlobalJob>> job_maps_ CA_GUARDED_BY(mutex_);
  std::vector<std::vector<ParkedJob>> parked_ CA_GUARDED_BY(mutex_);
  JobId next_job_id_ CA_GUARDED_BY(mutex_) = 1;
  bool accepting_ CA_GUARDED_BY(mutex_) = true;
  std::uint64_t routed_since_poll_ CA_GUARDED_BY(mutex_) = 0;
  bool joined_ = false;  // unguarded: Shutdown idempotence, main thread only

  HistogramMetric* drain_seconds_hist_;  // unguarded: set in ctor, immutable after
};

}  // namespace ca

#endif  // CA_CLUSTER_SHARD_ROUTER_H_
