// CachedAttentionEngine: the paper's attention mechanism on the real
// (CPU) execution path.
//
// A conversation session is served turn by turn. At each turn the engine
//   1. applies context-window management (§3.4): on overflow it truncates
//      the loaded KV cache directly, which decoupled positional encoding
//      keeps valid;
//   2. looks the session's KV cache up in AttentionStore and, on a hit,
//      prefills only the new tokens (CachedAttention). On a miss with prefix
//      sharing on, it loads the longest run of shared chunks that prefixes
//      history + input and prefills only the rest (DESIGN.md §17); in
//      recompute mode, or when no chunk matches, it prefills the whole
//      history and input;
//   3. decodes a reply, then saves the session's KV cache back to
//      AttentionStore (inline or on the asynchronous write stream).
//
// The recompute baseline (RE) is `reuse_kv = false`. The other baselines of
// §4.3.4–§4.3.5 are measured outside the engine: token truncation (TT) and
// naive KV truncation of a coupled-PE cache (NKVT) on the model by
// bench/tab01_ppl_fidelity, bench/tab02_truncation_accuracy and
// examples/truncation_lab, overflow invalidation (OF) in the simulator by
// bench/fig22_context_overflow, and token-discarding-list compression by
// bench/ablation_kv_compression.
#ifndef CA_CORE_CACHED_ATTENTION_H_
#define CA_CORE_CACHED_ATTENTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/model/kv_cache.h"
#include "src/model/transformer.h"
#include "src/obs/metrics.h"
#include "src/store/attention_store.h"

namespace ca {

struct EngineOptions {
  // Reuse KV caches across turns (CachedAttention). False = recompute (RE).
  bool reuse_kv = true;
  // AttentionStore configuration; real_payloads is forced on.
  StoreConfig store;
  // Save KV caches on a background write stream (§3.2.2's async saving).
  bool async_save = false;
};

// Per-turn outcome and accounting.
struct TurnResult {
  std::vector<TokenId> reply;
  std::uint64_t prompt_tokens = 0;    // history + new input
  std::uint64_t computed_tokens = 0;  // prompt tokens actually prefilled
  std::uint64_t reused_tokens = 0;    // prompt tokens served from the cache
  bool cache_hit = false;
  Tier hit_tier = Tier::kNone;
  bool truncated = false;
  // A saved KV cache failed to load (I/O fault, corruption, poisoned
  // payload) and the turn degraded to a full recompute (DESIGN.md §10).
  bool cache_load_fault = false;
  // Wall time from the start of the turn in the engine to the logits of its
  // last input token: KV lookup, the load or prefix read, any history
  // recompute, and the input prefill. It leaves out queue wait and the
  // first decoded token, so it is not a time to first token.
  double prefill_seconds = 0.0;
};

// Cumulative engine statistics.
struct EngineStats {
  std::uint64_t turns = 0;
  std::uint64_t prompt_tokens = 0;
  std::uint64_t computed_tokens = 0;
  std::uint64_t reused_tokens = 0;
  std::uint64_t truncations = 0;
  // Store faults degraded to a recompute (DESIGN.md §10): a saved KV cache
  // failed to load back (I/O error, corruption, poisoned payload) and the
  // turn fell through to a full prefill instead of erroring out.
  std::uint64_t cache_load_faults = 0;
  double prefill_seconds = 0.0;

  double reuse_fraction() const {
    return prompt_tokens == 0
               ? 0.0
               : static_cast<double>(reused_tokens) / static_cast<double>(prompt_tokens);
  }
};

// A serialized session for shard migration (DESIGN.md §16): the visible
// token history plus — when the KV payload was exportable — the store
// record. A snapshot without a record imports as history-only: the target
// engine recomputes the KV on the session's next turn (the same degradation
// path as a cache-load fault, so replies stay bitwise-identical) instead of
// failing the migration.
struct SessionSnapshot {
  SessionId session = kInvalidSession;
  std::vector<TokenId> history;
  std::optional<ExportedRecord> record;
  // Whether the snapshotted KV rows are the pure prefill of `history`
  // (DESIGN.md §17). Impure (KV-truncated) caches must never enter the
  // cross-session prefix index on the importing shard.
  bool kv_pure = true;
};

class CachedAttentionEngine {
 private:
  // Passkey for the store-injecting constructor below: the constructor is
  // public so make_unique can reach it, but only class members can mint the
  // tag — construction with a caller-built store stays behind Create().
  struct StoreTag {
    explicit StoreTag() = default;
  };

 public:
  // `model` must outlive the engine.
  //
  // This constructor serves ephemeral stores only; it CHECK-fails when
  // `options.store.durable` is set (a durable open can fail, so it needs
  // the fallible factory below).
  CachedAttentionEngine(const Transformer* model, EngineOptions options);

  // Fallible construction path. For ephemeral stores this is equivalent to
  // the constructor; for durable stores (options.store.durable) it opens —
  // and, after an unclean death, recovers — the on-disk tier, then rebuilds
  // the per-session token histories from the user-meta blobs the engine
  // persists alongside each KV payload. Recovered sessions resume exactly
  // where they left off (bitwise-identical replies under greedy decode);
  // sessions whose metadata or payload did not survive are clean misses.
  // Fails (kFailedPrecondition / kInvalidArgument / kIoError) when the
  // durable open cannot be satisfied — see AttentionStore::Open.
  static Result<std::unique_ptr<CachedAttentionEngine>> Create(const Transformer* model,
                                                               EngineOptions options);

  // Store-injecting constructor backing both the public constructor and
  // Create(); the StoreTag passkey keeps it out of public reach.
  CachedAttentionEngine(StoreTag, const Transformer* model, EngineOptions options,
                        AttentionStore store);

  ~CachedAttentionEngine();

  CachedAttentionEngine(const CachedAttentionEngine&) = delete;
  CachedAttentionEngine& operator=(const CachedAttentionEngine&) = delete;

  const Transformer& model() const { return *model_; }
  const EngineOptions& options() const { return options_; }
  // Point-in-time snapshot of the cumulative stats. Safe to call from any
  // thread, including while other threads are inside Converse
  // (accumulation happens under the engine mutex — see the stats_ contract
  // note below).
  EngineStats stats() const CA_EXCLUDES(mutex_);
  // Quiescent introspection only: callers must Flush() first and must not
  // race with Converse, since the returned reference bypasses
  // the engine mutex that guards the store during serving.
  const AttentionStore& store() const CA_NO_THREAD_SAFETY_ANALYSIS { return store_; }

  // Serves one conversation turn: appends `user_tokens`, decodes up to
  // `max_reply_tokens` greedily, persists the KV cache for the next turn.
  //
  // Concurrency contract: any number of threads may call Converse
  // concurrently as long as no two of them serve the *same* session at the
  // same time — per-session state is mutated lock-free by the serving
  // thread, while everything cross-session (store, pending saves, hints,
  // cumulative stats) is guarded by the engine mutex. The serving runtime
  // (src/serve) enforces the per-session exclusivity.
  Result<TurnResult> Converse(SessionId session, std::span<const TokenId> user_tokens,
                              std::size_t max_reply_tokens);

  // Applications that maintain a job queue can feed it here so the
  // scheduler-aware policy and prefetcher see future accesses.
  void SetQueueHint(std::vector<SessionId> upcoming) CA_EXCLUDES(mutex_);

  // Scheduler-aware pre-loading (§3.3.1): plans a prefetch window over
  // `upcoming` (head first) and promotes the planned disk-resident KV
  // caches into DRAM. Safe to call from a background thread while another
  // thread serves turns — the engine mutex is held for the store mutations,
  // which the compute phase of Converse never holds, so the
  // promotion I/O genuinely overlaps computation (the overlap the
  // "preload" trace spans make visible). Returns promoted-session count.
  std::size_t PrefetchSessions(std::span<const SessionId> upcoming) CA_EXCLUDES(mutex_);

  // Waits for all asynchronous saves to land.
  void Flush();

  // Current full token history of a session (post-truncation).
  std::vector<TokenId> SessionHistory(SessionId session) const CA_EXCLUDES(mutex_);

  // Sessions with live engine state, in unspecified order.
  std::vector<SessionId> LiveSessions() const CA_EXCLUDES(mutex_);

  // --- Migration (DESIGN.md §16) ----------------------------------------
  // Must not race with a turn for the same session; the shard router's
  // drain protocol (WaitIdle before export, re-pin before new submissions)
  // enforces that, mirroring the serving runtime's per-session exclusivity.

  // Serializes a session for migration to another engine: waits for its
  // pending async save, then snapshots the token history together with the
  // exported store record. A session whose KV payload cannot be read
  // exports history-only (the importer recomputes); kNotFound for unknown
  // sessions. The session stays live here until EndSession.
  Result<SessionSnapshot> ExportSession(SessionId session) CA_EXCLUDES(mutex_);

  // Installs a migrated session. kAlreadyExists if the session is already
  // live here (a session lives on exactly one shard). A snapshot whose
  // record fails to import (target store full, faulted, corrupt in
  // transit) still installs the history — the next turn recomputes.
  Status ImportSession(SessionSnapshot snapshot) CA_EXCLUDES(mutex_);

  // Thread-safe view of the underlying store's tier health (the shard
  // router's whole-shard failure detection polls this).
  TierHealth StoreTierHealth(Tier tier) const CA_EXCLUDES(mutex_);

  // Drops a session's state (and stored KV).
  void EndSession(SessionId session) CA_EXCLUDES(mutex_);

  // Republishes the cumulative EngineStats and the store's StoreStats into
  // the metrics registry as "engine_stats.*" / "store_stats.*" gauges
  // (DESIGN.md §11). Call from a quiescent point (e.g. after Flush); the
  // hot-path counters ("engine.turns", "store.hits{tier=...}") are
  // maintained live and need no republishing.
  void PublishMetrics(MetricsRegistry* registry = nullptr) const CA_EXCLUDES(mutex_);

 private:
  struct SessionState {
    std::vector<TokenId> history;  // token text, already truncation-clamped
    // True while the session's KV rows equal a from-scratch prefill of
    // `history`. KV truncation drops front rows whose context the
    // survivors already attended over, leaving rows that a fresh prefill
    // of the visible history would not reproduce, so such caches are
    // excluded from cross-session prefix sharing (they would poison the
    // dedup index for sessions with genuinely identical prefixes). A full
    // recompute restores purity.
    bool kv_pure = true;
  };

  // Rebuilds sessions_ from the recovered store's user-meta blobs (token
  // histories saved by SaveCache in durable mode). Records whose blob is
  // missing or inconsistent with the record's token count are removed from
  // the store — a recompute miss, never a wrong answer.
  Status RestoreSessions() CA_EXCLUDES(mutex_);

  // Prepares the KV cache for a turn over `input`: handles overflow, then
  // loads the session's own record or, on a miss, reads the longest shared
  // prefix of history + input from the store and prefills the rest of the
  // history. On return `cache` holds the history plus the returned number
  // of leading input tokens; `result` has hit, truncation and token
  // accounting filled in.
  Result<std::size_t> PrepareCache(SessionId session, SessionState& state,
                                   std::span<const TokenId> input, KvCache& cache,
                                   TurnResult& result) CA_EXCLUDES(mutex_);

  // The one KV load (DESIGN.md §10, §17), behind an own-record hit and a
  // prefix read alike: `read` runs under the engine mutex and streams a
  // payload into the sink it opens. Returns the loaded cache, or nullopt
  // when `read` opened nothing (a plain miss) or on a fault. A fault — a
  // failed read or a payload that does not deserialize — sets
  // result.cache_load_fault and degrades to a miss; an undeserializable
  // payload also drops the session's record.
  std::optional<KvCache> LoadCache(SessionId session,
                                   const std::function<Status(ChunkedPayloadSink&)>& read,
                                   TurnResult& result) CA_EXCLUDES(mutex_);

  // Accumulates a turn's counters into stats_ and the live registry
  // handles. Locks the engine mutex: turns finishing on different worker
  // threads serialize their accounting here.
  void AccumulateTurnStats(const TurnResult& result) CA_EXCLUDES(mutex_);

  // Persists the turn's KV cache. `state.history` is the session's full
  // visible token text, already aligned with the cache (history.size() ==
  // cache.seq_len()). Durable stores persist it as the record's user-meta
  // blob so Create() can rebuild the session after a restart; ephemeral
  // stores ignore it. A pure cache (state.kv_pure) also hands the store its
  // history as dedup tokens, so identical prefixes dedup across sessions
  // when the store shares prefixes; an impure one is stored whole as the
  // session's own piece. The cache is serialized once, outside the engine
  // mutex; the Put runs inline, or on the write stream when async_save.
  void SaveCache(SessionId session, const KvCache& cache, const SessionState& state)
      CA_EXCLUDES(mutex_);
  void WaitForPendingSave(SessionId session) CA_EXCLUDES(mutex_);
  SchedulerHints CurrentHintsLocked() const CA_REQUIRES(mutex_);

  const Transformer* model_;  // unguarded: set in ctor, immutable after
  EngineOptions options_;     // unguarded: set in ctor, immutable after

  // mutex_ serializes everything the asynchronous write stream shares with
  // the serving thread: the store, the pending-save set and the scheduler
  // hints. The sessions_ *map* is also guarded (insert/erase/lookup race
  // with SessionHistory); the per-session state a lookup returns is only
  // ever mutated by the thread serving that session's turn.
  mutable Mutex mutex_{"core.Engine"};
  CondVar save_done_;
  AttentionStore store_ CA_GUARDED_BY(mutex_);
  std::unordered_map<SessionId, SessionState> sessions_ CA_GUARDED_BY(mutex_);
  std::unordered_set<SessionId> pending_saves_ CA_GUARDED_BY(mutex_);
  std::vector<SessionId> queue_hint_ CA_GUARDED_BY(mutex_);
  // Non-null iff async_save; created in ctor, reset only in the dtor
  // after the stream drains.
  // unguarded: lifecycle above — never reassigned while workers run.
  std::unique_ptr<ThreadPool> write_stream_;

  // Turn accounting. Contract change (serving-runtime PR): Converse may run
  // on many worker threads concurrently, so accumulation happens under
  // mutex_ via AccumulateTurnStats and readers get a snapshot through
  // stats(). The old "written only by the serving thread" assumption was a
  // data race the header merely asserted away.
  EngineStats stats_ CA_GUARDED_BY(mutex_);

  // Live metrics handles (global registry; cached here because registration
  // is a map lookup — DESIGN.md §11).
  Counter* turns_counter_;                 // unguarded: set in ctor, immutable after
  Counter* load_fault_counter_;            // unguarded: set in ctor, immutable after
  HistogramMetric* prefill_seconds_hist_;  // unguarded: set in ctor, immutable after
};

}  // namespace ca

#endif  // CA_CORE_CACHED_ATTENTION_H_
