// AttentionStore: the hierarchical KV caching system of the paper (§3.3).
//
// Records are kept at *session granularity* ("one item corresponds to all KV
// caches associated with a conversation session, which is the minimal
// eviction and fetching granularity"). Three tiers — HBM (usually disabled;
// enabled only to reproduce the HBM-only baseline of §4.3.7), DRAM and disk
// — each a block-granular pool. Placement prefers the fastest enabled tier;
// making room demotes victims down the hierarchy (chosen by the configured
// EvictionPolicy, consulting scheduler hints) and finally evicts records out
// of the system.
//
// The store moves *metadata* instantaneously; actual byte movement is either
// performed eagerly through the attached BlockStorages (real-execution mode)
// or modelled by the discrete-event simulator, which charges transfer time
// before invoking the corresponding store mutation.
#ifndef CA_STORE_ATTENTION_STORE_H_
#define CA_STORE_ATTENTION_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/store/block_storage.h"
#include "src/store/eviction_policy.h"
#include "src/store/fault_injection.h"
#include "src/store/meta_store.h"
#include "src/store/types.h"

namespace ca {

struct StoreConfig {
  // Tier capacities. Zero disables a tier. Paper default: no HBM cache tier,
  // 128 GiB DRAM, 10 TiB disk.
  std::uint64_t hbm_capacity = 0;
  std::uint64_t dram_capacity = GiB(128);
  std::uint64_t disk_capacity = TiB(10);

  // Block size of the internal storage allocator.
  std::uint64_t block_bytes = MiB(4);

  // DRAM free-space buffer kept available for seamless disk→DRAM fetching
  // (§3.3.1). When free DRAM drops below this, MaintainDramBuffer demotes
  // records until the buffer is restored.
  std::uint64_t dram_buffer = 0;

  // Time-to-live since last access (§4.3.6). Zero disables expiration.
  SimTime ttl = 0;

  // Eviction policy: "scheduler-aware" (CachedAttention), "lru" or "fifo".
  std::string eviction_policy = "scheduler-aware";

  // When true, tiers get real payload storage (DRAM/HBM in memory, disk in
  // a backing file under disk_path) and the payload Put/ReadPayload move
  // actual bytes; otherwise only the capacity-only Put is available.
  // An empty disk_path expands to a process-unique temp path
  // (/tmp/ca_attention_store.<pid>.<seq>.blocks) so concurrent processes —
  // e.g. parallel ctest shards — never collide on one backing file; the
  // resolved path is visible through AttentionStore::config().
  bool real_payloads = false;
  std::string disk_path;

  // When true, CheckInvariants() runs after every mutating operation, so
  // accounting drift aborts at the mutation that introduced it instead of
  // corrupting cached attention states silently. Meant for tests and
  // debugging; each audit is O(records).
  bool audit = false;

  // --- fault tolerance (DESIGN.md §10) --------------------------------

  // Bounded retry for transient (kUnavailable) tier I/O errors. Each failed
  // attempt sleeps io_retry_backoff_us, doubling per retry; permanent
  // errors (kIoError/kInternal/kDataLoss) are never retried.
  std::uint32_t io_retries = 3;
  std::uint64_t io_retry_backoff_us = 50;

  // Consecutive *permanent* I/O failures after which a tier is quarantined:
  // it leaves placement, its records are dropped (future misses), and the
  // store keeps serving from the remaining tiers.
  std::uint32_t quarantine_after = 3;

  // Per-tier fault injection (tests and the store hammer). Only meaningful
  // with real_payloads; an all-zero config injects nothing.
  FaultConfig hbm_fault;
  FaultConfig dram_fault;
  FaultConfig disk_fault;

  // --- I/O path tuning (DESIGN.md §14) --------------------------------

  // Per-extent payload checksums (chunked parallel hash, computed while the
  // bytes stream through the write path). Off skips both the write-side
  // stamp and the read-side verification — benchmark axis, not for prod.
  bool verify_checksums = true;

  // Disk-tier submission strategy and O_DIRECT staging (real_payloads only).
  DiskIoMode disk_io_mode = DiskIoMode::kAuto;
  bool disk_direct_io = false;

  // --- durability (DESIGN.md §15) -------------------------------------

  // Journaled metadata + persistent disk tier: AttentionStore::Open() can
  // rebuild the warm disk tier after an unclean process death. Requires
  // real_payloads and an explicit, stable disk_path (the auto-unique
  // default cannot be re-found after a restart). Durable stores are
  // constructed through AttentionStore::Open, never the constructor.
  bool durable = false;

  // Journal fsync policy. The in-process kill-restart tests pass under
  // kNone (the page cache survives the simulated SIGKILL); power-loss
  // durability needs kEveryN/kAlways.
  MetaFsyncPolicy meta_fsync = MetaFsyncPolicy::kNone;
  std::uint32_t meta_fsync_every_n = 64;

  // Journal size that triggers compaction into a fresh snapshot.
  std::uint64_t meta_compact_threshold = MiB(1);

  // Verify every recovered record's payload checksum during Open (one full
  // read of the warm tier). Off, verification happens lazily on first read,
  // which catches the same corruption one access later.
  bool recover_verify_payloads = false;

  // Crash schedules (tests): the journal's fault points, plus the payload
  // device's fail-after-N block-write schedule (shares meta_fault.crash).
  MetaFaultConfig meta_fault;
  std::uint64_t disk_crash_after_block_writes = 0;

  // --- cross-session prefix sharing (DESIGN.md §17) --------------------

  // When true, a payload Put that carries its token history is split at
  // token-chunk boundaries and deduplicated across sessions through a
  // prefix index of refcounted shared chunk records; the session's record
  // keeps a block table plus its own tail. Requires real_payloads.
  bool share_prefixes = false;

  // Tokens per shared chunk. Smaller chunks dedup finer but cost more
  // index probes and per-chunk extents.
  std::uint32_t share_chunk_tokens = 64;

  // Bugfix knob (durable mode): journal a coarse last_access checkpoint
  // every Nth Access of a record so post-recovery LRU order reflects real
  // recency instead of being arbitrary. 0 disables access journaling.
  std::uint32_t access_journal_every_n = 16;
};

// Public view of one record.
struct KvRecordInfo {
  SessionId session = kInvalidSession;
  Tier tier = Tier::kNone;
  std::uint64_t bytes = 0;        // bytes stored in the session's own record
  std::uint64_t token_count = 0;  // full logical token count
  SimTime last_access = 0;
  // Full logical payload size: shared-chunk bytes + the record's own bytes.
  // Equals `bytes` for a private record (an empty block table).
  std::uint64_t payload_bytes = 0;
};

// Random-access payload source of the store's Put (DESIGN.md §17): a
// payload is total_tokens() tokens of bytes_per_token() bytes each, and the
// store pulls byte ranges aligned to token boundaries — skipping ranges
// entirely when the prefix index already holds their chunk, so a dedup hit
// costs an index probe instead of serialization + I/O. Range() returns a
// cursor valid until the next Range() call; the store may Reset and replay
// it (write-retry loop).
class ChunkedPayloadSource {
 public:
  virtual ~ChunkedPayloadSource() = default;
  virtual std::uint64_t total_tokens() const = 0;
  virtual std::uint64_t bytes_per_token() const = 0;
  virtual PayloadSource& Range(std::uint64_t token_begin, std::uint64_t token_end) = 0;
};

// ChunkedPayloadSource over a contiguous buffer (async saves, migration
// imports, tests, benches). Opaque bytes of any size are one token of
// bytes.size() bytes.
class SpanChunkSource final : public ChunkedPayloadSource {
 public:
  SpanChunkSource(std::span<const std::uint8_t> bytes, std::uint64_t bytes_per_token)
      : bytes_(bytes), bytes_per_token_(bytes_per_token), range_(bytes) {
    CA_CHECK(bytes_per_token > 0 && bytes.size() % bytes_per_token == 0)
        << bytes.size() << " bytes do not split into tokens of " << bytes_per_token;
  }

  std::uint64_t total_tokens() const override { return bytes_.size() / bytes_per_token_; }
  std::uint64_t bytes_per_token() const override { return bytes_per_token_; }
  PayloadSource& Range(std::uint64_t token_begin, std::uint64_t token_end) override {
    range_ = SpanSource(bytes_.subspan(token_begin * bytes_per_token_,
                                       (token_end - token_begin) * bytes_per_token_));
    return range_;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::uint64_t bytes_per_token_ = 0;
  SpanSource range_;
};

// A self-contained, transport-ready snapshot of one record for cross-store
// migration (AnyCache's ExportBlock/ImportBlock idiom; DESIGN.md §16): the
// verified payload bytes, the caller's user-meta blob, and enough metadata
// for the importing store to re-verify and re-place the record. The struct
// deliberately references nothing inside either store, so it can later be
// serialized onto a wire unchanged.
struct ExportedRecord {
  SessionId session = kInvalidSession;
  std::uint64_t bytes = 0;        // logical payload size (== payload.size() in real mode)
  std::uint64_t token_count = 0;
  std::uint64_t checksum = 0;     // Checksum64 of payload; 0 when checksums are off
  SimTime last_access = 0;
  // Empty on capacity-only stores. A session with shared chunks exports its
  // materialized full payload (chunks + own bytes); the importer stores it
  // as a private record.
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> user_meta;  // opaque caller blob (serialized token history)
};

class AttentionStore {
 public:
  // Direct construction is for non-durable configs only (aborts otherwise):
  // a durable open can fail (journal/payload mismatch) and must be able to
  // report it, which a constructor cannot.
  explicit AttentionStore(StoreConfig config);

  // Fallible factory. Non-durable configs behave exactly like the
  // constructor. Durable configs open (or create) the journal and payload
  // files under disk_path, replay the journal, reconcile every recovered
  // record against the on-disk extents, and serve the survivors as disk
  // hits (DESIGN.md §15). Fails with kInvalidArgument on an unusable
  // durable config, kFailedPrecondition when journal and payload disagree
  // (version, block size, store id), kIoError when the files are unusable.
  static Result<AttentionStore> Open(StoreConfig config);

  const StoreConfig& config() const { return config_; }
  const StoreStats& stats() const { return stats_; }
  void ResetStats() { stats_ = StoreStats{}; }
  std::string_view policy_name() const { return policy_->name(); }

  // --- Lookup ---------------------------------------------------------------

  // Tier currently holding the session's KV (kNone if absent). Does not
  // count towards hit statistics.
  Tier Lookup(SessionId session) const;

  std::optional<KvRecordInfo> GetInfo(SessionId session) const;

  // Inference-time access: counts one lookup, a hit in the record's tier or
  // a miss. Refreshes last_access on hit.
  std::optional<KvRecordInfo> Access(SessionId session, SimTime now);

  // --- Write path -----------------------------------------------------------

  // Saves (or updates) a session's KV payload (real_payloads only). The
  // record covers payload.total_tokens() tokens. Placement prefers the
  // fastest enabled tier and makes room via policy-driven demotion/eviction;
  // if the session's own bytes fit nowhere the record is dropped and
  // kResourceExhausted is returned. The bytes stream from `payload` straight
  // into tier block memory with the checksum folded in per block (DESIGN.md
  // §14); the retry loop may Reset and replay a range.
  //
  // `dedup_tokens` is the session's full token history (one entry per
  // payload token, bit pattern of the engine's TokenId), given when the
  // payload is a pure function of it. With config.share_prefixes set, the
  // store then walks the history in share_chunk_tokens-sized chunks and
  // matches each against the prefix index (DESIGN.md §17; chain-keyed: a
  // candidate matches only with identical parent chunk and identical token
  // contents, so a hit proves exact prefix equality):
  //  * hit  — the session references the existing chunk (refcount++), no
  //           bytes move;
  //  * miss — a new shared chunk record is written and indexed. A session
  //           that diverges mid-chunk simply stops matching there: only its
  //           divergent chunks are physically written (copy-on-write at
  //           save granularity).
  // The remainder past the last full chunk (always >= 1 token) is the
  // session's own piece, stored in its record with the ordered block table
  // of chunk references. Without dedup tokens (or without share_prefixes)
  // the block table is empty and the whole payload is the own piece.
  //
  // `user_meta` is an opaque caller blob retained with the record and
  // journaled in durable mode (the engine stores the serialized token
  // history so recovered sessions replay bitwise-identically).
  Status Put(SessionId session, ChunkedPayloadSource& payload,
             std::span<const std::uint32_t> dedup_tokens, SimTime now,
             const SchedulerHints& hints, std::span<const std::uint8_t> user_meta = {});

  // Capacity-only form (stores without real_payloads; the simulator):
  // accounts `bytes` bytes covering `token_count` tokens with the same
  // placement and eviction as the payload Put, moving no bytes.
  Status Put(SessionId session, std::uint64_t bytes, std::uint64_t token_count, SimTime now,
             const SchedulerHints& hints, std::span<const std::uint8_t> user_meta = {});

  // Streams a record's payload into `sink` (real-payload mode only): the
  // shared chunks in block-table order, then the session's own piece, each
  // verified against its own checksum as it passes — memory tiers hand over
  // arena spans directly, nothing is staged. A transient fault restarts the
  // whole pass (sink.Reset(), then from the first piece) up to
  // config.io_retries times. The sink observes bytes BEFORE each piece's
  // checksum verdict; on any non-OK return the caller must discard whatever
  // the sink built. Any failure is miss-equivalent for the caller:
  // transient exhaustion (kUnavailable) keeps the record for a later retry,
  // while a permanent error or checksum mismatch drops it — for a bad
  // shared chunk, every session referencing it — so the miss is consistent
  // on every subsequent lookup.
  Status ReadPayloadInto(SessionId session, PayloadSink& sink);

  // ReadPayloadInto collected into a vector.
  Result<std::vector<std::uint8_t>> ReadPayload(SessionId session);

  // --- Migration (DESIGN.md §16) ----------------------------------------

  // Snapshots a record for migration to another store: reads and verifies
  // the payload (real-payload mode; capacity-only stores export metadata
  // with an empty payload) and carries the user-meta blob alongside. The
  // record stays resident here — the export/import/remove sequence is the
  // caller's protocol, so the KV survives if either side fails. Read
  // failures propagate with ReadPayload's semantics (a permanent failure
  // drops the record, making the miss consistent).
  Result<ExportedRecord> ExportRecord(SessionId session);

  // Installs an exported record into this store as if Put had been called
  // with its payload (no dedup tokens) and user_meta. Never overwrites: a
  // resident record for the same session returns kAlreadyExists (the
  // router's re-pin protocol guarantees a session lives in exactly one shard
  // store at a time). In real-payload mode the payload must split into
  // token_count whole tokens (kInvalidArgument otherwise) and its checksum
  // is re-verified before any byte is written — corruption in transit
  // surfaces as kDataLoss, not as a poisoned cache entry.
  Status ImportRecord(const ExportedRecord& record, SimTime now, const SchedulerHints& hints);

  // --- Placement management ---------------------------------------------

  // Moves a disk-resident record into DRAM (scheduler-aware fetching
  // executes these). Makes room in DRAM by demoting non-upcoming records.
  Status Promote(SessionId session, SimTime now, const SchedulerHints& hints);

  // Moves a DRAM-resident record to disk.
  Status Demote(SessionId session, SimTime now, const SchedulerHints& hints);

  // Demotes records until at least config.dram_buffer bytes of DRAM are
  // free (§3.3.1's host-memory buffer). Returns demoted count.
  std::size_t MaintainDramBuffer(SimTime now, const SchedulerHints& hints);

  // Drops a record entirely (e.g. session invalidated by coupled-PE
  // truncation in the OF baseline of §4.3.4).
  void Remove(SessionId session);

  // Expires records not accessed for config.ttl. Returns expired count.
  std::size_t ExpireTtl(SimTime now);

  // --- Introspection ----------------------------------------------------

  std::uint64_t UsedBytes(Tier tier) const;
  std::uint64_t FreeBytes(Tier tier) const;
  std::uint64_t CapacityBytes(Tier tier) const;
  // Session records only (shared chunk records are store-internal).
  std::size_t RecordCount() const { return records_.size() - chunks_.size(); }
  // Shared chunk records currently alive (0 without prefix sharing).
  std::size_t ChunkCount() const { return chunks_.size(); }
  std::vector<SessionId> SessionsInTier(Tier tier) const;
  TierHealth tier_health(Tier tier) const;

  // What the last durable Open recovered (all-zero for fresh/non-durable
  // stores). Also published as "store_recovery.*" gauges.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // The opaque blob retained with the session's record via Put's user_meta
  // — null for unknown sessions. Retained in-record for every
  // store (durable stores additionally journal it so recovery can rebuild
  // it). The pointer is invalidated by any store mutation.
  const std::vector<std::uint8_t>* UserMeta(SessionId session) const;

  // Audits the store's internal consistency, aborting (CA_CHECK) on the
  // first violation. Checked invariants:
  //  * every record sits in an enabled tier, has bytes > 0, and its charged
  //    block_bytes equals its logical bytes rounded up to the block size;
  //  * per-tier used_bytes_ equals the sum of resident records' block
  //    charges and never exceeds the tier capacity;
  //  * with real payloads: every record owns a non-empty extent whose byte
  //    length matches the record and whose block count matches the block
  //    charge, and each tier's allocator has exactly the blocks of its
  //    resident records allocated (no leaks, no double-ownership);
  //  * without real payloads: no record owns an extent.
  //  * durable mode: the journal's live table mirrors records_ exactly —
  //    same sessions, and per record the same tier/bytes/token_count/
  //    insert_seq/checksum, with block lists matching for disk residents
  //    (last_access excluded: Access refreshes are journaled only as coarse
  //    checkpoints).
  //  * prefix sharing (DESIGN.md §17): chunk registry and chunk records are
  //    1:1; every chunk's refcount is > 0 and equals the number of session
  //    block tables referencing it (no block freed while referenced, no
  //    leak once the last referrer is gone); every block-table entry
  //    resolves to a live chunk; the prefix index holds each chunk exactly
  //    once under its chain key.
  // Runs automatically after every mutating operation when config.audit is
  // set.
  void CheckInvariants() const;

  // Test-only: injects accounting corruption so tests can prove the auditor
  // fires (see store_audit_test.cc). Never call outside tests.
  void CorruptUsedBytesForTesting(Tier tier, std::int64_t delta);

  // Republishes the cumulative StoreStats into the metrics registry as
  // "store_stats.*" gauges (DESIGN.md §11). The per-tier hit/miss counters
  // ("store.hits{tier=...}", "store.misses") are maintained live.
  void PublishMetrics(MetricsRegistry* registry = nullptr) const;

 private:
  struct KvRecord {
    SessionId session = kInvalidSession;
    Tier tier = Tier::kNone;
    std::uint64_t bytes = 0;         // payload bytes in THIS record's extent
    std::uint64_t block_bytes = 0;   // bytes charged against the tier (block-rounded)
    std::uint64_t token_count = 0;   // full logical tokens (chunk tokens for chunk records)
    SimTime last_access = 0;
    std::uint64_t insert_seq = 0;
    BlockExtent extent;              // valid iff real payloads attached
    std::uint64_t checksum = 0;      // Checksum64 of the payload (real mode)
    // Opaque caller blob, replaced on Put and carried through moves —
    // exactly the journal's keep/replace semantics, so durable stores can
    // cross-check the two and migration exports it without touching the
    // journal. For shared chunk records the store itself is the caller: it
    // holds the encoded chunk descriptor (chain key, parent, tokens).
    std::vector<std::uint8_t> user_meta;
    // Prefix sharing (DESIGN.md §17): the block table — ordered
    // shared-chunk record ids whose payloads precede this record's own
    // bytes; empty for a private record. Journaled with the record so
    // recovery can rebuild tables and re-derive refcounts.
    std::vector<SessionId> chunk_refs;
    // Access-journaling checkpoint counter (durable mode; not persisted).
    std::uint32_t accesses_since_journal = 0;
  };

  // Registry entry for one shared chunk record (the record itself lives in
  // records_ under a synthetic chunk SessionId). refcount is DERIVED state:
  // it equals the number of session block tables referencing the chunk, is
  // never journaled, and is recomputed from recovered tables on Open — so
  // recovery can neither double-free nor leak a shared chunk.
  struct SharedChunk {
    std::uint64_t key = 0;                // chain key (bucket in prefix_index_)
    SessionId parent = kInvalidSession;   // previous chunk in the chain, or none
    std::vector<std::uint32_t> tokens;    // exact token contents of this chunk
    std::uint32_t refcount = 0;
  };

  struct TierHealthState {
    TierHealth health = TierHealth::kHealthy;
    std::uint32_t consecutive_permanent = 0;
  };

  bool TierEnabled(Tier tier) const {
    return CapacityBytes(tier) > 0 &&
           tier_health_[static_cast<std::size_t>(tier)].health != TierHealth::kQuarantined;
  }
  // Enabled tiers in HBM→DRAM→disk order. Fixed-size value type: Put calls
  // this per placement attempt, so it must not heap-allocate.
  struct TierList {
    std::array<Tier, kNumTiers> tiers = {};
    std::size_t count = 0;

    const Tier* begin() const { return tiers.data(); }
    const Tier* end() const { return tiers.data() + count; }
    bool empty() const { return count == 0; }
  };
  TierList EnabledTiers() const;
  Tier NextSlowerTier(Tier tier) const;

  std::uint64_t RoundToBlocks(std::uint64_t bytes) const;

  // Frees `needed` bytes in `tier` by demoting/evicting victims (never
  // touching `exclude`). Returns false if impossible.
  bool EnsureRoom(Tier tier, std::uint64_t needed, SessionId exclude, SimTime now,
                  const SchedulerHints& hints);

  // Moves `record` to `target` tier (payloads copied if attached). `target`
  // may be kNone, meaning eviction out of the system (never fails).
  //
  // Transactional: on failure the record, its extent and all accounting are
  // unchanged — with ONE exception: when the source payload itself is
  // unrecoverable (permanent read failure or checksum mismatch), the record
  // is released to kNone (extent freed, accounting settled) and the caller
  // MUST erase the map entry. Callers detect that case by `record.tier ==
  // Tier::kNone` after a non-OK return.
  Status MoveRecord(KvRecord& record, Tier target);

  // Delegated ctor: defer_disk leaves the disk tier unattached so the
  // durable Open path can attach a persistent FileBlockStorage + journal
  // before any record exists.
  AttentionStore(StoreConfig config, bool defer_disk);

  // Durable-open plumbing (DESIGN.md §15): opens journal + persistent
  // payload file, then replays.
  Status OpenDurable();
  // Rebuilds records_ from the replayed journal: adopts each record's
  // extent in the payload allocator, optionally verifies payload checksums,
  // and drops anything that disagrees as a clean miss.
  Status RecoverFromJournal();

  // Journal hooks: mirror a record mutation into the MetaStore (no-ops on
  // non-durable stores). Append failures are logged and swallowed — journal
  // loss degrades the *next* recovery, it never blocks serving.
  void JournalUpsert(const KvRecord& record, std::span<const std::uint8_t> user_meta,
                     bool keep_existing_user_meta);
  void JournalErase(SessionId session);

  // The one verified read: streams `pieces` (records' own extents) in
  // order into `sink`, each verified against its own checksum as it
  // passes. A transient fault restarts the whole pass — sink.Reset(), then
  // from the first piece — up to config.io_retries times. On failure
  // `*failed` names the piece that failed. Updates tier health, fault stats
  // and per-tier I/O throughput.
  Status ReadVerifiedStream(std::span<const KvRecord* const> pieces, PayloadSink& sink,
                            SessionId* failed);
  // One attempt at one piece (no retry: the sink has seen its bytes).
  Status ReadPiece(const KvRecord& piece, PayloadSink& sink);

  // Writes the payload to `storage` with bounded transient-retry, folding
  // the checksum in as the bytes stream through; updates tier health, fault
  // stats and per-tier I/O throughput.
  struct WriteReceipt {
    BlockExtent extent;
    std::uint64_t checksum = 0;
  };
  Result<WriteReceipt> WriteWithRetry(BlockStorage& storage, PayloadSource& source, Tier tier);

  // Health-machine hooks: a clean op heals a degraded tier; a fault degrades
  // it and — after config.quarantine_after consecutive permanent faults —
  // marks it quarantined. Record-dropping is deferred to PurgeQuarantined()
  // so callers holding record references stay valid mid-mutation.
  void RecordTierSuccess(Tier tier);
  void RecordTierFault(Tier tier, const Status& status);
  void MarkQuarantined(Tier tier, const Status& cause);

  // Drops every record resident in a quarantined tier (allocator-only
  // frees; safe on a dead device). Runs before each mutation's MaybeAudit.
  void PurgeQuarantined();

  std::optional<SessionId> PickVictim(Tier tier, SessionId exclude, const SchedulerHints& hints);

  BlockStorage* Storage(Tier tier);
  const BlockStorage* Storage(Tier tier) const;

  // --- prefix sharing internals (DESIGN.md §17) ------------------------

  // Synthetic SessionId namespace for shared chunk records. Real sessions
  // never carry this bit (Put rejects them), so chunk records hide in
  // records_ without colliding and reuse placement/moves/journaling/
  // recovery unchanged.
  static constexpr SessionId kChunkSessionBit = SessionId{1} << 63;
  static bool IsChunkId(SessionId session) {
    return session != kInvalidSession && (session & kChunkSessionBit) != 0;
  }

  // refcount++ on a chunk; the inverse frees the chunk record the moment
  // the last referencing table goes away (stats_.chunks_freed).
  void RefChunk(SessionId chunk_id);
  void UnrefChunk(SessionId chunk_id);

  // Central release path for a session record: frees its extent, erases it
  // from records_ (+ journal), then drops its block-table references —
  // which may free now-unreferenced chunks. ALL session-record removals
  // funnel through here so a refcount can never be leaked.
  void DropRecord(SessionId session);

  // Evicting a shared chunk out of the system: every referencing session
  // becomes a consistent miss (dropped via DropRecord), which drives the
  // chunk's refcount to zero and frees it. Counts one eviction per dropped
  // referrer against `reason` (evictions_out or fault_evictions).
  void DropChunkReferrers(SessionId chunk_id, std::uint64_t StoreStats::* reason);

  // The one placement loop (both Puts, every shared chunk): places `bytes`
  // into the fastest enabled tier that can make room, writing `source`
  // there when real payloads are attached (null for capacity-only stores).
  // On success the chosen tier and the write's extent/checksum are
  // returned; tier-write failures count in stats_.failed_puts.
  struct Placement {
    Tier tier = Tier::kNone;
    BlockExtent extent;
    std::uint64_t checksum = 0;
  };
  Result<Placement> PlacePayload(std::uint64_t bytes, PayloadSource* source, SessionId exclude,
                                 SimTime now, const SchedulerHints& hints);

  // Inserts a placed record (session or chunk): charges its tier and
  // journals it with the user_meta blob it carries.
  void InsertRecord(KvRecord record);

  // Logical payload size of a record: its own bytes plus its chunks'.
  std::uint64_t PayloadBytes(const KvRecord& record) const;

  // Durable mode: journal a coarse last_access checkpoint every
  // config.access_journal_every_n accesses of a record (S1 bugfix — LRU
  // order would otherwise be arbitrary after recovery).
  void JournalAccessMaybe(KvRecord& record);

  // Post-replay pass of RecoverFromJournal: rebuilds the chunk registry and
  // prefix index from recovered chunk records, validates every session's
  // block table (a missing chunk drops the session as a clean miss),
  // re-derives refcounts from the surviving tables, and frees orphaned
  // zero-ref chunks.
  void RecoverSharedState();

  // Runs CheckInvariants() iff config_.audit is set; called on every
  // mutating-operation exit path.
  void MaybeAudit() const;

  StoreConfig config_;
  std::unique_ptr<EvictionPolicy> policy_;
  // Session records plus (with prefix sharing) hidden chunk records keyed
  // by their synthetic chunk ids.
  std::unordered_map<SessionId, KvRecord> records_;
  // Prefix sharing (DESIGN.md §17): chunk registry and the prefix index
  // (chain key -> candidate chunk ids; matches verified by parent identity
  // + token equality, so hash collisions cannot alias prefixes).
  std::unordered_map<SessionId, SharedChunk> chunks_;
  std::unordered_map<std::uint64_t, std::vector<SessionId>> prefix_index_;
  std::uint64_t next_chunk_id_ = 0;
  // Chunks referenced by an in-flight Put before the session's own
  // record exists; PickVictim must not offer them (their refcount can not
  // reach zero through referrer drops, so evicting one would stall
  // EnsureRoom).
  std::vector<SessionId> pinned_chunks_;
  std::array<std::uint64_t, kNumTiers> used_bytes_ = {0, 0, 0};
  std::array<std::unique_ptr<BlockStorage>, kNumTiers> storages_;  // null w/o payloads
  std::array<TierHealthState, kNumTiers> tier_health_ = {};
  bool quarantine_pending_ = false;  // set by MarkQuarantined, cleared by PurgeQuarantined
  std::uint64_t next_insert_seq_ = 0;
  StoreStats stats_;

  // Durable mode only (null otherwise). Mirrors records_: CheckInvariants
  // cross-checks the two (last_access excluded — Access refreshes are not
  // journaled, stale recency after recovery is acceptable).
  std::unique_ptr<MetaStore> meta_;
  RecoveryStats recovery_stats_;

  // Live registry handles, cached at construction (registration is a map
  // lookup; Access is the store's hottest read path).
  std::array<Counter*, kNumTiers> hit_counters_ = {nullptr, nullptr, nullptr};
  Counter* miss_counter_ = nullptr;
};

}  // namespace ca

#endif  // CA_STORE_ATTENTION_STORE_H_
