#include "src/store/attention_store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace ca {

namespace {

// Process-unique backing-file path for stores configured without an explicit
// disk_path (see StoreConfig::disk_path).
std::string UniqueDiskPath() {
  static std::atomic<std::uint64_t> counter{0};
  return "/tmp/ca_attention_store." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".blocks";
}

// Wraps a tier storage in the fault injector when the config asks for it.
std::unique_ptr<BlockStorage> MaybeInjectFaults(std::unique_ptr<BlockStorage> storage,
                                                const FaultConfig& fault) {
  if (!fault.enabled()) {
    return storage;
  }
  return std::make_unique<FaultInjectingBlockStorage>(std::move(storage), fault);
}

// True for error codes that mean the device (or the data on it) is broken,
// as opposed to transiently busy or merely full.
bool IsPermanentIoFailure(StatusCode code) {
  return code == StatusCode::kIoError || code == StatusCode::kInternal ||
         code == StatusCode::kDataLoss;
}

// Folds the checksum in while the payload streams towards the device, so
// the hash touches each block while it is still cache-hot from the fill —
// no separate whole-payload hashing pass (DESIGN.md §14). Hashing happens
// BEFORE any fault decorator or device can damage the bytes: the recorded
// checksum always covers the producer's clean payload.
class HashingSource final : public PayloadSource {
 public:
  HashingSource(PayloadSource& inner, bool enabled) : inner_(inner), enabled_(enabled) {}

  std::uint64_t size() const override { return inner_.size(); }
  void Reset() override {
    inner_.Reset();
    hash_.Reset();
  }
  void Fill(std::span<std::uint8_t> dest) override {
    inner_.Fill(dest);
    if (enabled_) {
      hash_.Update(dest);
    }
  }

  std::uint64_t digest() const { return enabled_ ? hash_.Finalize() : 0; }

 private:
  PayloadSource& inner_;
  const bool enabled_;
  ChunkedHash64 hash_;
};

// Read-side twin: hashes the chunks as they stream past on their way to the
// consumer, so the verification costs no second pass over the payload.
// Hashes one piece per instance; the store restarts whole passes itself.
class HashingSink final : public PayloadSink {
 public:
  HashingSink(PayloadSink& inner, bool enabled) : inner_(inner), enabled_(enabled) {}

  void Reset() override {
    inner_.Reset();
    hash_.Reset();
  }
  void Consume(std::span<const std::uint8_t> chunk) override {
    if (enabled_) {
      hash_.Update(chunk);
    }
    inner_.Consume(chunk);
  }

  std::uint64_t digest() const { return enabled_ ? hash_.Finalize() : 0; }

 private:
  PayloadSink& inner_;
  const bool enabled_;
  ChunkedHash64 hash_;
};

// Collects a streamed payload. Callers reserve the full size first, so the
// chunks append into uninitialized capacity instead of overwriting a
// memset buffer.
struct VectorSink final : PayloadSink {
  std::vector<std::uint8_t> data;
  void Reset() override { data.clear(); }
  void Consume(std::span<const std::uint8_t> chunk) override {
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
};

// --- prefix-sharing helpers (DESIGN.md §17) --------------------------------

// Chain key of a chunk: mixes the parent chunk's chain key with the hash of
// this chunk's token contents, so equal keys can only collide across
// *different* prefixes by hash accident — which the index probe then rules
// out by comparing parent identity and raw tokens.
constexpr std::uint64_t kChainSeed = 0x9E3779B97F4A7C15ULL;

std::uint64_t ChainKey(std::uint64_t parent_key, std::span<const std::uint32_t> tokens) {
  const std::span<const std::uint8_t> token_bytes(
      reinterpret_cast<const std::uint8_t*>(tokens.data()), tokens.size() * sizeof(std::uint32_t));
  const std::uint64_t pair[2] = {parent_key, Fnv1a64(token_bytes)};
  return Fnv1a64(
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(pair), sizeof pair));
}

// Chunk descriptor persisted as the chunk record's user_meta (the store is
// its own caller for hidden chunk records), so durable recovery can rebuild
// the registry and prefix index from replayed records alone.
// Layout: [u32 magic][u64 chain key][u64 parent id][u32 n][u32 tokens...].
constexpr std::uint32_t kChunkMetaMagic = 0x48434143;  // "CACH"

std::vector<std::uint8_t> EncodeChunkMeta(std::uint64_t key, SessionId parent,
                                          std::span<const std::uint32_t> tokens) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 8 + 8 + 4 + tokens.size() * sizeof(std::uint32_t));
  const auto raw = [&out](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), bytes, bytes + n);
  };
  raw(&kChunkMetaMagic, sizeof kChunkMetaMagic);
  raw(&key, sizeof key);
  raw(&parent, sizeof parent);
  const auto n = static_cast<std::uint32_t>(tokens.size());
  raw(&n, sizeof n);
  raw(tokens.data(), tokens.size() * sizeof(std::uint32_t));
  return out;
}

bool DecodeChunkMeta(std::span<const std::uint8_t> meta, std::uint64_t& key, SessionId& parent,
                     std::vector<std::uint32_t>& tokens) {
  constexpr std::size_t kHeader = 4 + 8 + 8 + 4;
  if (meta.size() < kHeader) {
    return false;
  }
  std::uint32_t magic = 0;
  std::uint32_t n = 0;
  std::memcpy(&magic, meta.data(), sizeof magic);
  std::memcpy(&key, meta.data() + 4, sizeof key);
  std::memcpy(&parent, meta.data() + 12, sizeof parent);
  std::memcpy(&n, meta.data() + 20, sizeof n);
  if (magic != kChunkMetaMagic || meta.size() != kHeader + n * sizeof(std::uint32_t)) {
    return false;
  }
  tokens.resize(n);
  std::memcpy(tokens.data(), meta.data() + kHeader, n * sizeof(std::uint32_t));
  return true;
}

}  // namespace

std::string_view TierName(Tier tier) {
  switch (tier) {
    case Tier::kHbm:
      return "HBM";
    case Tier::kDram:
      return "DRAM";
    case Tier::kDisk:
      return "disk";
    case Tier::kNone:
      return "none";
  }
  return "?";
}

std::string_view TierHealthName(TierHealth health) {
  switch (health) {
    case TierHealth::kHealthy:
      return "healthy";
    case TierHealth::kDegraded:
      return "degraded";
    case TierHealth::kQuarantined:
      return "quarantined";
  }
  return "?";
}

AttentionStore::AttentionStore(StoreConfig config)
    : AttentionStore(std::move(config), /*defer_disk=*/false) {
  CA_CHECK(!config_.durable) << "durable stores must be created through AttentionStore::Open";
}

AttentionStore::AttentionStore(StoreConfig config, bool defer_disk)
    : config_(std::move(config)), policy_(MakeEvictionPolicy(config_.eviction_policy)) {
  CA_CHECK_GT(config_.block_bytes, 0ULL);
  auto& registry = MetricsRegistry::Global();
  for (const Tier tier : {Tier::kHbm, Tier::kDram, Tier::kDisk}) {
    hit_counters_[static_cast<std::size_t>(tier)] = &registry.GetCounter(
        "store.hits", {{"tier", std::string(TierName(tier))}});
  }
  miss_counter_ = &registry.GetCounter("store.misses");
  if (config_.disk_path.empty()) {
    config_.disk_path = UniqueDiskPath();
  }
  if (config_.real_payloads) {
    if (config_.hbm_capacity > 0) {
      storages_[static_cast<std::size_t>(Tier::kHbm)] = MaybeInjectFaults(
          std::make_unique<MemoryBlockStorage>(config_.hbm_capacity, config_.block_bytes),
          config_.hbm_fault);
    }
    if (config_.dram_capacity > 0) {
      storages_[static_cast<std::size_t>(Tier::kDram)] = MaybeInjectFaults(
          std::make_unique<MemoryBlockStorage>(config_.dram_capacity, config_.block_bytes),
          config_.dram_fault);
    }
    if (config_.disk_capacity > 0 && !defer_disk) {
      DiskIoOptions io;
      io.mode = config_.disk_io_mode;
      io.direct_io = config_.disk_direct_io;
      auto disk =
          FileBlockStorage::Open(config_.disk_path, config_.disk_capacity, config_.block_bytes,
                                 io);
      if (disk.ok()) {
        storages_[static_cast<std::size_t>(Tier::kDisk)] =
            MaybeInjectFaults(std::move(*disk), config_.disk_fault);
      } else {
        // The KV cache is soft state: a store without its disk tier serves
        // fewer hits, it does not crash the serving process.
        CA_LOG(Error) << "disk tier disabled, serving from remaining tiers only: "
                      << disk.status();
        tier_health_[static_cast<std::size_t>(Tier::kDisk)].health = TierHealth::kQuarantined;
        ++stats_.tiers_disabled;
      }
    }
  }
}

Result<AttentionStore> AttentionStore::Open(StoreConfig config) {
  if (!config.durable) {
    return AttentionStore(std::move(config), /*defer_disk=*/false);
  }
  if (!config.real_payloads) {
    return InvalidArgumentError("durable stores require real_payloads");
  }
  if (config.disk_path.empty()) {
    return InvalidArgumentError(
        "durable stores require an explicit stable disk_path: the auto-unique default "
        "embeds the pid and cannot be re-found after a restart");
  }
  if (config.disk_capacity < config.block_bytes) {
    return InvalidArgumentError("durable stores need a disk tier (disk_capacity >= block_bytes)");
  }
  AttentionStore store(std::move(config), /*defer_disk=*/true);
  CA_RETURN_IF_ERROR(store.OpenDurable());
  return store;
}

namespace {

// Identity stamped into a fresh journal/payload pair so a mismatched pair
// (one file replaced or restored from elsewhere) is detected at Open.
std::uint64_t FreshStoreId() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t mix[3] = {TraceNowNs(), static_cast<std::uint64_t>(::getpid()),
                                counter.fetch_add(1)};
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(mix);
  return Checksum64(std::span<const std::uint8_t>(bytes, sizeof mix)) | 1;  // never 0
}

}  // namespace

Status AttentionStore::OpenDurable() {
  MetaStore::Options mopts;
  mopts.fsync = config_.meta_fsync;
  mopts.fsync_every_n = config_.meta_fsync_every_n;
  mopts.compact_threshold_bytes = config_.meta_compact_threshold;
  mopts.fault = config_.meta_fault;
  CA_ASSIGN_OR_RETURN(meta_, MetaStore::Open(config_.disk_path + ".meta", config_.block_bytes,
                                             FreshStoreId(), std::move(mopts)));
  DiskIoOptions io;
  io.mode = config_.disk_io_mode;
  io.direct_io = config_.disk_direct_io;
  io.persist = true;
  io.reuse_existing = meta_->recovered_existing();
  io.store_id = meta_->store_id();
  io.crash = config_.meta_fault.crash;
  io.crash_after_block_writes = config_.disk_crash_after_block_writes;
  auto disk =
      FileBlockStorage::Open(config_.disk_path, config_.disk_capacity, config_.block_bytes, io);
  if (!disk.ok()) {
    // Unlike the ephemeral constructor, a durable open refuses to guess: a
    // payload file that is missing or does not match the journal's identity
    // means the pair was split, and silently serving an empty store would
    // hide that from the operator.
    return disk.status();
  }
  storages_[static_cast<std::size_t>(Tier::kDisk)] =
      MaybeInjectFaults(std::move(*disk), config_.disk_fault);
  return RecoverFromJournal();
}

Status AttentionStore::RecoverFromJournal() {
  const std::uint64_t start_ns = TraceNowNs();
  recovery_stats_ = meta_->recovery_stats();
  BlockStorage* disk = Storage(Tier::kDisk);
  CA_CHECK(disk != nullptr);

  // Adopt in insert order so next_insert_seq_ and FIFO-ish policies see the
  // same relative ages an uninterrupted store would.
  std::vector<const MetaRecord*> candidates;
  candidates.reserve(meta_->live().size());
  for (const auto& [id, rec] : meta_->live()) {
    candidates.push_back(&rec);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const MetaRecord* a, const MetaRecord* b) { return a->insert_seq < b->insert_seq; });

  std::vector<SessionId> dropped;
  for (const MetaRecord* rec : candidates) {
    BlockExtent extent{.blocks = rec->blocks, .byte_length = rec->bytes};
    Status adopted = rec->bytes == 0 ? FailedPreconditionError("journaled record is empty")
                                     : disk->AdoptExtent(extent);
    if (adopted.ok() && config_.recover_verify_payloads) {
      std::vector<std::uint8_t> data(rec->bytes);
      Status read = disk->ReadInto(extent, data);
      if (read.ok() && config_.verify_checksums && Checksum64(data) != rec->checksum) {
        read = DataLossError("recovered payload failed checksum verification");
      }
      if (!read.ok()) {
        disk->Free(extent);
        adopted = std::move(read);
      }
    }
    if (!adopted.ok()) {
      // Dangling record: the journal references blocks that no longer line
      // up with the payload file (torn write, reused blocks, external
      // damage). A clean miss, never corruption.
      CA_LOG(Warn) << "recovery dropped session " << rec->session << ": " << adopted;
      ++recovery_stats_.records_reconciled_missing;
      dropped.push_back(rec->session);
      continue;
    }
    KvRecord record{.session = rec->session,
                    .tier = Tier::kDisk,
                    .bytes = rec->bytes,
                    .block_bytes = RoundToBlocks(rec->bytes),
                    .token_count = rec->token_count,
                    .last_access = rec->last_access,
                    .insert_seq = rec->insert_seq,
                    .extent = std::move(extent),
                    .checksum = rec->checksum,
                    .user_meta = rec->user_meta,
                    .chunk_refs = rec->chunk_refs};
    used_bytes_[static_cast<std::size_t>(Tier::kDisk)] += record.block_bytes;
    next_insert_seq_ = std::max(next_insert_seq_, rec->insert_seq + 1);
    records_.emplace(rec->session, std::move(record));
    ++recovery_stats_.records_recovered;
  }
  for (const SessionId session : dropped) {
    const Status erased = meta_->Erase(session);
    if (!erased.ok()) {
      CA_LOG(Warn) << "journal erase of dropped session " << session << " failed: " << erased;
    }
  }
  // Rebuild the sharing state (chunk registry, prefix index, derived
  // refcounts) from the recovered records before compacting, so the
  // snapshot already excludes anything this pass reconciles away.
  RecoverSharedState();
  // One compaction so the next open replays a snapshot, not history.
  const Status compacted = meta_->Compact();
  if (!compacted.ok()) {
    CA_LOG(Warn) << "post-recovery journal compaction failed: " << compacted;
  }
  recovery_stats_.replay_ns = meta_->recovery_stats().replay_ns + (TraceNowNs() - start_ns);
  CheckInvariants();
  return Status::Ok();
}

const std::vector<std::uint8_t>* AttentionStore::UserMeta(SessionId session) const {
  const auto it = records_.find(session);
  return it == records_.end() ? nullptr : &it->second.user_meta;
}

void AttentionStore::JournalUpsert(const KvRecord& record,
                                   std::span<const std::uint8_t> user_meta,
                                   bool keep_existing_user_meta) {
  if (meta_ == nullptr) {
    return;
  }
  MetaRecord rec;
  rec.session = record.session;
  rec.tier = record.tier;
  rec.bytes = record.bytes;
  rec.token_count = record.token_count;
  rec.last_access = record.last_access;
  rec.insert_seq = record.insert_seq;
  rec.checksum = record.checksum;
  rec.chunk_refs = record.chunk_refs;
  if (record.tier == Tier::kDisk) {
    rec.blocks = record.extent.blocks;
  }
  if (keep_existing_user_meta) {
    if (const std::vector<std::uint8_t>* existing = meta_->UserMeta(record.session)) {
      rec.user_meta = *existing;
    }
  } else {
    rec.user_meta.assign(user_meta.begin(), user_meta.end());
  }
  const Status s = meta_->Upsert(std::move(rec));
  if (!s.ok()) {
    // Journal loss degrades the next recovery (stale entries reconcile to
    // misses through checksums and block-ownership), it never blocks serving.
    CA_LOG(Warn) << "metadata journal append failed for session " << record.session << ": " << s;
  }
}

void AttentionStore::JournalErase(SessionId session) {
  if (meta_ == nullptr) {
    return;
  }
  const Status s = meta_->Erase(session);
  if (!s.ok()) {
    CA_LOG(Warn) << "metadata journal erase failed for session " << session << ": " << s;
  }
}

void AttentionStore::JournalAccessMaybe(KvRecord& record) {
  if (meta_ == nullptr || config_.access_journal_every_n == 0) {
    return;
  }
  if (++record.accesses_since_journal < config_.access_journal_every_n) {
    return;
  }
  record.accesses_since_journal = 0;
  ++stats_.access_checkpoints;
  const Status s = meta_->Access(record.session, record.last_access);
  if (!s.ok()) {
    CA_LOG(Warn) << "access checkpoint append failed for session " << record.session << ": " << s;
  }
}

// --- prefix sharing internals (DESIGN.md §17) ------------------------------

void AttentionStore::RefChunk(SessionId chunk_id) { ++chunks_.at(chunk_id).refcount; }

void AttentionStore::UnrefChunk(SessionId chunk_id) {
  const auto cit = chunks_.find(chunk_id);
  CA_CHECK(cit != chunks_.end()) << "unref of unknown chunk " << chunk_id;
  SharedChunk& chunk = cit->second;
  CA_CHECK_GT(chunk.refcount, 0U) << "chunk " << chunk_id << " refcount underflow";
  if (--chunk.refcount > 0) {
    return;
  }
  // Last reference gone: free the hidden chunk record and unindex it.
  const auto rit = records_.find(chunk_id);
  CA_CHECK(rit != records_.end()) << "chunk " << chunk_id << " registry/record split";
  if (rit->second.tier != Tier::kNone) {
    (void)MoveRecord(rit->second, Tier::kNone);
  }
  records_.erase(rit);
  JournalErase(chunk_id);
  const auto idx = prefix_index_.find(chunk.key);
  CA_CHECK(idx != prefix_index_.end());
  auto& bucket = idx->second;
  bucket.erase(std::remove(bucket.begin(), bucket.end(), chunk_id), bucket.end());
  if (bucket.empty()) {
    prefix_index_.erase(idx);
  }
  chunks_.erase(cit);
  ++stats_.chunks_freed;
}

void AttentionStore::DropRecord(SessionId session) {
  const auto it = records_.find(session);
  if (it == records_.end()) {
    return;
  }
  const std::vector<SessionId> refs = std::move(it->second.chunk_refs);
  if (it->second.tier != Tier::kNone) {
    (void)MoveRecord(it->second, Tier::kNone);
  }
  records_.erase(it);
  JournalErase(session);
  for (const SessionId ref : refs) {
    UnrefChunk(ref);
  }
}

void AttentionStore::DropChunkReferrers(SessionId chunk_id, std::uint64_t StoreStats::* reason) {
  std::vector<SessionId> referrers;
  for (const auto& [id, r] : records_) {
    if (!IsChunkId(id) &&
        std::find(r.chunk_refs.begin(), r.chunk_refs.end(), chunk_id) != r.chunk_refs.end()) {
      referrers.push_back(id);
    }
  }
  for (const SessionId id : referrers) {
    DropRecord(id);
    ++(stats_.*reason);
  }
  // The last DropRecord unrefs the chunk to zero, which frees it. A chunk
  // that survives here has references not backed by any table — only
  // in-flight pins can cause that, and pinned chunks are never offered as
  // victims nor resident in a purged tier while pinned.
  CA_CHECK(records_.find(chunk_id) == records_.end())
      << "chunk " << chunk_id << " survived its referrer cascade";
}

void AttentionStore::RecoverSharedState() {
  // 1. Rebuild the chunk registry + prefix index from recovered chunk
  //    records. An undecodable descriptor loses only that chunk (and, below,
  //    its referrers) — a clean miss, never corruption.
  std::vector<SessionId> bad_chunks;
  for (const auto& [id, r] : records_) {
    if (!IsChunkId(id)) {
      continue;
    }
    std::uint64_t key = 0;
    SessionId parent = kInvalidSession;
    std::vector<std::uint32_t> tokens;
    if (!DecodeChunkMeta(r.user_meta, key, parent, tokens) || tokens.size() != r.token_count) {
      bad_chunks.push_back(id);
      continue;
    }
    next_chunk_id_ = std::max(next_chunk_id_, (id & ~kChunkSessionBit) + 1);
    prefix_index_[key].push_back(id);
    chunks_.emplace(id, SharedChunk{key, parent, std::move(tokens), 0});
  }
  const auto raw_free = [this](SessionId id) {
    auto it = records_.find(id);
    CA_CHECK(it != records_.end());
    if (it->second.tier != Tier::kNone) {
      (void)MoveRecord(it->second, Tier::kNone);
    }
    records_.erase(it);
    JournalErase(id);
    ++recovery_stats_.records_reconciled_missing;
  };
  for (const SessionId id : bad_chunks) {
    CA_LOG(Warn) << "recovery dropped chunk " << id << ": undecodable descriptor";
    raw_free(id);
  }
  // 2. A session whose block table references a missing chunk lost part of
  //    its prefix; drop it whole (refcounts are not derived yet, so this is
  //    a raw free, not DropRecord).
  std::vector<SessionId> bad_sessions;
  for (const auto& [id, r] : records_) {
    if (IsChunkId(id)) {
      continue;
    }
    for (const SessionId ref : r.chunk_refs) {
      if (chunks_.find(ref) == chunks_.end()) {
        bad_sessions.push_back(id);
        break;
      }
    }
  }
  for (const SessionId id : bad_sessions) {
    CA_LOG(Warn) << "recovery dropped session " << id << ": block table references a lost chunk";
    raw_free(id);
  }
  // 3. Derive refcounts from the surviving tables — the journal never
  //    stores them, so replay can neither double-free nor leak.
  for (const auto& [id, r] : records_) {
    if (IsChunkId(id)) {
      continue;
    }
    for (const SessionId ref : r.chunk_refs) {
      ++chunks_.at(ref).refcount;
    }
  }
  // 4. Chunks with zero surviving referrers are garbage from the crash
  //    window (e.g. the referrer's upsert never hit the journal).
  std::vector<SessionId> orphans;
  for (const auto& [id, chunk] : chunks_) {
    if (chunk.refcount == 0) {
      orphans.push_back(id);
    }
  }
  for (const SessionId id : orphans) {
    CA_LOG(Info) << "recovery garbage-collected orphan chunk " << id;
    const SharedChunk chunk = chunks_.at(id);
    raw_free(id);
    auto& bucket = prefix_index_.at(chunk.key);
    bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
    if (bucket.empty()) {
      prefix_index_.erase(chunk.key);
    }
    chunks_.erase(id);
  }
}

AttentionStore::TierList AttentionStore::EnabledTiers() const {
  TierList tiers;
  for (const Tier t : {Tier::kHbm, Tier::kDram, Tier::kDisk}) {
    if (TierEnabled(t)) {
      tiers.tiers[tiers.count++] = t;
    }
  }
  return tiers;
}

Tier AttentionStore::NextSlowerTier(Tier tier) const {
  const auto idx = static_cast<std::size_t>(tier);
  for (std::size_t i = idx + 1; i < kNumTiers; ++i) {
    if (TierEnabled(static_cast<Tier>(i))) {
      return static_cast<Tier>(i);
    }
  }
  return Tier::kNone;
}

std::uint64_t AttentionStore::RoundToBlocks(std::uint64_t bytes) const {
  const std::uint64_t blocks = (bytes + config_.block_bytes - 1) / config_.block_bytes;
  return blocks * config_.block_bytes;
}

std::uint64_t AttentionStore::CapacityBytes(Tier tier) const {
  switch (tier) {
    case Tier::kHbm:
      return config_.hbm_capacity / config_.block_bytes * config_.block_bytes;
    case Tier::kDram:
      return config_.dram_capacity / config_.block_bytes * config_.block_bytes;
    case Tier::kDisk:
      return config_.disk_capacity / config_.block_bytes * config_.block_bytes;
    case Tier::kNone:
      return 0;
  }
  return 0;
}

std::uint64_t AttentionStore::UsedBytes(Tier tier) const {
  if (tier == Tier::kNone) {
    return 0;
  }
  return used_bytes_[static_cast<std::size_t>(tier)];
}

std::uint64_t AttentionStore::FreeBytes(Tier tier) const {
  return CapacityBytes(tier) - UsedBytes(tier);
}

TierHealth AttentionStore::tier_health(Tier tier) const {
  if (tier == Tier::kNone) {
    return TierHealth::kHealthy;
  }
  return tier_health_[static_cast<std::size_t>(tier)].health;
}

BlockStorage* AttentionStore::Storage(Tier tier) {
  if (tier == Tier::kNone) {
    return nullptr;
  }
  return storages_[static_cast<std::size_t>(tier)].get();
}

const BlockStorage* AttentionStore::Storage(Tier tier) const {
  if (tier == Tier::kNone) {
    return nullptr;
  }
  return storages_[static_cast<std::size_t>(tier)].get();
}

void AttentionStore::CheckInvariants() const {
  std::array<std::uint64_t, kNumTiers> tier_bytes = {0, 0, 0};
  std::array<std::uint64_t, kNumTiers> tier_blocks = {0, 0, 0};
  for (const auto& [id, r] : records_) {
    CA_CHECK_EQ(id, r.session) << "record keyed under the wrong session";
    CA_CHECK(r.tier != Tier::kNone) << "session " << id << " has a record without a tier";
    CA_CHECK(TierEnabled(r.tier)) << "session " << id << " resides in disabled tier "
                                  << TierName(r.tier);
    CA_CHECK_GT(r.bytes, 0ULL) << "session " << id << " has an empty record";
    CA_CHECK_EQ(r.block_bytes, RoundToBlocks(r.bytes))
        << "session " << id << " block charge does not match its block-rounded size";
    if (config_.real_payloads) {
      CA_CHECK(!r.extent.empty()) << "session " << id << " lost its payload extent";
      CA_CHECK_EQ(r.extent.byte_length, r.bytes)
          << "session " << id << " extent length drifted from its logical size";
      CA_CHECK_EQ(r.extent.blocks.size() * config_.block_bytes, r.block_bytes)
          << "session " << id << " extent block count does not match its block charge";
    } else {
      CA_CHECK(r.extent.empty()) << "session " << id << " owns an extent without payloads";
    }
    tier_bytes[static_cast<std::size_t>(r.tier)] += r.block_bytes;
    tier_blocks[static_cast<std::size_t>(r.tier)] += r.extent.blocks.size();
  }
  // Prefix sharing (DESIGN.md §17): registry/records 1:1, every table entry
  // resolves, refcounts equal the number of referencing tables (plus
  // in-flight pins), and the index holds each chunk exactly once.
  std::size_t chunk_records = 0;
  std::unordered_map<SessionId, std::uint32_t> derived_refs;
  for (const auto& [id, r] : records_) {
    if (IsChunkId(id)) {
      ++chunk_records;
      const auto cit = chunks_.find(id);
      CA_CHECK(cit != chunks_.end()) << "chunk record " << id << " missing from the registry";
      CA_CHECK_EQ(r.token_count, cit->second.tokens.size())
          << "chunk " << id << " token count drifted from its descriptor";
      CA_CHECK(r.chunk_refs.empty()) << "chunk " << id << " owns a block table";
      const auto idx = prefix_index_.find(cit->second.key);
      CA_CHECK(idx != prefix_index_.end()) << "chunk " << id << " missing from the prefix index";
      CA_CHECK_EQ(std::count(idx->second.begin(), idx->second.end(), id), 1)
          << "chunk " << id << " indexed other than exactly once";
    } else {
      for (const SessionId ref : r.chunk_refs) {
        CA_CHECK(IsChunkId(ref)) << "session " << id << " block table holds a non-chunk id";
        CA_CHECK(records_.find(ref) != records_.end())
            << "session " << id << " block table references freed chunk " << ref;
        ++derived_refs[ref];
      }
    }
  }
  CA_CHECK_EQ(chunk_records, chunks_.size()) << "chunk registry drifted from chunk records";
  for (const SessionId pin : pinned_chunks_) {
    ++derived_refs[pin];
  }
  for (const auto& [id, chunk] : chunks_) {
    CA_CHECK_GT(chunk.refcount, 0U) << "zero-ref chunk " << id << " leaked";
    const auto dit = derived_refs.find(id);
    CA_CHECK(dit != derived_refs.end() && dit->second == chunk.refcount)
        << "chunk " << id << " refcount drifted from its referencing tables";
  }
  std::size_t indexed = 0;
  for (const auto& [key, bucket] : prefix_index_) {
    CA_CHECK(!bucket.empty()) << "empty prefix-index bucket leaked";
    indexed += bucket.size();
    for (const SessionId id : bucket) {
      const auto cit = chunks_.find(id);
      CA_CHECK(cit != chunks_.end() && cit->second.key == key)
          << "prefix index entry " << id << " does not match its chunk";
    }
  }
  CA_CHECK_EQ(indexed, chunks_.size()) << "prefix index size drifted from the chunk registry";
  for (const Tier tier : {Tier::kHbm, Tier::kDram, Tier::kDisk}) {
    const auto idx = static_cast<std::size_t>(tier);
    CA_CHECK_LE(used_bytes_[idx], CapacityBytes(tier))
        << TierName(tier) << " holds more than its capacity";
    CA_CHECK_EQ(used_bytes_[idx], tier_bytes[idx])
        << "used_bytes drifted from the records resident in " << TierName(tier);
    if (const BlockStorage* storage = Storage(tier); storage != nullptr) {
      CA_CHECK_EQ(storage->UsedBlocks(), tier_blocks[idx])
          << TierName(tier) << " allocator blocks drifted from the resident extents";
    }
  }
  if (meta_ != nullptr) {
    // Durable mode: the journal's live table must mirror records_ exactly
    // (last_access excluded — Access refreshes are not journaled).
    CA_CHECK_EQ(meta_->live().size(), records_.size())
        << "journal live table size drifted from the record map";
    for (const auto& [id, r] : records_) {
      const auto mit = meta_->live().find(id);
      CA_CHECK(mit != meta_->live().end()) << "session " << id << " missing from the journal";
      const MetaRecord& m = mit->second;
      CA_CHECK(m.tier == r.tier) << "session " << id << " journal tier drifted";
      CA_CHECK_EQ(m.bytes, r.bytes) << "session " << id << " journal size drifted";
      CA_CHECK_EQ(m.token_count, r.token_count)
          << "session " << id << " journal token count drifted";
      CA_CHECK_EQ(m.insert_seq, r.insert_seq) << "session " << id << " journal seq drifted";
      CA_CHECK_EQ(m.checksum, r.checksum) << "session " << id << " journal checksum drifted";
      CA_CHECK(m.user_meta == r.user_meta)
          << "session " << id << " journal user_meta drifted from the record copy";
      CA_CHECK(m.chunk_refs == r.chunk_refs)
          << "session " << id << " journal block table drifted from the record copy";
      if (r.tier == Tier::kDisk) {
        CA_CHECK(m.blocks == r.extent.blocks)
            << "session " << id << " journal extent drifted from the disk extent";
      } else {
        CA_CHECK(m.blocks.empty())
            << "session " << id << " journals a disk extent while memory-resident";
      }
    }
  }
}

void AttentionStore::CorruptUsedBytesForTesting(Tier tier, std::int64_t delta) {
  CA_CHECK(tier != Tier::kNone);
  auto& used = used_bytes_[static_cast<std::size_t>(tier)];
  used = static_cast<std::uint64_t>(static_cast<std::int64_t>(used) + delta);
}

void AttentionStore::MaybeAudit() const {
  if (config_.audit) {
    CheckInvariants();
  }
}

// --- tier health machine ---------------------------------------------------

void AttentionStore::RecordTierSuccess(Tier tier) {
  auto& h = tier_health_[static_cast<std::size_t>(tier)];
  if (h.health == TierHealth::kQuarantined) {
    return;  // quarantine is sticky for the process lifetime
  }
  h.consecutive_permanent = 0;
  if (h.health == TierHealth::kDegraded) {
    CA_LOG(Info) << TierName(tier) << " tier recovered: degraded -> healthy";
    h.health = TierHealth::kHealthy;
  }
}

void AttentionStore::RecordTierFault(Tier tier, const Status& status) {
  const bool permanent = IsPermanentIoFailure(status.code());
  if (status.code() == StatusCode::kUnavailable) {
    ++stats_.transient_io_faults;
  } else if (permanent) {
    ++stats_.permanent_io_faults;
  } else {
    return;  // e.g. kResourceExhausted: the pool is full, not broken
  }
  auto& h = tier_health_[static_cast<std::size_t>(tier)];
  if (h.health == TierHealth::kQuarantined) {
    return;
  }
  if (permanent) {
    ++h.consecutive_permanent;
    if (h.consecutive_permanent >= config_.quarantine_after) {
      MarkQuarantined(tier, status);
      return;
    }
  }
  if (h.health != TierHealth::kDegraded) {
    CA_LOG(Warn) << TierName(tier) << " tier degraded: " << status;
    h.health = TierHealth::kDegraded;
  }
}

void AttentionStore::MarkQuarantined(Tier tier, const Status& cause) {
  auto& h = tier_health_[static_cast<std::size_t>(tier)];
  if (h.health == TierHealth::kQuarantined) {
    return;
  }
  CA_LOG(Warn) << TierName(tier) << " tier quarantined after " << h.consecutive_permanent
               << " consecutive permanent I/O failures: " << cause;
  CA_TRACE_INSTANT("store.quarantine", "tier", TierName(tier));
  h.health = TierHealth::kQuarantined;
  ++stats_.tiers_quarantined;
  // Record-dropping is deferred: callers may hold references into records_
  // mid-mutation. PurgeQuarantined() runs before the mutation's audit.
  quarantine_pending_ = true;
}

void AttentionStore::PurgeQuarantined() {
  if (!quarantine_pending_) {
    return;
  }
  quarantine_pending_ = false;
  for (const Tier tier : {Tier::kHbm, Tier::kDram, Tier::kDisk}) {
    if (tier_health_[static_cast<std::size_t>(tier)].health != TierHealth::kQuarantined) {
      continue;
    }
    // Snapshot residents first: DropRecord/DropChunkReferrers mutate the
    // map (and an earlier cascade may already have freed a later entry).
    // Allocator-only frees throughout — safe on a dead device.
    std::vector<SessionId> resident;
    for (const auto& [id, r] : records_) {
      if (r.tier == tier) {
        resident.push_back(id);
      }
    }
    for (const SessionId id : resident) {
      if (records_.find(id) == records_.end()) {
        continue;  // freed by an earlier referrer cascade
      }
      if (IsChunkId(id)) {
        // A dead chunk is a miss for every referrer, wherever they reside.
        DropChunkReferrers(id, &StoreStats::fault_evictions);
      } else {
        DropRecord(id);
        ++stats_.fault_evictions;
      }
    }
  }
}

// --- retrying tier I/O -----------------------------------------------------

Result<AttentionStore::WriteReceipt> AttentionStore::WriteWithRetry(BlockStorage& storage,
                                                                    PayloadSource& source,
                                                                    Tier tier) {
  const std::uint64_t start_ns = TraceNowNs();
  std::uint64_t backoff_us = config_.io_retry_backoff_us;
  for (std::uint32_t attempt = 0;; ++attempt) {
    source.Reset();
    HashingSource hashed(source, config_.verify_checksums);
    auto extent = storage.WriteZeroCopy(hashed);
    if (extent.ok()) {
      RecordTierSuccess(tier);
      auto& io = stats_.tier_io[static_cast<std::size_t>(tier)];
      io.write_bytes += extent->byte_length;
      io.write_ns += TraceNowNs() - start_ns;
      return WriteReceipt{.extent = std::move(*extent), .checksum = hashed.digest()};
    }
    if (extent.status().code() == StatusCode::kUnavailable && attempt < config_.io_retries) {
      ++stats_.io_retries;
      CA_TRACE_INSTANT("store.io_retry", "tier", TierName(tier), "attempt", attempt + 1);
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        backoff_us *= 2;
      }
      continue;
    }
    RecordTierFault(tier, extent.status());
    return extent.status();
  }
}

Status AttentionStore::ReadVerifiedStream(std::span<const KvRecord* const> pieces,
                                          PayloadSink& sink, SessionId* failed) {
  std::uint64_t backoff_us = config_.io_retry_backoff_us;
  for (std::uint32_t attempt = 0;; ++attempt) {
    sink.Reset();  // every attempt replays the pass from the first piece
    const KvRecord* piece = nullptr;
    Status read = Status::Ok();
    for (const KvRecord* p : pieces) {
      piece = p;
      read = ReadPiece(*p, sink);
      if (!read.ok()) {
        break;
      }
    }
    if (read.ok()) {
      return read;
    }
    if (read.code() == StatusCode::kUnavailable && attempt < config_.io_retries) {
      ++stats_.io_retries;
      CA_TRACE_INSTANT("store.io_retry", "tier", TierName(piece->tier), "attempt", attempt + 1);
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        backoff_us *= 2;
      }
      continue;
    }
    RecordTierFault(piece->tier, read);
    *failed = piece->session;
    return read;
  }
}

Status AttentionStore::ReadPiece(const KvRecord& piece, PayloadSink& sink) {
  const std::uint64_t start_ns = TraceNowNs();
  BlockStorage* storage = Storage(piece.tier);
  CA_CHECK(storage != nullptr);
  HashingSink hashed(sink, config_.verify_checksums);
  CA_RETURN_IF_ERROR(storage->ReadZeroCopy(piece.extent, hashed));
  if (config_.verify_checksums && hashed.digest() != piece.checksum) {
    // Corrupt bytes read back "successfully": a torn write or short read.
    // Retrying cannot help (the damage is persistent or the next read is
    // equally suspect); the payload must never reach attention — and the
    // sink, which has already seen the torn bytes, is told so by the
    // non-OK return.
    ++stats_.corrupt_payloads;
    CA_TRACE_INSTANT("store.corrupt_payload", "session", piece.session, "tier",
                     TierName(piece.tier));
    return DataLossError("session " + std::to_string(piece.session) +
                         " payload failed checksum verification in " +
                         std::string(TierName(piece.tier)));
  }
  RecordTierSuccess(piece.tier);
  auto& io = stats_.tier_io[static_cast<std::size_t>(piece.tier)];
  io.read_bytes += piece.bytes;
  io.read_ns += TraceNowNs() - start_ns;
  return Status::Ok();
}

// --- lookup ----------------------------------------------------------------

Tier AttentionStore::Lookup(SessionId session) const {
  const auto it = records_.find(session);
  return it == records_.end() ? Tier::kNone : it->second.tier;
}

std::optional<KvRecordInfo> AttentionStore::GetInfo(SessionId session) const {
  const auto it = records_.find(session);
  if (it == records_.end()) {
    return std::nullopt;
  }
  const KvRecord& r = it->second;
  return KvRecordInfo{.session = r.session,
                      .tier = r.tier,
                      .bytes = r.bytes,
                      .token_count = r.token_count,
                      .last_access = r.last_access,
                      .payload_bytes = PayloadBytes(r)};
}

std::uint64_t AttentionStore::PayloadBytes(const KvRecord& record) const {
  std::uint64_t bytes = record.bytes;
  for (const SessionId ref : record.chunk_refs) {
    bytes += records_.at(ref).bytes;
  }
  return bytes;
}

std::optional<KvRecordInfo> AttentionStore::Access(SessionId session, SimTime now) {
  ++stats_.lookups;
  const auto it = records_.find(session);
  if (it == records_.end()) {
    ++stats_.misses;
    miss_counter_->Add();
    CA_TRACE_INSTANT("store.miss", "session", session);
    return std::nullopt;
  }
  KvRecord& r = it->second;
  switch (r.tier) {
    case Tier::kHbm:
      ++stats_.hbm_hits;
      break;
    case Tier::kDram:
      ++stats_.dram_hits;
      break;
    case Tier::kDisk:
      ++stats_.disk_hits;
      break;
    case Tier::kNone:
      CA_CHECK(false) << "record without tier";
  }
  hit_counters_[static_cast<std::size_t>(r.tier)]->Add();
  CA_TRACE_INSTANT("store.hit", "session", session, "tier", TierName(r.tier));
  r.last_access = now;
  // A hit on the session is a hit on every chunk its prefix lives in: keep
  // shared blocks recency-warm so LRU-ish policies do not evict a block the
  // hottest sessions still reference.
  for (const SessionId ref : r.chunk_refs) {
    if (const auto cit = records_.find(ref); cit != records_.end()) {
      cit->second.last_access = now;
    }
  }
  JournalAccessMaybe(r);
  return GetInfo(session);
}

std::optional<SessionId> AttentionStore::PickVictim(Tier tier, SessionId exclude,
                                                    const SchedulerHints& hints) {
  // Chunks referenced by `exclude` are as untouchable as `exclude` itself:
  // evicting one would cascade-drop the excluded session's record while a
  // caller may hold a reference into it.
  const std::vector<SessionId>* exclude_refs = nullptr;
  if (const auto eit = records_.find(exclude);
      eit != records_.end() && !eit->second.chunk_refs.empty()) {
    exclude_refs = &eit->second.chunk_refs;
  }
  std::vector<VictimView> candidates;
  for (const auto& [id, r] : records_) {
    if (r.tier != tier || id == exclude) {
      continue;
    }
    std::uint32_t shared_refs = 0;
    if (IsChunkId(id)) {
      if (std::find(pinned_chunks_.begin(), pinned_chunks_.end(), id) != pinned_chunks_.end()) {
        continue;  // in-flight pin: refcount cannot drain through referrers
      }
      if (exclude_refs != nullptr &&
          std::find(exclude_refs->begin(), exclude_refs->end(), id) != exclude_refs->end()) {
        continue;
      }
      shared_refs = chunks_.at(id).refcount;
    }
    candidates.push_back(VictimView{.session = id,
                                    .last_access = r.last_access,
                                    .insert_seq = r.insert_seq,
                                    .bytes = r.bytes,
                                    .shared_refs = shared_refs});
  }
  if (candidates.empty()) {
    return std::nullopt;
  }
  return policy_->PickVictim(candidates, hints);
}

Status AttentionStore::MoveRecord(KvRecord& record, Tier target) {
  const Tier source = record.tier;
  CA_CHECK(source != target);
  CA_TRACE_SPAN("store.move", "session", record.session, "from", TierName(source),
                "to", TierName(target), "bytes", record.bytes);
  // Move payload bytes first (real mode); accounting follows only once the
  // bytes are safely at the target, so a failure rolls back completely.
  if (config_.real_payloads && !record.extent.empty()) {
    BlockStorage* src_storage = Storage(source);
    CA_CHECK(src_storage != nullptr);
    if (target == Tier::kNone) {
      src_storage->Free(record.extent);
    } else {
      BlockStorage* dst_storage = Storage(target);
      CA_CHECK(dst_storage != nullptr);
      VectorSink data;
      data.data.reserve(record.bytes);
      const KvRecord* piece = &record;
      SessionId failed = kInvalidSession;
      const Status read = ReadVerifiedStream({&piece, 1}, data, &failed);
      if (!read.ok()) {
        if (read.code() == StatusCode::kUnavailable) {
          return read;  // transient: record untouched, retryable later
        }
        // Source payload unrecoverable: release the record (see contract in
        // the header) — the caller erases the map entry.
        src_storage->Free(record.extent);
        used_bytes_[static_cast<std::size_t>(source)] -= record.block_bytes;
        record.tier = Tier::kNone;
        return read;
      }
      SpanSource bytes(data.data);
      auto receipt = WriteWithRetry(*dst_storage, bytes, target);
      if (!receipt.ok()) {
        return receipt.status();  // nothing mutated: full rollback
      }
      src_storage->Free(record.extent);
      record.extent = std::move(receipt->extent);
      record.checksum = receipt->checksum;
    }
  }
  if (source != Tier::kNone) {
    used_bytes_[static_cast<std::size_t>(source)] -= record.block_bytes;
  }
  if (target != Tier::kNone) {
    used_bytes_[static_cast<std::size_t>(target)] += record.block_bytes;
  }
  record.tier = target;
  return Status::Ok();
}

bool AttentionStore::EnsureRoom(Tier tier, std::uint64_t needed, SessionId exclude, SimTime now,
                                const SchedulerHints& hints) {
  if (needed > CapacityBytes(tier)) {
    return false;
  }
  while (FreeBytes(tier) < needed) {
    const auto victim = PickVictim(tier, exclude, hints);
    if (!victim.has_value()) {
      return false;
    }
    const std::uint64_t victim_block_bytes = records_.at(*victim).block_bytes;
    const Tier down = NextSlowerTier(tier);
    bool demoted = false;
    bool move_failed = false;
    if (down != Tier::kNone && EnsureRoom(down, victim_block_bytes, exclude, now, hints)) {
      // Revalidate: the recursive call may have cascade-dropped the victim
      // (a session whose shared chunk was evicted from the lower tier).
      const auto vit = records_.find(*victim);
      if (vit == records_.end()) {
        continue;
      }
      KvRecord& r = vit->second;
      const Status moved = MoveRecord(r, down);
      if (moved.ok()) {
        demoted = true;
        ++stats_.demotions;
        stats_.bytes_demoted += r.bytes;
        JournalUpsert(r, {}, /*keep_existing_user_meta=*/true);
      } else {
        ++stats_.failed_moves;
        move_failed = true;
      }
    }
    if (!demoted) {
      // Nowhere below, or the demotion I/O failed. Room must still be made,
      // so the victim leaves the system — soft state, the cost is a miss.
      if (IsChunkId(*victim)) {
        // Evicting a shared chunk makes every referencing session a
        // consistent miss; the cascade drives the refcount to zero and
        // frees the chunk itself.
        DropChunkReferrers(*victim, move_failed ? &StoreStats::fault_evictions
                                                : &StoreStats::evictions_out);
      } else {
        if (move_failed) {
          ++stats_.fault_evictions;
        } else {
          ++stats_.evictions_out;
        }
        DropRecord(*victim);
      }
    }
  }
  return true;
}

Result<AttentionStore::Placement> AttentionStore::PlacePayload(std::uint64_t bytes,
                                                               PayloadSource* source,
                                                               SessionId exclude, SimTime now,
                                                               const SchedulerHints& hints) {
  const std::uint64_t block_bytes = RoundToBlocks(bytes);
  // Built lazily: the hot path (placement succeeds on the first tier) must
  // not pay for formatting a failure message it never returns.
  std::optional<Status> failure;
  for (const Tier tier : EnabledTiers()) {
    // A tier picked up-front can be quarantined by I/O failures while this
    // very placement makes room or tries a faster tier; re-check before
    // using it.
    if (!TierEnabled(tier)) {
      continue;
    }
    if (!EnsureRoom(tier, block_bytes, exclude, now, hints)) {
      continue;
    }
    if (!TierEnabled(tier)) {
      continue;
    }
    if (source == nullptr) {
      return Placement{.tier = tier, .extent = {}, .checksum = 0};
    }
    auto receipt = WriteWithRetry(*Storage(tier), *source, tier);
    if (!receipt.ok()) {
      // A failed save is a future miss, never an abort: degrade to the
      // next slower tier (or report that the payload fits nowhere).
      ++stats_.failed_puts;
      failure = receipt.status();
      continue;
    }
    return Placement{.tier = tier,
                     .extent = std::move(receipt->extent),
                     .checksum = receipt->checksum};
  }
  return failure.has_value() ? *failure
                             : ResourceExhaustedError("KV payload of session " +
                                                      std::to_string(exclude) + " fits in no tier");
}

void AttentionStore::InsertRecord(KvRecord record) {
  used_bytes_[static_cast<std::size_t>(record.tier)] += record.block_bytes;
  const SessionId session = record.session;
  const auto [it, inserted] = records_.emplace(session, std::move(record));
  CA_CHECK(inserted);
  JournalUpsert(it->second, it->second.user_meta, /*keep_existing_user_meta=*/false);
}

Status AttentionStore::Put(SessionId session, ChunkedPayloadSource& payload,
                           std::span<const std::uint32_t> dedup_tokens, SimTime now,
                           const SchedulerHints& hints, std::span<const std::uint8_t> user_meta) {
  CA_CHECK(config_.real_payloads) << "payload Put on a capacity-only store";
  CA_CHECK(!IsChunkId(session)) << "session ids must not carry the chunk bit";
  const std::uint64_t total_tokens = payload.total_tokens();
  const std::uint64_t bpt = payload.bytes_per_token();
  CA_CHECK_GT(total_tokens * bpt, 0ULL) << "empty payload";
  CA_TRACE_SPAN("store.put", "session", session, "bytes", total_tokens * bpt);

  // Full chunks offered to the prefix index. The session's own piece always
  // keeps >= 1 token, so every record has bytes > 0 and a real extent
  // (store invariant): an exact multiple keeps its last chunk private.
  std::uint64_t n_full = 0;
  const std::uint64_t chunk_tokens = std::max<std::uint32_t>(config_.share_chunk_tokens, 1);
  const bool dedup = config_.share_prefixes && !dedup_tokens.empty();
  if (dedup) {
    CA_CHECK_EQ(dedup_tokens.size(), total_tokens)
        << "token history disagrees with the payload's token count";
    n_full = (total_tokens - 1) / chunk_tokens;
  }

  // Snapshot the pre-existing record's identity up-front: its insertion
  // sequence survives the update, so FIFO order reflects first insertion.
  const auto old_it = records_.find(session);
  const bool existed = old_it != records_.end();
  const std::uint64_t insert_seq = existed ? old_it->second.insert_seq : next_insert_seq_++;

  // Walk the chunk chain: match-or-create. Each matched/created chunk is
  // refcounted AND pinned immediately, so room-making for later chunks can
  // neither free a fresh chunk (no referrer table exists yet) nor evict a
  // matched one. Chunk placement never touches the old record (`exclude`).
  std::vector<SessionId> new_refs;
  new_refs.reserve(n_full);
  SessionId parent = kInvalidSession;
  std::uint64_t parent_key = kChainSeed;
  std::uint64_t own_begin = 0;
  for (std::uint64_t c = 0; c < n_full; ++c) {
    const std::span<const std::uint32_t> span =
        dedup_tokens.subspan(c * chunk_tokens, chunk_tokens);
    const std::uint64_t key = ChainKey(parent_key, span);
    ++stats_.prefix_lookups;
    SessionId chunk_id = kInvalidSession;
    if (const auto idx = prefix_index_.find(key); idx != prefix_index_.end()) {
      for (const SessionId cand : idx->second) {
        const SharedChunk& cc = chunks_.at(cand);
        if (cc.parent == parent && cc.tokens.size() == span.size() &&
            std::equal(cc.tokens.begin(), cc.tokens.end(), span.begin())) {
          chunk_id = cand;
          break;
        }
      }
    }
    if (chunk_id != kInvalidSession) {
      ++stats_.prefix_hits;
      stats_.shared_bytes_saved += chunk_tokens * bpt;
    } else {
      PayloadSource& source = payload.Range(c * chunk_tokens, (c + 1) * chunk_tokens);
      auto placed = PlacePayload(chunk_tokens * bpt, &source, session, now, hints);
      if (!placed.ok()) {
        // The chunk fits nowhere: fold the rest of the prefix into the
        // session's own piece and stop deduplicating here.
        break;
      }
      chunk_id = kChunkSessionBit | next_chunk_id_++;
      InsertRecord(KvRecord{.session = chunk_id,
                            .tier = placed->tier,
                            .bytes = chunk_tokens * bpt,
                            .block_bytes = RoundToBlocks(chunk_tokens * bpt),
                            .token_count = chunk_tokens,
                            .last_access = now,
                            .insert_seq = next_insert_seq_++,
                            .extent = std::move(placed->extent),
                            .checksum = placed->checksum,
                            .user_meta = EncodeChunkMeta(key, parent, span),
                            .chunk_refs = {}});
      chunks_.emplace(chunk_id, SharedChunk{key, parent, {span.begin(), span.end()}, 0});
      prefix_index_[key].push_back(chunk_id);
      ++stats_.chunks_created;
    }
    RefChunk(chunk_id);
    pinned_chunks_.push_back(chunk_id);
    new_refs.push_back(chunk_id);
    parent = chunk_id;
    parent_key = key;
    own_begin = (c + 1) * chunk_tokens;
  }

  // Release the old record now so its own space counts as free for the
  // placement below (this also decrefs its old block table; chunks this
  // save re-matched stay alive through the references taken above).
  if (existed) {
    DropRecord(session);
  }

  // The session's own piece: the divergent remainder (plus any chunks that
  // found no room) — the whole payload when nothing was offered for dedup.
  const std::uint64_t own_bytes = (total_tokens - own_begin) * bpt;
  PayloadSource& own_source = payload.Range(own_begin, total_tokens);
  auto placed = PlacePayload(own_bytes, &own_source, session, now, hints);
  pinned_chunks_.clear();
  if (!placed.ok()) {
    // Nothing to keep: un-reference (and thereby free any freshly created)
    // chunks. DropRecord already told the journal the session is gone.
    for (const SessionId ref : new_refs) {
      UnrefChunk(ref);
    }
    PurgeQuarantined();
    MaybeAudit();
    return placed.status();
  }
  InsertRecord(KvRecord{.session = session,
                        .tier = placed->tier,
                        .bytes = own_bytes,
                        .block_bytes = RoundToBlocks(own_bytes),
                        .token_count = total_tokens,
                        .last_access = now,
                        .insert_seq = insert_seq,
                        .extent = std::move(placed->extent),
                        .checksum = placed->checksum,
                        .user_meta = {user_meta.begin(), user_meta.end()},
                        .chunk_refs = std::move(new_refs)});
  ++(existed ? stats_.updates : stats_.inserts);
  if (dedup) {
    ++stats_.shared_puts;
  }
  PurgeQuarantined();
  MaybeAudit();
  return Status::Ok();
}

Status AttentionStore::Put(SessionId session, std::uint64_t bytes, std::uint64_t token_count,
                           SimTime now, const SchedulerHints& hints,
                           std::span<const std::uint8_t> user_meta) {
  CA_CHECK(!config_.real_payloads) << "capacity-only Put on a real-payload store";
  CA_CHECK(!IsChunkId(session)) << "session ids must not carry the chunk bit";
  CA_CHECK_GT(bytes, 0ULL);
  CA_TRACE_SPAN("store.put", "session", session, "bytes", bytes);
  const auto old_it = records_.find(session);
  const bool existed = old_it != records_.end();
  const std::uint64_t insert_seq = existed ? old_it->second.insert_seq : next_insert_seq_++;
  if (existed) {
    DropRecord(session);
  }
  auto placed = PlacePayload(bytes, /*source=*/nullptr, session, now, hints);
  if (!placed.ok()) {
    PurgeQuarantined();
    MaybeAudit();
    return placed.status();
  }
  InsertRecord(KvRecord{.session = session,
                        .tier = placed->tier,
                        .bytes = bytes,
                        .block_bytes = RoundToBlocks(bytes),
                        .token_count = token_count,
                        .last_access = now,
                        .insert_seq = insert_seq,
                        .extent = {},
                        .checksum = 0,
                        .user_meta = {user_meta.begin(), user_meta.end()},
                        .chunk_refs = {}});
  ++(existed ? stats_.updates : stats_.inserts);
  PurgeQuarantined();
  MaybeAudit();
  return Status::Ok();
}

Status AttentionStore::ReadPayloadInto(SessionId session, PayloadSink& sink) {
  CA_CHECK(config_.real_payloads) << "ReadPayloadInto on capacity-only store";
  CA_TRACE_SPAN("store.read_payload", "session", session);
  const auto it = records_.find(session);
  if (it == records_.end()) {
    return NotFoundError("session " + std::to_string(session));
  }
  KvRecord& r = it->second;
  // The logical payload: the block table's chunks in order, then the
  // session's own piece (alone for a private record).
  std::vector<const KvRecord*> pieces;
  pieces.reserve(r.chunk_refs.size() + 1);
  for (const SessionId ref : r.chunk_refs) {
    pieces.push_back(&records_.at(ref));
  }
  pieces.push_back(&r);
  SessionId failed = kInvalidSession;
  const Status read = ReadVerifiedStream(pieces, sink, &failed);
  if (read.ok()) {
    for (const SessionId ref : r.chunk_refs) {
      records_.at(ref).last_access = r.last_access;
    }
    return read;
  }
  ++stats_.failed_reads;
  if (read.code() != StatusCode::kUnavailable) {
    // Permanent failure or corruption: the payload is untrustworthy. Drop
    // it so this miss is consistent on every subsequent lookup — for a
    // shared chunk, for every session that references it.
    if (IsChunkId(failed)) {
      DropChunkReferrers(failed, &StoreStats::fault_evictions);
    } else {
      DropRecord(session);
      ++stats_.fault_evictions;
    }
  }
  PurgeQuarantined();
  MaybeAudit();
  return read;
}

Result<std::vector<std::uint8_t>> AttentionStore::ReadPayload(SessionId session) {
  VectorSink sink;
  sink.data.reserve(GetInfo(session).value_or(KvRecordInfo{}).payload_bytes);
  CA_RETURN_IF_ERROR(ReadPayloadInto(session, sink));
  return std::move(sink.data);
}

Result<ExportedRecord> AttentionStore::ExportRecord(SessionId session) {
  CA_TRACE_SPAN("store.export", "session", session);
  if (records_.find(session) == records_.end()) {
    return NotFoundError("session " + std::to_string(session));
  }
  // Read the payload before snapshotting the metadata: a permanent read
  // failure drops the record (ReadPayload semantics), so the record lookup
  // below is only valid after a clean read. A session with shared chunks
  // exports its materialized full payload — self-contained by design, the
  // importing store knows nothing of this store's chunk registry.
  std::vector<std::uint8_t> payload;
  if (config_.real_payloads) {
    CA_ASSIGN_OR_RETURN(payload, ReadPayload(session));
  }
  const KvRecord& r = records_.at(session);
  ExportedRecord out;
  out.session = session;
  out.bytes = PayloadBytes(r);
  out.token_count = r.token_count;
  out.checksum = config_.verify_checksums && !payload.empty() ? Checksum64(payload) : 0;
  out.last_access = r.last_access;
  out.payload = std::move(payload);
  out.user_meta = r.user_meta;
  ++stats_.exports;
  return out;
}

Status AttentionStore::ImportRecord(const ExportedRecord& record, SimTime now,
                                    const SchedulerHints& hints) {
  CA_TRACE_SPAN("store.import", "session", record.session, "bytes", record.bytes);
  if (record.session == kInvalidSession || record.bytes == 0) {
    return InvalidArgumentError("exported record is empty");
  }
  if (records_.find(record.session) != records_.end()) {
    return AlreadyExistsError("session " + std::to_string(record.session) +
                              " already resident; import never overwrites");
  }
  Status placed;
  if (config_.real_payloads) {
    if (record.payload.size() != record.bytes) {
      return InvalidArgumentError("exported payload size disagrees with its metadata");
    }
    // The payload comes from outside the store: it must split into whole
    // tokens before it can become a token-addressed record.
    if (record.token_count == 0 || record.bytes % record.token_count != 0) {
      return InvalidArgumentError("exported payload of " + std::to_string(record.bytes) +
                                  " bytes does not split into " +
                                  std::to_string(record.token_count) + " whole tokens");
    }
    // Re-verify on the importing side: the checksum was stamped over the
    // clean pre-transport bytes, so damage between export and import
    // surfaces here, before any block is written.
    if (config_.verify_checksums && record.checksum != 0 &&
        Checksum64(record.payload) != record.checksum) {
      ++stats_.corrupt_payloads;
      return DataLossError("session " + std::to_string(record.session) +
                           " import payload failed checksum re-verification");
    }
    SpanChunkSource source(record.payload, record.bytes / record.token_count);
    placed = Put(record.session, source, /*dedup_tokens=*/{}, now, hints, record.user_meta);
  } else {
    placed = Put(record.session, record.bytes, record.token_count, now, hints, record.user_meta);
  }
  if (placed.ok()) {
    ++stats_.imports;
  }
  return placed;
}

Status AttentionStore::Promote(SessionId session, SimTime now, const SchedulerHints& hints) {
  // The §3.3.1 preload span: in overlap traces these run concurrent with
  // model.forward spans on the serving thread.
  CA_TRACE_SPAN("store.promote", "session", session);
  const auto it = records_.find(session);
  if (it == records_.end()) {
    return NotFoundError("session " + std::to_string(session));
  }
  KvRecord& r = it->second;
  if (r.tier != Tier::kDisk) {
    return FailedPreconditionError("session not on disk");
  }
  if (!TierEnabled(Tier::kDram)) {
    return FailedPreconditionError("DRAM tier disabled");
  }
  if (!EnsureRoom(Tier::kDram, r.block_bytes, session, now, hints)) {
    PurgeQuarantined();
    MaybeAudit();
    return ResourceExhaustedError("no DRAM room to promote session " + std::to_string(session));
  }
  const Status moved = MoveRecord(r, Tier::kDram);
  if (!moved.ok()) {
    ++stats_.failed_moves;
    if (r.tier == Tier::kNone) {  // source payload unrecoverable: record released
      DropRecord(session);
      ++stats_.fault_evictions;
    }
    PurgeQuarantined();
    MaybeAudit();
    return moved;
  }
  ++stats_.promotions;
  stats_.bytes_promoted += r.bytes;
  JournalUpsert(r, {}, /*keep_existing_user_meta=*/true);
  PurgeQuarantined();
  MaybeAudit();
  return Status::Ok();
}

Status AttentionStore::Demote(SessionId session, SimTime now, const SchedulerHints& hints) {
  CA_TRACE_SPAN("store.demote", "session", session);
  const auto it = records_.find(session);
  if (it == records_.end()) {
    return NotFoundError("session " + std::to_string(session));
  }
  KvRecord& r = it->second;
  const Tier down = NextSlowerTier(r.tier);
  if (down == Tier::kNone) {
    return FailedPreconditionError("no slower tier");
  }
  if (!EnsureRoom(down, r.block_bytes, session, now, hints)) {
    PurgeQuarantined();
    MaybeAudit();
    return ResourceExhaustedError("no room below");
  }
  const Status moved = MoveRecord(r, down);
  if (!moved.ok()) {
    ++stats_.failed_moves;
    if (r.tier == Tier::kNone) {  // source payload unrecoverable: record released
      DropRecord(session);
      ++stats_.fault_evictions;
    }
    PurgeQuarantined();
    MaybeAudit();
    return moved;
  }
  ++stats_.demotions;
  stats_.bytes_demoted += r.bytes;
  JournalUpsert(r, {}, /*keep_existing_user_meta=*/true);
  PurgeQuarantined();
  MaybeAudit();
  return Status::Ok();
}

std::size_t AttentionStore::MaintainDramBuffer(SimTime now, const SchedulerHints& hints) {
  if (!TierEnabled(Tier::kDram) || config_.dram_buffer == 0) {
    return 0;
  }
  std::size_t demoted = 0;
  while (FreeBytes(Tier::kDram) < config_.dram_buffer) {
    const auto victim = PickVictim(Tier::kDram, kInvalidSession, hints);
    if (!victim.has_value()) {
      break;
    }
    const std::uint64_t victim_block_bytes = records_.at(*victim).block_bytes;
    const Tier down = NextSlowerTier(Tier::kDram);
    bool moved_down = false;
    bool move_failed = false;
    if (down != Tier::kNone && EnsureRoom(down, victim_block_bytes, kInvalidSession, now, hints)) {
      // Revalidate: room-making below can cascade-drop the victim (shared
      // chunk eviction drops its referrers).
      const auto vit = records_.find(*victim);
      if (vit == records_.end()) {
        ++demoted;
        continue;
      }
      KvRecord& r = vit->second;
      const Status moved = MoveRecord(r, down);
      if (moved.ok()) {
        moved_down = true;
        ++stats_.demotions;
        stats_.bytes_demoted += r.bytes;
        JournalUpsert(r, {}, /*keep_existing_user_meta=*/true);
      } else {
        ++stats_.failed_moves;
        move_failed = true;
      }
    }
    if (!moved_down) {
      if (IsChunkId(*victim)) {
        DropChunkReferrers(*victim, move_failed ? &StoreStats::fault_evictions
                                                : &StoreStats::evictions_out);
      } else {
        if (move_failed) {
          ++stats_.fault_evictions;
        } else {
          ++stats_.evictions_out;
        }
        DropRecord(*victim);
      }
    }
    ++demoted;
  }
  PurgeQuarantined();
  if (config_.audit && TierEnabled(Tier::kDram)) {
    // §3.3.1 postcondition: the free-space buffer is restored unless DRAM
    // holds nothing left to demote (session records or shared chunks).
    bool dram_empty = true;
    for (const auto& [id, r] : records_) {
      if (r.tier == Tier::kDram) {
        dram_empty = false;
        break;
      }
    }
    CA_CHECK(FreeBytes(Tier::kDram) >= config_.dram_buffer || dram_empty)
        << "DRAM buffer not maintained although demotable records remain";
  }
  MaybeAudit();
  return demoted;
}

void AttentionStore::Remove(SessionId session) {
  if (records_.find(session) == records_.end()) {
    return;
  }
  DropRecord(session);
  MaybeAudit();
}

std::size_t AttentionStore::ExpireTtl(SimTime now) {
  if (config_.ttl <= 0) {
    return 0;
  }
  // Sessions only: a chunk's lifetime is its refcount — it dies with its
  // last referrer (and Access keeps referenced chunks recency-warm anyway).
  std::vector<SessionId> expired;
  for (const auto& [id, r] : records_) {
    if (!IsChunkId(id) && now - r.last_access > config_.ttl) {
      expired.push_back(id);
    }
  }
  for (const SessionId id : expired) {
    DropRecord(id);
  }
  stats_.ttl_expirations += expired.size();
  MaybeAudit();
  return expired.size();
}

std::vector<SessionId> AttentionStore::SessionsInTier(Tier tier) const {
  std::vector<SessionId> out;
  for (const auto& [id, r] : records_) {
    if (r.tier == tier && !IsChunkId(id)) {
      out.push_back(id);
    }
  }
  return out;
}

void AttentionStore::PublishMetrics(MetricsRegistry* registry) const {
  MetricsRegistry& reg = registry != nullptr ? *registry : MetricsRegistry::Global();
  const auto gauge = [&reg](std::string_view name, double v) { reg.GetGauge(name).Set(v); };
  gauge("store_stats.lookups", static_cast<double>(stats_.lookups));
  gauge("store_stats.misses", static_cast<double>(stats_.misses));
  gauge("store_stats.inserts", static_cast<double>(stats_.inserts));
  gauge("store_stats.updates", static_cast<double>(stats_.updates));
  gauge("store_stats.exports", static_cast<double>(stats_.exports));
  gauge("store_stats.imports", static_cast<double>(stats_.imports));
  gauge("store_stats.demotions", static_cast<double>(stats_.demotions));
  gauge("store_stats.promotions", static_cast<double>(stats_.promotions));
  gauge("store_stats.evictions_out", static_cast<double>(stats_.evictions_out));
  gauge("store_stats.ttl_expirations", static_cast<double>(stats_.ttl_expirations));
  gauge("store_stats.bytes_demoted", static_cast<double>(stats_.bytes_demoted));
  gauge("store_stats.bytes_promoted", static_cast<double>(stats_.bytes_promoted));
  gauge("store_stats.io_retries", static_cast<double>(stats_.io_retries));
  gauge("store_stats.transient_io_faults", static_cast<double>(stats_.transient_io_faults));
  gauge("store_stats.permanent_io_faults", static_cast<double>(stats_.permanent_io_faults));
  gauge("store_stats.corrupt_payloads", static_cast<double>(stats_.corrupt_payloads));
  gauge("store_stats.failed_puts", static_cast<double>(stats_.failed_puts));
  gauge("store_stats.failed_reads", static_cast<double>(stats_.failed_reads));
  gauge("store_stats.failed_moves", static_cast<double>(stats_.failed_moves));
  gauge("store_stats.fault_evictions", static_cast<double>(stats_.fault_evictions));
  gauge("store_stats.tiers_quarantined", static_cast<double>(stats_.tiers_quarantined));
  gauge("store_stats.tiers_disabled", static_cast<double>(stats_.tiers_disabled));
  gauge("store_stats.shared_puts", static_cast<double>(stats_.shared_puts));
  gauge("store_stats.prefix_lookups", static_cast<double>(stats_.prefix_lookups));
  gauge("store_stats.prefix_hits", static_cast<double>(stats_.prefix_hits));
  gauge("store_stats.chunks_created", static_cast<double>(stats_.chunks_created));
  gauge("store_stats.chunks_freed", static_cast<double>(stats_.chunks_freed));
  gauge("store_stats.shared_bytes_saved", static_cast<double>(stats_.shared_bytes_saved));
  gauge("store_stats.access_checkpoints", static_cast<double>(stats_.access_checkpoints));
  reg.GetGauge("store_stats.hits", {{"tier", "HBM"}}).Set(static_cast<double>(stats_.hbm_hits));
  reg.GetGauge("store_stats.hits", {{"tier", "DRAM"}})
      .Set(static_cast<double>(stats_.dram_hits));
  reg.GetGauge("store_stats.hits", {{"tier", "disk"}})
      .Set(static_cast<double>(stats_.disk_hits));
  for (const Tier tier : {Tier::kHbm, Tier::kDram, Tier::kDisk}) {
    const MetricLabels labels = {{"tier", std::string(TierName(tier))}};
    reg.GetGauge("store.used_bytes", labels).Set(static_cast<double>(UsedBytes(tier)));
    reg.GetGauge("store.capacity_bytes", labels)
        .Set(static_cast<double>(CapacityBytes(tier)));
    const StoreStats::TierIo& io = stats_.tier_io[static_cast<std::size_t>(tier)];
    reg.GetGauge("store.io_write_bytes", labels).Set(static_cast<double>(io.write_bytes));
    reg.GetGauge("store.io_read_bytes", labels).Set(static_cast<double>(io.read_bytes));
    reg.GetGauge("store.io_write_bytes_per_sec", labels).Set(io.write_bytes_per_sec());
    reg.GetGauge("store.io_read_bytes_per_sec", labels).Set(io.read_bytes_per_sec());
  }
  reg.GetGauge("store.records").Set(static_cast<double>(RecordCount()));
  reg.GetGauge("store.chunks").Set(static_cast<double>(ChunkCount()));
  if (meta_ != nullptr) {
    const RecoveryStats& rs = recovery_stats_;
    gauge("store_recovery.journal_entries_replayed",
          static_cast<double>(rs.journal_entries_replayed));
    gauge("store_recovery.records_recovered", static_cast<double>(rs.records_recovered));
    gauge("store_recovery.records_discarded_volatile",
          static_cast<double>(rs.records_discarded_volatile));
    gauge("store_recovery.records_discarded_torn",
          static_cast<double>(rs.records_discarded_torn));
    gauge("store_recovery.torn_tail_bytes", static_cast<double>(rs.torn_tail_bytes));
    gauge("store_recovery.records_conflict_dropped",
          static_cast<double>(rs.records_conflict_dropped));
    gauge("store_recovery.records_reconciled_missing",
          static_cast<double>(rs.records_reconciled_missing));
    gauge("store_recovery.replay_ns", static_cast<double>(rs.replay_ns));
    gauge("store_recovery.journal_bytes", static_cast<double>(meta_->journal_bytes()));
  }
}

}  // namespace ca
