#include "src/core/cached_attention.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"
#include "src/store/prefetcher.h"

namespace ca {

namespace {

// Wall-clock timestamp in SimTime units (ns) for TTL / recency bookkeeping
// on the real path. Uses the observability clock so engine timestamps and
// trace spans share one timeline (and so src/core stays clean under the
// no-raw-clock lint rule).
SimTime WallNow() { return static_cast<SimTime>(TraceNowNs()); }

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(TraceNowNs() - start_ns) * 1e-9;
}

// Adapters marrying the model-layer wire-form cursors to the store's
// payload protocol. The model cannot depend on the store (layering DAG) and
// vice versa, so the glue lives here in core.

// The store's view of the live cache: Put pulls exactly the token ranges it
// must write, each through a fresh TokenMajorSerializer cursor, so the KV
// bytes go tensors → tier block memory in one pass and dedup hits are never
// serialized at all.
class CacheChunkSource final : public ChunkedPayloadSource, private PayloadSource {
 public:
  explicit CacheChunkSource(const KvCache& cache) : cache_(&cache) {}

  std::uint64_t total_tokens() const override { return cache_->seq_len(); }
  std::uint64_t bytes_per_token() const override { return cache_->token_major_bytes_per_token(); }
  PayloadSource& Range(std::uint64_t token_begin, std::uint64_t token_end) override {
    cursor_.emplace(*cache_, static_cast<std::size_t>(token_begin),
                    static_cast<std::size_t>(token_end));
    return *this;
  }

 private:
  // PayloadSource over the current range.
  std::uint64_t size() const override { return cursor_->size(); }
  void Reset() override { cursor_->Reset(); }
  void Fill(std::span<std::uint8_t> dest) override { cursor_->Fill(dest); }

  const KvCache* cache_;
  std::optional<KvCache::TokenMajorSerializer> cursor_;
};

// Load side: the store streams tier bytes straight into the deserializer,
// which parses into the final tensor storage.
class TokenMajorSink final : public PayloadSink {
 public:
  explicit TokenMajorSink(KvCache::TokenMajorDeserializer& deserializer)
      : deserializer_(&deserializer) {}

  void Reset() override { deserializer_->Reset(); }
  void Consume(std::span<const std::uint8_t> chunk) override { deserializer_->Consume(chunk); }

 private:
  KvCache::TokenMajorDeserializer* deserializer_;
};

// The history as the store's dedup tokens (TokenId bit patterns).
std::span<const std::uint32_t> TokenBits(std::span<const TokenId> history) {
  static_assert(sizeof(TokenId) == sizeof(std::uint32_t));
  return {reinterpret_cast<const std::uint32_t*>(history.data()), history.size()};
}

// --- durable user-meta blob ---------------------------------------------
//
// Durable stores journal the visible token history next to each payload so
// a restarted process can rebuild the session, with the purity bit that
// decides whether its next save may dedup:
//   [u8 version=2][u8 kv_pure][raw TokenId history bytes]
constexpr std::uint8_t kHistoryMetaVersion = 2;

std::vector<std::uint8_t> EncodeHistoryMeta(std::span<const TokenId> history, bool kv_pure) {
  std::vector<std::uint8_t> blob(2 + history.size() * sizeof(TokenId));
  blob[0] = kHistoryMetaVersion;
  blob[1] = kv_pure ? 1 : 0;
  std::memcpy(blob.data() + 2, history.data(), history.size() * sizeof(TokenId));
  return blob;
}

struct DecodedHistoryMeta {
  std::vector<TokenId> history;
  bool kv_pure = false;
};

std::optional<DecodedHistoryMeta> DecodeHistoryMeta(const std::vector<std::uint8_t>& meta,
                                                    std::uint64_t token_count) {
  const std::uint64_t history_bytes = token_count * sizeof(TokenId);
  if (token_count == 0 || meta.size() != 2 + history_bytes || meta[0] != kHistoryMetaVersion ||
      meta[1] > 1) {
    return std::nullopt;
  }
  DecodedHistoryMeta out;
  out.kv_pure = meta[1] == 1;
  out.history.resize(token_count);
  std::memcpy(out.history.data(), meta.data() + 2, history_bytes);
  return out;
}

// The engine always stores real payloads: capacity-only mode exists for the
// simulator, not the execution path.
StoreConfig PatchedStoreConfig(const EngineOptions& options) {
  StoreConfig c = options.store;
  c.real_payloads = true;
  return c;
}

}  // namespace

CachedAttentionEngine::CachedAttentionEngine(const Transformer* model, EngineOptions options)
    : CachedAttentionEngine(StoreTag(), model, options,
                            AttentionStore(PatchedStoreConfig(options))) {}

Result<std::unique_ptr<CachedAttentionEngine>> CachedAttentionEngine::Create(
    const Transformer* model, EngineOptions options) {
  CA_ASSIGN_OR_RETURN(AttentionStore store, AttentionStore::Open(PatchedStoreConfig(options)));
  auto engine = std::make_unique<CachedAttentionEngine>(StoreTag(), model, std::move(options),
                                                        std::move(store));
  CA_RETURN_IF_ERROR(engine->RestoreSessions());
  return engine;
}

CachedAttentionEngine::CachedAttentionEngine(StoreTag, const Transformer* model,
                                             EngineOptions options, AttentionStore store)
    : model_(model), options_(std::move(options)), store_(std::move(store)) {
  CA_CHECK(model_ != nullptr);
  auto& registry = MetricsRegistry::Global();
  turns_counter_ = &registry.GetCounter("engine.turns");
  load_fault_counter_ = &registry.GetCounter("engine.cache_load_faults");
  prefill_seconds_hist_ = &registry.GetHistogram("engine.prefill_seconds");
  if (options_.async_save) {
    write_stream_ = std::make_unique<ThreadPool>(1);
    write_stream_->Submit([] { Tracer::Get().SetThreadName("kv-save-stream"); });
  }
}

CachedAttentionEngine::~CachedAttentionEngine() { Flush(); }

Status CachedAttentionEngine::RestoreSessions() {
  if (!options_.store.durable) {
    return Status::Ok();
  }
  MutexLock lock(mutex_);
  std::size_t restored = 0;
  std::size_t dropped = 0;
  // Recovery only resurrects the disk tier (memory tiers died with the old
  // process), so every recovered record lives there.
  for (const SessionId id : store_.SessionsInTier(Tier::kDisk)) {
    const auto info = store_.GetInfo(id);
    CA_CHECK(info.has_value());
    const std::vector<std::uint8_t>* meta = store_.UserMeta(id);
    std::optional<DecodedHistoryMeta> decoded =
        meta != nullptr ? DecodeHistoryMeta(*meta, info->token_count) : std::nullopt;
    if (!decoded.has_value()) {
      // KV bytes without a believable token history cannot serve a turn
      // (PrepareCache needs the text to detect length mismatches). Soft
      // state: drop to a clean miss.
      store_.Remove(id);
      ++dropped;
      continue;
    }
    SessionState& state = sessions_[id];
    state.history = std::move(decoded->history);
    state.kv_pure = decoded->kv_pure;
    ++restored;
  }
  if (restored > 0 || dropped > 0) {
    CA_LOG(Info) << "restored " << restored << " session(s) from the durable store"
                 << (dropped > 0 ? " (" + std::to_string(dropped) + " dropped: no usable history)"
                                 : "");
  }
  return Status::Ok();
}

void CachedAttentionEngine::Flush() {
  if (write_stream_ != nullptr) {
    write_stream_->Wait();
  }
}

void CachedAttentionEngine::SetQueueHint(std::vector<SessionId> upcoming) {
  MutexLock lock(mutex_);
  queue_hint_ = std::move(upcoming);
}

SchedulerHints CachedAttentionEngine::CurrentHintsLocked() const {
  SchedulerHints hints;
  for (std::size_t i = 0; i < queue_hint_.size(); ++i) {
    hints.next_use_index.emplace(queue_hint_[i], i);
  }
  return hints;
}

void CachedAttentionEngine::WaitForPendingSave(SessionId session) {
  MutexLock lock(mutex_);
  save_done_.Wait(mutex_, [&] {
    mutex_.AssertHeld();
    return pending_saves_.count(session) == 0;
  });
}

std::vector<TokenId> CachedAttentionEngine::SessionHistory(SessionId session) const {
  MutexLock lock(mutex_);
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? std::vector<TokenId>{} : it->second.history;
}

void CachedAttentionEngine::EndSession(SessionId session) {
  WaitForPendingSave(session);
  MutexLock lock(mutex_);
  sessions_.erase(session);
  store_.Remove(session);
}

std::vector<SessionId> CachedAttentionEngine::LiveSessions() const {
  MutexLock lock(mutex_);
  std::vector<SessionId> out;
  out.reserve(sessions_.size());
  for (const auto& [id, state] : sessions_) {
    out.push_back(id);
  }
  return out;
}

Result<SessionSnapshot> CachedAttentionEngine::ExportSession(SessionId session) {
  CA_TRACE_SPAN("engine.export_session", "session", session);
  // Async-save fence: an in-flight save on the write stream holds the
  // turn's payload + history, and ExportRecord would otherwise snapshot the
  // PREVIOUS turn's record while the history below is already current — a
  // token_count/history mismatch the importer would reject (and rightly
  // so). Draining first makes the record and the history the same turn's.
  // The store lookup cannot race a re-queued save either: the router's
  // drain protocol stops submissions before exporting.
  WaitForPendingSave(session);
  MutexLock lock(mutex_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return NotFoundError("session " + std::to_string(session) + " is not live");
  }
  SessionSnapshot snap;
  snap.session = session;
  snap.history = it->second.history;
  snap.kv_pure = it->second.kv_pure;
  auto exported = store_.ExportRecord(session);
  if (exported.ok()) {
    snap.record = *std::move(exported);
  } else {
    // The payload is unreadable (fault) or was never stored (dropped save):
    // migrate the history alone and let the importer recompute — the same
    // degradation as a cache-load fault, so replies stay identical.
    CA_LOG(Warn) << "session " << session
                 << " migrates history-only: " << exported.status();
  }
  return snap;
}

Status CachedAttentionEngine::ImportSession(SessionSnapshot snapshot) {
  CA_TRACE_SPAN("engine.import_session", "session", snapshot.session);
  if (snapshot.session == kInvalidSession || snapshot.history.empty()) {
    return InvalidArgumentError("session snapshot is empty");
  }
  MutexLock lock(mutex_);
  if (sessions_.find(snapshot.session) != sessions_.end()) {
    return AlreadyExistsError("session " + std::to_string(snapshot.session) +
                              " is already live here");
  }
  if (snapshot.record.has_value()) {
    // A record whose token count disagrees with the history would poison
    // the next turn's prefix reuse; treat it like a failed import.
    Status imported = snapshot.record->token_count == snapshot.history.size()
                          ? store_.ImportRecord(*snapshot.record, WallNow(), CurrentHintsLocked())
                          : FailedPreconditionError("record covers " +
                                                    std::to_string(snapshot.record->token_count) +
                                                    " tokens but the history has " +
                                                    std::to_string(snapshot.history.size()));
    if (!imported.ok()) {
      CA_LOG(Warn) << "session " << snapshot.session
                   << " KV import failed (next turn recomputes): " << imported;
    }
  }
  SessionState& state = sessions_[snapshot.session];
  state.history = std::move(snapshot.history);
  state.kv_pure = snapshot.kv_pure;
  return Status::Ok();
}

TierHealth CachedAttentionEngine::StoreTierHealth(Tier tier) const {
  MutexLock lock(mutex_);
  return store_.tier_health(tier);
}

Status CachedAttentionEngine::PrepareCache(SessionId session, SessionState& state,
                                           std::size_t incoming_tokens, KvCache& cache,
                                           TurnResult& result) {
  const std::size_t window = model_->config().context_window;
  if (incoming_tokens >= window) {
    return InvalidArgumentError("turn input (" + std::to_string(incoming_tokens) +
                                " tokens) does not fit the context window");
  }

  // --- context-window management (§3.4) -------------------------------
  CA_TRACE_SPAN("engine.prepare_cache", "session", session, "history",
                state.history.size());
  std::size_t drop = 0;
  if (state.history.size() + incoming_tokens > window) {
    result.truncated = true;
    CA_TRACE_INSTANT("engine.overflow", "session", session, "policy",
                     static_cast<int>(options_.overflow_policy));
    // Drop the configured fraction of the window, or more if the new input
    // still would not fit.
    drop = static_cast<std::size_t>(options_.truncation_ratio * static_cast<double>(window));
    const std::size_t overflow = state.history.size() + incoming_tokens - window;
    drop = std::min(std::max(drop, overflow), state.history.size());
  }

  const std::size_t pre_drop_history = state.history.size();
  bool cache_loaded = false;

  if (options_.reuse_kv) {
    if (result.truncated && options_.overflow_policy == OverflowPolicy::kInvalidate) {
      WaitForPendingSave(session);
      MutexLock lock(mutex_);
      store_.Remove(session);
    }
    // TT: truncation operates on token text; the stored KV (embedded at
    // old positions in a conventional engine) is unusable — recompute.
    const bool text_truncated =
        result.truncated && options_.overflow_policy == OverflowPolicy::kTokenTruncate;
    if (!text_truncated) {
      WaitForPendingSave(session);
      CA_TRACE_SPAN("store.lookup", "session", session);
      std::optional<KvRecordInfo> info;
      {
        MutexLock lock(mutex_);
        info = store_.Access(session, WallNow());
      }
      if (info.has_value()) {
        // Miss-equivalent degradation (DESIGN.md §10): the KV cache is soft
        // state, so a fault anywhere on the load path — tier I/O failure,
        // checksum mismatch, undeserializable payload — costs a recompute of
        // the history, never the turn.
        // Zero-copy load: the store streams tier bytes straight into the
        // deserializer — no staging payload vector. The wire form is
        // headerless; its shape travels out of band (record token count +
        // engine PE mode). On any non-OK read the half-built deserializer
        // state is simply never Finish()ed, which is the discard the sink
        // contract requires.
        KvCache::TokenMajorDeserializer deserializer(model_->config(), pe_mode(),
                                                     static_cast<std::size_t>(info->token_count));
        TokenMajorSink sink(deserializer);
        Status read;
        {
          MutexLock lock(mutex_);
          read = store_.ReadPayloadInto(session, sink);
        }
        std::optional<KvCache> loaded_cache;
        if (!read.ok()) {
          CA_LOG(Warn) << "session " << session << " KV load degraded to a miss: " << read;
        } else if (auto loaded = deserializer.Finish(); loaded.ok()) {
          loaded_cache = std::move(*loaded);
        } else {
          // The bytes came back checksum-clean but do not parse: a poisoned
          // payload. Drop it so the miss is consistent.
          CA_LOG(Warn) << "session " << session
                       << " KV payload undeserializable, dropped: " << loaded.status();
          MutexLock lock(mutex_);
          store_.Remove(session);
        }
        if (!loaded_cache.has_value()) {
          result.cache_load_fault = true;
          load_fault_counter_->Add();
          CA_TRACE_INSTANT("engine.cache_load_fault", "session", session);
        } else if (loaded_cache->seq_len() != pre_drop_history) {
          CA_LOG(Warn) << "session " << session << " cache holds " << loaded_cache->seq_len()
                       << " tokens, history is " << pre_drop_history << "; recomputing";
        } else {
          cache = std::move(*loaded_cache);
          // KV cache truncation (valid for decoupled PE; deliberately
          // corrupting for the coupled-PE NKVT baseline).
          if (drop > 0) {
            cache.TruncateFront(drop);
            // The surviving rows attended over the dropped context; a fresh
            // prefill of the truncated history would not reproduce them, so
            // this cache must stay out of the shared prefix index.
            state.kv_pure = false;
          }
          cache_loaded = true;
          result.cache_hit = true;
          result.hit_tier = info->tier;
        }
      }
    }
  }

  if (drop > 0) {
    state.history.erase(state.history.begin(),
                        state.history.begin() + static_cast<std::ptrdiff_t>(drop));
  }

  if (cache_loaded) {
    result.reused_tokens = cache.seq_len();
    return Status::Ok();
  }

  // Miss / recompute path: rebuild the history KV from the token text. A
  // full recompute is by definition the pure prefill of the visible
  // history, so it restores the session's sharing eligibility.
  state.kv_pure = true;
  CA_CHECK_EQ(cache.seq_len(), 0U);
  if (!state.history.empty()) {
    CA_TRACE_SPAN("engine.prefill_history", "tokens", state.history.size());
    (void)model_->Forward(state.history, cache);
    result.computed_tokens += state.history.size();
  }
  return Status::Ok();
}

Result<Tensor> CachedAttentionEngine::ForwardTurn(SessionId session,
                                                  std::span<const TokenId> tokens) {
  CA_CHECK(!tokens.empty());
  SessionState* state_ptr;
  {
    // Map access under the lock; the per-session state stays valid (node
    // stability) and is only mutated by this serving thread.
    MutexLock lock(mutex_);
    state_ptr = &sessions_[session];
  }
  SessionState& state = *state_ptr;
  TurnResult result;
  CA_TRACE_SPAN("engine.forward_turn", "session", session, "tokens", tokens.size());
  const std::uint64_t start_ns = TraceNowNs();

  KvCache cache = model_->MakeCache(pe_mode());
  CA_RETURN_IF_ERROR(PrepareCache(session, state, tokens.size(), cache, result));

  Tensor logits = [&] {
    CA_TRACE_SPAN("engine.prefill", "tokens", tokens.size());
    return model_->Forward(tokens, cache);
  }();
  result.computed_tokens += tokens.size();
  result.prompt_tokens = state.history.size() + tokens.size();
  result.prefill_seconds = SecondsSince(start_ns);

  state.history.insert(state.history.end(), tokens.begin(), tokens.end());
  if (options_.reuse_kv) {
    SaveCache(session, cache, state);
  }

  AccumulateTurnStats(result);
  return logits;
}

Result<TurnResult> CachedAttentionEngine::Converse(SessionId session,
                                                   std::span<const TokenId> user_tokens,
                                                   std::size_t max_reply_tokens) {
  CA_CHECK(!user_tokens.empty());
  SessionState* state_ptr;
  {
    MutexLock lock(mutex_);
    state_ptr = &sessions_[session];
  }
  SessionState& state = *state_ptr;
  TurnResult result;
  CA_TRACE_SPAN("engine.turn", "session", session, "input", user_tokens.size());
  const std::uint64_t start_ns = TraceNowNs();

  KvCache cache = model_->MakeCache(pe_mode());
  CA_RETURN_IF_ERROR(PrepareCache(session, state, user_tokens.size(), cache, result));

  // Importance scoring for the kImportance compression policy accumulates
  // the attention mass every cached token receives during this turn.
  AttentionMassAccumulator mass;
  AttentionObserver* observer =
      options_.compression.policy == CompressionPolicy::kImportance ? &mass : nullptr;

  // Prefill only the new input; the history is already in the cache.
  Tensor logits = [&] {
    CA_TRACE_SPAN("engine.prefill", "tokens", user_tokens.size());
    return model_->Forward(user_tokens, cache, observer);
  }();
  result.computed_tokens += user_tokens.size();
  result.prompt_tokens = state.history.size() + user_tokens.size();
  result.prefill_seconds = SecondsSince(start_ns);

  // Greedy decode, capped by the remaining window.
  const std::size_t window = model_->config().context_window;
  const std::size_t room = window - cache.seq_len();
  const std::size_t budget = std::min(max_reply_tokens, room);
  {
    CA_TRACE_SPAN("engine.decode", "budget", budget);
    TokenId next = model_->Argmax(logits, logits.dim(0) - 1);
    for (std::size_t i = 0; i < budget; ++i) {
      result.reply.push_back(next);
      if (i + 1 == budget) {
        break;  // last token needs no further forward
      }
      const TokenId tok[] = {next};
      const Tensor step = model_->Forward(tok, cache, observer);
      next = model_->Argmax(step, 0);
    }

    // The reply's final token was sampled but (deliberately) not forwarded,
    // so the cache covers history + input + reply[0..n-2]. Forward it now so
    // the saved KV matches the full visible history.
    if (!result.reply.empty() && cache.seq_len() < window) {
      const TokenId tok[] = {result.reply.back()};
      (void)model_->Forward(tok, cache, observer);
    } else if (!result.reply.empty()) {
      // No room to embed the last reply token; drop it from the visible
      // history so text and KV stay aligned.
      result.reply.pop_back();
    }
  }

  state.history.insert(state.history.end(), user_tokens.begin(), user_tokens.end());
  state.history.insert(state.history.end(), result.reply.begin(), result.reply.end());
  CA_CHECK_EQ(state.history.size(), cache.seq_len());

  if (options_.reuse_kv) {
    result.compressed_tokens = MaybeCompress(state, cache, mass.mass());
    SaveCache(session, cache, state);
  }

  AccumulateTurnStats(result);
  return result;
}

void CachedAttentionEngine::AccumulateTurnStats(const TurnResult& result) {
  {
    MutexLock lock(mutex_);
    stats_.turns += 1;
    stats_.prompt_tokens += result.prompt_tokens;
    stats_.computed_tokens += result.computed_tokens;
    stats_.reused_tokens += result.reused_tokens;
    stats_.truncations += result.truncated ? 1 : 0;
    stats_.compressed_tokens += result.compressed_tokens;
    stats_.cache_load_faults += result.cache_load_fault ? 1 : 0;
    stats_.prefill_seconds += result.prefill_seconds;
  }
  turns_counter_->Add();
  prefill_seconds_hist_->Observe(result.prefill_seconds);
}

EngineStats CachedAttentionEngine::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::size_t CachedAttentionEngine::MaybeCompress(SessionState& state, KvCache& cache,
                                                 std::span<const float> importance) {
  if (options_.compression.policy == CompressionPolicy::kNone ||
      cache.pe_mode() != PeMode::kDecoupled) {
    return 0;
  }
  const auto discard =
      BuildTokenDiscardList(options_.compression, cache.seq_len(), importance);
  if (discard.empty()) {
    return 0;
  }
  cache.DiscardTokens(discard);
  // The kept rows were computed attending over the discarded ones: not the
  // pure prefill of the compressed history, so no prefix sharing for this
  // cache (SaveCache stores it whole as the session's own piece).
  state.kv_pure = false;
  // Keep the visible token history aligned with the cache: drop the same
  // positions (discard indices are strictly increasing).
  std::vector<TokenId> kept;
  kept.reserve(state.history.size() - discard.size());
  std::size_t next_discard = 0;
  for (std::size_t i = 0; i < state.history.size(); ++i) {
    if (next_discard < discard.size() && discard[next_discard] == i) {
      ++next_discard;
      continue;
    }
    kept.push_back(state.history[i]);
  }
  state.history = std::move(kept);
  CA_CHECK_EQ(state.history.size(), cache.seq_len());
  return discard.size();
}

void CachedAttentionEngine::SaveCache(SessionId session, const KvCache& cache,
                                      const SessionState& state) {
  if (cache.seq_len() == 0) {
    return;
  }
  CA_CHECK_EQ(state.history.size(), cache.seq_len());
  // Prefix sharing (DESIGN.md §17): a pure cache hands the store its token
  // history, so identical history prefixes dedup across sessions when the
  // store shares prefixes. An impure one (KV-truncated or compressed rows)
  // is stored whole as the session's own piece. Replies stay
  // bitwise-identical either way — sharing only changes where bytes live.
  const std::span<const std::uint32_t> dedup_tokens =
      state.kv_pure ? TokenBits(state.history) : std::span<const std::uint32_t>{};
  // Durable stores persist the visible history and purity bit next to the
  // payload so a restarted process can rebuild the session
  // (RestoreSessions). The journal treats the blob as opaque.
  std::vector<std::uint8_t> user_meta;
  if (options_.store.durable) {
    user_meta = EncodeHistoryMeta(state.history, state.kv_pure);
  }
  if (write_stream_ == nullptr) {
    MutexLock lock(mutex_);
    CacheChunkSource source(cache);
    CA_TRACE_SPAN("engine.save", "session", session, "tokens", cache.seq_len());
    const Status s =
        store_.Put(session, source, dedup_tokens, WallNow(), CurrentHintsLocked(), user_meta);
    if (!s.ok()) {
      CA_LOG(Debug) << "KV save for session " << session << " dropped: " << s;
    }
    return;
  }
  // Serialize now: the cache buffer is only valid during this turn, and the
  // async stream outlives it, so the payload must be materialised before it
  // crosses threads (the store side still moves vector → tier without a
  // further copy). The dedup tokens are copied for the same reason.
  std::vector<std::uint8_t> payload = cache.SerializeTokenMajor();
  std::vector<std::uint32_t> dedup_copy(dedup_tokens.begin(), dedup_tokens.end());
  const std::uint64_t bytes_per_token = cache.token_major_bytes_per_token();
  // Asynchronous write stream (§3.2.2): the save overlaps the caller's next
  // work; readers of this session block in WaitForPendingSave until it
  // lands. The flow link ties the serving thread's enqueue to the save span
  // on the kv-save-stream thread, so the trace shows the §3.2 overlap of
  // async saves with the next decode.
  const std::uint64_t flow =
      Tracer::Get().enabled() ? Tracer::Get().NextFlowId() : 0;
  CA_TRACE_FLOW_BEGIN("engine.save.async", flow);
  {
    MutexLock lock(mutex_);
    pending_saves_.insert(session);
  }
  write_stream_->Submit([this, session, flow, bytes_per_token, payload = std::move(payload),
                         dedup_copy = std::move(dedup_copy), user_meta = std::move(user_meta)] {
    {
      CA_TRACE_SPAN("engine.save.async", "session", session, "bytes", payload.size());
      CA_TRACE_FLOW_END("engine.save.async", flow);
      MutexLock lock(mutex_);
      SpanChunkSource source(payload, bytes_per_token);
      const Status s =
          store_.Put(session, source, dedup_copy, WallNow(), CurrentHintsLocked(), user_meta);
      if (!s.ok()) {
        CA_LOG(Debug) << "KV save for session " << session << " dropped: " << s;
      }
      pending_saves_.erase(session);
    }
    save_done_.NotifyAll();
  });
}

std::size_t CachedAttentionEngine::PrefetchSessions(std::span<const SessionId> upcoming) {
  if (upcoming.empty()) {
    return 0;
  }
  CA_TRACE_SPAN("engine.prefetch", "sessions", upcoming.size());
  MutexLock lock(mutex_);
  // S_kv estimate: running average record size across the store (the paper's
  // per-session KV size input to L_pw = C_mem / S_kv).
  const std::size_t records = store_.RecordCount();
  if (records == 0) {
    return 0;
  }
  std::uint64_t total_bytes = 0;
  for (const Tier tier : {Tier::kHbm, Tier::kDram, Tier::kDisk}) {
    total_bytes += store_.UsedBytes(tier);
  }
  const std::uint64_t avg_bytes = std::max<std::uint64_t>(1, total_bytes / records);
  const SchedulerHints hints = CurrentHintsLocked();
  // Restore the DRAM free-space fetch buffer first (§3.3.1): serving Puts
  // fill DRAM to capacity, and without free bytes the prefetch window
  // L_pw = C_mem / S_kv collapses to zero.
  if (options_.store.dram_buffer > 0) {
    store_.MaintainDramBuffer(WallNow(), hints);
  }
  Prefetcher prefetcher(&store_);
  const PrefetchPlan plan = prefetcher.Plan(upcoming, avg_bytes);
  if (plan.to_fetch.empty()) {
    return 0;
  }
  return prefetcher.Execute(plan, WallNow(), hints);
}

void CachedAttentionEngine::PublishMetrics(MetricsRegistry* registry) const {
  MetricsRegistry& reg = registry != nullptr ? *registry : MetricsRegistry::Global();
  EngineStats snapshot;
  {
    MutexLock lock(mutex_);
    snapshot = stats_;
    store_.PublishMetrics(&reg);
  }
  const auto gauge = [&reg](std::string_view name, double v) { reg.GetGauge(name).Set(v); };
  gauge("engine_stats.turns", static_cast<double>(snapshot.turns));
  gauge("engine_stats.prompt_tokens", static_cast<double>(snapshot.prompt_tokens));
  gauge("engine_stats.computed_tokens", static_cast<double>(snapshot.computed_tokens));
  gauge("engine_stats.reused_tokens", static_cast<double>(snapshot.reused_tokens));
  gauge("engine_stats.truncations", static_cast<double>(snapshot.truncations));
  gauge("engine_stats.compressed_tokens", static_cast<double>(snapshot.compressed_tokens));
  gauge("engine_stats.cache_load_faults", static_cast<double>(snapshot.cache_load_faults));
  gauge("engine_stats.prefill_seconds", snapshot.prefill_seconds);
  gauge("engine_stats.reuse_fraction", snapshot.reuse_fraction());
}

}  // namespace ca
