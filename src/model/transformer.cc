#include "src/model/transformer.h"

#include <cmath>
#include <cstring>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"

namespace ca {

namespace {

// Scratch reused across forward passes: steady-state decode allocates
// nothing. One arena per thread because engines may serve sessions from
// several threads through one shared Transformer.
ScratchArena& ThreadScratch() {
  static thread_local ScratchArena arena;
  return arena;
}

// Per-worker score buffer for the attention loop (sized to the longest
// context seen by that thread).
std::vector<float>& ThreadScores(std::size_t total) {
  static thread_local std::vector<float> scores;
  if (scores.size() < total) {
    scores.resize(total);
  }
  return scores;
}

}  // namespace

Transformer::Transformer(ModelConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      rope_(config_.head_dim(), config_.rope_theta, config_.context_window) {
  config_.Validate();
  Rng rng(seed);
  const auto d = config_.d_model;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  embedding_ = Tensor::Randn({config_.vocab_size, d}, rng, scale);
  rms_final_ = Tensor({d});
  rms_final_.Fill(1.0f);
  lm_head_ = Tensor::Randn({config_.vocab_size, d}, rng, scale);
  layers_.reserve(config_.n_layers);
  for (std::size_t l = 0; l < config_.n_layers; ++l) {
    LayerWeights w;
    w.rms_att = Tensor({d});
    w.rms_att.Fill(1.0f);
    w.wq = Tensor::Randn({config_.q_dim(), d}, rng, scale);
    w.wk = Tensor::Randn({config_.kv_dim(), d}, rng, scale);
    w.wv = Tensor::Randn({config_.kv_dim(), d}, rng, scale);
    w.wo = Tensor::Randn({d, config_.q_dim()}, rng, scale);
    w.rms_ffn = Tensor({d});
    w.rms_ffn.Fill(1.0f);
    w.w1 = Tensor::Randn({config_.d_ff, d}, rng, scale);
    w.w2 = Tensor::Randn({d, config_.d_ff}, rng, scale);
    w.w3 = Tensor::Randn({config_.d_ff, d}, rng, scale);
    layers_.push_back(std::move(w));
  }
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads - 1);
  }
}

void Transformer::AttentionBlock(std::size_t layer, Tensor& x, KvCache& cache,
                                 std::size_t history_len, ScratchArena& scratch,
                                 AttentionObserver* observer) const {
  const auto& w = layers_[layer];
  const std::size_t n = x.dim(0);
  const std::size_t d = config_.d_model;
  const std::size_t head_dim = config_.head_dim();
  const std::size_t n_heads = config_.n_heads;
  const std::size_t kv_dim = config_.kv_dim();
  const std::size_t group = config_.gqa_group();
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim));

  Tensor xn = scratch.Alloc2d(n, d);
  RmsNormRows(x, w.rms_att.span(), xn);

  Tensor q = scratch.Alloc2d(n, config_.q_dim());
  Tensor k = scratch.Alloc2d(n, kv_dim);
  Tensor v = scratch.Alloc2d(n, kv_dim);
  MatMulTransposedB(xn, w.wq, q, pool());
  MatMulTransposedB(xn, w.wk, k, pool());
  MatMulTransposedB(xn, w.wv, v, pool());

  // Append this token batch's KV rows to the cache. In coupled mode K is
  // rotated to its absolute position *before* caching (conventional
  // engines); in decoupled mode it is cached raw (§3.4). Forward() reserved
  // history + n tokens, so these appends never reallocate the layer storage
  // and the LayerK/LayerV spans below stay stable.
  CA_CHECK_EQ(cache.layer_len(layer), history_len);
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t pos = history_len + t;
    if (cache.pe_mode() == PeMode::kCoupled) {
      rope_.ApplyAllHeads({k.row(t), kv_dim}, pos);
    }
    cache.Append(layer, {k.row(t), kv_dim}, {v.row(t), kv_dim});
  }

  // K rows the attention dot products read, position-encoded:
  //  * coupled — the cache already holds post-RoPE K; read it in place;
  //  * decoupled — the cache's rotated copy of its raw rows, each re-embedded
  //    at its current index (§3.4's step that keeps truncated caches valid).
  //    Only the rows appended since the previous pass get rotated, so a
  //    decode step rotates one row instead of the whole history.
  const std::size_t total = history_len + n;
  const float* k_src = cache.pe_mode() == PeMode::kCoupled ? cache.LayerK(layer).data()
                                                            : cache.RotatedK(layer, rope_).data();

  // Rotate Q at its absolute position (both modes).
  for (std::size_t t = 0; t < n; ++t) {
    rope_.ApplyAllHeads({q.row(t), config_.q_dim()}, history_len + t);
  }

  // Per-head causal attention, parallel over (query, head) work items.
  // Every item owns its attn_out slice and AttendHead reduces over the
  // context in a fixed order, so any thread count is bitwise-identical to
  // serial. With an observer attached the loop stays serial: observers see
  // distributions in the documented (query-major, head-minor) order and may
  // accumulate floats, where ordering matters.
  Tensor attn_out = scratch.Alloc2d(n, config_.q_dim());
  const float* v_base = cache.LayerV(layer).data();
  ThreadPool* attn_pool = observer == nullptr ? pool() : nullptr;
  ParallelFor(attn_pool, 0, n * n_heads, /*grain=*/std::max<std::size_t>(1, n_heads / 2),
              [&](std::size_t item_begin, std::size_t item_end) {
                std::vector<float>& scores = ThreadScores(total);
                for (std::size_t item = item_begin; item < item_end; ++item) {
                  const std::size_t t = item / n_heads;
                  const std::size_t h = item % n_heads;
                  const std::size_t ctx = history_len + t + 1;  // causal horizon
                  const std::size_t kv_off = (h / group) * head_dim;
                  AttendHead(q.row(t) + h * head_dim, k_src + kv_off, v_base + kv_off, kv_dim,
                             head_dim, ctx, inv_sqrt_d, scores.data(),
                             attn_out.row(t) + h * head_dim);
                  if (observer != nullptr) {
                    observer->OnAttention(layer, h, history_len + t, {scores.data(), ctx});
                  }
                }
              });

  Tensor proj = scratch.Alloc2d(n, d);
  MatMulTransposedB(attn_out, w.wo, proj, pool());
  AddInPlace(x, proj);
}

void Transformer::FfnBlock(std::size_t layer, Tensor& x, ScratchArena& scratch) const {
  const auto& w = layers_[layer];
  const std::size_t n = x.dim(0);
  Tensor xn = scratch.Alloc2d(n, config_.d_model);
  RmsNormRows(x, w.rms_ffn.span(), xn);
  Tensor gate = scratch.Alloc2d(n, config_.d_ff);
  Tensor up = scratch.Alloc2d(n, config_.d_ff);
  MatMulTransposedB(xn, w.w1, gate, pool());
  MatMulTransposedB(xn, w.w3, up, pool());
  SiluInPlace(gate);
  MulInPlace(gate, up);
  Tensor down = scratch.Alloc2d(n, config_.d_model);
  MatMulTransposedB(gate, w.w2, down, pool());
  AddInPlace(x, down);
}

Tensor Transformer::Forward(std::span<const TokenId> tokens, KvCache& cache,
                            AttentionObserver* observer) const {
  CA_CHECK_GT(tokens.size(), 0U);
  CA_CHECK_EQ(cache.n_layers(), config_.n_layers);
  CA_CHECK_EQ(cache.kv_dim(), config_.kv_dim());
  const std::size_t history_len = cache.seq_len();
  CA_CHECK_LE(history_len + tokens.size(), config_.context_window)
      << "context overflow must be handled by the engine before Forward";

  const std::size_t n = tokens.size();
  const std::size_t d = config_.d_model;

  // The compute span of the §3.2 overlap timelines: preload spans (store
  // promotions) and async-save spans show up concurrent with these.
  CA_TRACE_SPAN("model.forward", "tokens", n, "history", history_len);

  // Grow the cache once for the whole pass (prefill would otherwise pay
  // per-append vector regrowth), and reclaim the scratch of the previous
  // pass. x is arena-backed too: it dies with the pass.
  cache.Reserve(history_len + n);
  ScratchArena& scratch = ThreadScratch();
  scratch.Reset();

  Tensor x = scratch.Alloc2d(n, d);
  for (std::size_t t = 0; t < n; ++t) {
    const auto id = tokens[t];
    CA_CHECK_GE(id, 0);
    CA_CHECK_LT(static_cast<std::size_t>(id), config_.vocab_size);
    std::memcpy(x.row(t), embedding_.row(static_cast<std::size_t>(id)), d * sizeof(float));
  }

  for (std::size_t layer = 0; layer < config_.n_layers; ++layer) {
    AttentionBlock(layer, x, cache, history_len, scratch, observer);
    FfnBlock(layer, x, scratch);
  }

  Tensor xn = scratch.Alloc2d(n, d);
  RmsNormRows(x, rms_final_.span(), xn);
  // The logits outlive the pass (they are the return value), so they own
  // their storage instead of borrowing the arena's.
  Tensor logits({n, config_.vocab_size});
  MatMulTransposedB(xn, lm_head_, logits, pool());
  return logits;
}

TokenId Transformer::Argmax(const Tensor& logits, std::size_t row) const {
  const float* r = logits.row(row);
  std::size_t best = 0;
  for (std::size_t i = 1; i < config_.vocab_size; ++i) {
    if (r[i] > r[best]) {
      best = i;
    }
  }
  return static_cast<TokenId>(best);
}

std::vector<TokenId> Transformer::Generate(std::span<const TokenId> prompt,
                                           std::size_t max_new_tokens, KvCache& cache) const {
  std::vector<TokenId> out;
  out.reserve(max_new_tokens);
  TokenId next;
  if (!prompt.empty()) {
    const Tensor logits = Forward(prompt, cache);
    next = Argmax(logits, logits.dim(0) - 1);
  } else {
    CA_CHECK_GT(cache.seq_len(), 0U) << "Generate needs a prompt or a warm cache";
    // Re-derive the next token from the last cached position by decoding a
    // BOS-like token 0; callers normally pass a prompt.
    const TokenId bos[] = {0};
    const Tensor logits = Forward(bos, cache);
    next = Argmax(logits, 0);
  }
  for (std::size_t i = 0; i < max_new_tokens; ++i) {
    out.push_back(next);
    if (cache.seq_len() + 1 > config_.context_window) {
      break;  // engine-level truncation is responsible for longer runs
    }
    const TokenId tok[] = {next};
    const Tensor logits = Forward(tok, cache);
    next = Argmax(logits, 0);
  }
  return out;
}

}  // namespace ca
