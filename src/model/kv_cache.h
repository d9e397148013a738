// KV cache for the executable mini-transformer.
//
// Layout: per transformer layer, two contiguous fp32 arrays K and V of shape
// [seq_len, kv_dim]. The positional-encoding mode decides what K rows hold:
//  * PeMode::kDecoupled (CachedAttention) — K is stored pre-RoPE. Positions
//    are re-embedded at load time, so TruncateFront keeps the cache valid
//    (§3.4). The re-embedded rows live in a per-layer rotated copy beside
//    K (RotatedK), built once per row and never part of the wire form.
//  * PeMode::kCoupled (conventional) — K is stored post-RoPE at the position
//    each token had when it was computed. TruncateFront on such a cache
//    produces the paper's NKVT corruption.
//
// The cache serialises to a flat token-major byte stream so AttentionStore
// can move it across memory/disk tiers without knowing the tensor layout.
#ifndef CA_MODEL_KV_CACHE_H_
#define CA_MODEL_KV_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/model/config.h"
#include "src/model/rope.h"

namespace ca {

class KvCache {
 public:
  KvCache(const ModelConfig& config, PeMode pe_mode);

  PeMode pe_mode() const { return pe_mode_; }
  std::size_t n_layers() const { return k_.size(); }
  std::size_t kv_dim() const { return kv_dim_; }

  // Number of cached tokens (uniform across layers once a forward pass
  // completes).
  std::size_t seq_len() const;
  // Tokens appended so far to a specific layer (mid-forward they differ).
  std::size_t layer_len(std::size_t layer) const;

  bool empty() const { return seq_len() == 0; }

  // Appends one token's K and V rows (each kv_dim floats) to `layer`.
  void Append(std::size_t layer, std::span<const float> k, std::span<const float> v);

  // Pre-sizes every layer's storage (and, decoupled, its rotated copy) for
  // `total_tokens` tokens (no-op if already that large). Called by the
  // forward pass with history + new so a prefill appends into storage grown
  // once up front instead of paying vector regrowth copies mid-pass; also
  // keeps LayerK/LayerV spans stable across the Appends of one forward.
  // Growth is geometric, capped at the context window, as in Append: a
  // decode loop that reserves one more token per step reallocates
  // O(log window) times, not once per step.
  void Reserve(std::size_t total_tokens);

  // Row accessors.
  std::span<const float> K(std::size_t layer, std::size_t token) const;
  std::span<const float> V(std::size_t layer, std::size_t token) const;

  // Whole-layer accessors for the attention hot loop: token t's row occupies
  // [t * kv_dim(), (t + 1) * kv_dim()). Bounds-checked once per layer
  // instead of once per (token, head) like K()/V().
  std::span<const float> LayerK(std::size_t layer) const;
  std::span<const float> LayerV(std::size_t layer) const;

  // Decoupled mode only: LayerK(layer) with every row rotated by `rope` to
  // its current index (§3.4's re-embedding), laid out like LayerK. Rotates
  // just the rows appended since the previous call; TruncateFront,
  // DiscardTokens and Clear shift positions and so drop the copy. A cache
  // must always be rotated with the same table. The copy is not cache
  // content: byte_size() and the wire form leave it out, and a
  // deserialized cache starts without one.
  std::span<const float> RotatedK(std::size_t layer, const RopeTable& rope);

  // Drops the oldest `n_tokens` tokens from every layer. With kDecoupled
  // this is the paper's KV cache truncation; with kCoupled it deliberately
  // reproduces NKVT's positional corruption (kept for the baseline).
  void TruncateFront(std::size_t n_tokens);

  // Keeps only tokens whose index is NOT in `discard` (token-discarding-list
  // support for KV compression schemes, §3.4). Indices refer to current
  // positions; out-of-range entries are ignored.
  void DiscardTokens(std::span<const std::size_t> discard);

  // Removes all cached tokens.
  void Clear();

  // fp32 byte footprint of the cached tensors (equals the wire size).
  std::uint64_t byte_size() const;

  // Deep copy, rotated rows included.
  KvCache Clone() const;

  // --- wire form (DESIGN.md §14, §17) ----------------------------------
  //
  // The one serialized layout, headerless and token-major: for token t, for
  // layer l, the K row then the V row (kv_dim floats each). Byte offset
  // t * token_major_bytes_per_token() is therefore a token boundary, which
  // lets the store split a payload at any token and dedup fixed token-count
  // chunks across sessions. Shape (pe_mode, n_layers, kv_dim, seq_len)
  // travels out of band: the model config, the engine's PE mode and the
  // store's record token count.

  // Bytes one token occupies in the wire form (2 rows per layer).
  static std::uint64_t TokenMajorBytesPerToken(const ModelConfig& config) {
    return static_cast<std::uint64_t>(2 * config.n_layers * config.kv_dim()) * sizeof(float);
  }
  std::uint64_t token_major_bytes_per_token() const {
    return static_cast<std::uint64_t>(2 * k_.size() * kv_dim_) * sizeof(float);
  }

  // Restartable cursor over the wire bytes of tokens [token_begin,
  // token_end). Fill() copies straight out of the cache's tensors. The
  // cache must stay alive and unmodified while the cursor reads it.
  class TokenMajorSerializer {
   public:
    TokenMajorSerializer(const KvCache& cache, std::size_t token_begin, std::size_t token_end);

    std::uint64_t size() const { return total_; }
    void Reset() {
      token_ = begin_;
      row_ = 0;
      row_off_ = 0;
    }
    // Produces the next dest.size() bytes of the wire form.
    void Fill(std::span<std::uint8_t> dest);

   private:
    const KvCache* cache_;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    std::uint64_t total_ = 0;
    std::size_t token_ = 0;
    std::size_t row_ = 0;      // in [0, 2 * n_layers): K row, V row per layer
    std::size_t row_off_ = 0;  // bytes already emitted of the current row
  };

  // Materialised wire form of the whole cache (the engine's save path).
  std::vector<std::uint8_t> SerializeTokenMajor() const;

  // Streaming inverse of the wire form. seq_len arrives out of band (the
  // store's record token count). Consume takes arbitrary chunking and copies
  // straight into the final tensor storage; errors (overlong input, a
  // seq_len beyond the context window) are remembered, later chunks are
  // swallowed, and Finish() reports the first failure or a byte-count
  // mismatch. Reset() restarts the pass (the store's read-retry loop
  // replays the stream).
  class TokenMajorDeserializer {
   public:
    TokenMajorDeserializer(const ModelConfig& config, PeMode pe_mode, std::size_t seq_len);

    void Reset();
    void Consume(std::span<const std::uint8_t> chunk);
    // Consumes the built cache; the deserializer is spent afterwards
    // (Reset() before reuse).
    Result<KvCache> Finish();

   private:
    const ModelConfig* config_;
    PeMode pe_mode_;
    std::size_t seq_len_ = 0;
    // unique_ptr, not optional: KvCache is still incomplete inside its own
    // nested class, and optional needs the complete type.
    std::unique_ptr<KvCache> cache_;
    Status error_ = Status::Ok();
    std::uint64_t expected_total_ = 0;
    std::uint64_t consumed_ = 0;
    std::size_t token_ = 0;
    std::size_t row_ = 0;
    std::size_t row_off_ = 0;
  };

 private:
  // Drops every layer's rotated copy (positions shifted).
  void DropRotated();

  PeMode pe_mode_;
  std::size_t kv_dim_;
  std::size_t max_floats_;  // one layer's floats at a full context window
  // Indexed [layer]; each holds layer_len * kv_dim floats.
  std::vector<std::vector<float>> k_;
  std::vector<std::vector<float>> v_;
  // Indexed [layer]; RotatedK's copy of the first rows of k_[layer]
  // (decoupled mode only; always empty when coupled).
  std::vector<std::vector<float>> k_rot_;
};

}  // namespace ca

#endif  // CA_MODEL_KV_CACHE_H_
