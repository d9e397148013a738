// Model configuration.
//
// Two kinds of model descriptions coexist:
//  * ModelConfig — an executable mini-transformer configuration (run on CPU
//    by src/model; used for all numerical-fidelity experiments).
//  * ModelDescriptor — a paper-scale model described by its sizing constants
//    (params, layers, KV bytes/token, context window). These are never
//    executed; the discrete-event simulator uses them for timing/capacity
//    arithmetic, with constants taken from the paper (§2.4, §4.2).
#ifndef CA_MODEL_CONFIG_H_
#define CA_MODEL_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace ca {

// Positional-encoding handling for the KV cache (paper §3.4).
enum class PeMode {
  // CachedAttention: K cached *before* RoPE; positions re-embedded at load,
  // so truncated caches stay valid.
  kDecoupled,
  // Conventional engines: K cached *after* RoPE at its original position.
  // Truncating such a cache scrambles positional information (the paper's
  // NKVT baseline).
  kCoupled,
};

// Share of the context window that truncation frees when a conversation's
// history plus its new input overflow the window (§3.4; the paper truncates
// half). The engine drops this share of the window from the front of the
// history; the simulator keeps at most the rest of the window as history.
inline constexpr double kTruncationRatio = 0.5;

struct ModelConfig {
  std::string name = "mini";
  std::size_t vocab_size = 256;
  std::size_t d_model = 128;
  std::size_t n_layers = 4;
  std::size_t n_heads = 8;
  std::size_t n_kv_heads = 4;  // GQA when < n_heads
  std::size_t d_ff = 256;
  std::size_t context_window = 256;
  float rope_theta = 10000.0f;
  // Compute threads for the forward pass (matmuls, per-head attention).
  // 1 = fully serial on the calling thread — the bit-exact reference; any
  // other value produces bitwise-identical outputs (see DESIGN.md §9's
  // determinism contract) but overlaps the work across a thread pool owned
  // by the Transformer.
  std::size_t num_threads = 1;

  // Returns a copy with num_threads = n (convenience for tests/benches).
  ModelConfig WithThreads(std::size_t n) const {
    ModelConfig c = *this;
    c.num_threads = n;
    return c;
  }

  std::size_t head_dim() const { return d_model / n_heads; }
  std::size_t kv_dim() const { return n_kv_heads * head_dim(); }
  std::size_t q_dim() const { return n_heads * head_dim(); }
  // GQA group size: query heads per KV head.
  std::size_t gqa_group() const { return n_heads / n_kv_heads; }
  // Bytes of fp32 KV cache per token across all layers.
  std::uint64_t kv_bytes_per_token() const {
    return static_cast<std::uint64_t>(2 * n_layers * kv_dim()) * sizeof(float);
  }

  // Checks divisibility invariants; aborts on a malformed config.
  void Validate() const;

  // Executable presets.
  static ModelConfig Mini();       // 4L/8H/GQA4, d=128: default test model
  static ModelConfig MiniGqa1();   // MHA variant (n_kv_heads == n_heads)
  static ModelConfig Tiny();       // 2L/4H, d=64: fastest, for property sweeps
};

// Paper-scale model described only by its serving-relevant constants.
struct ModelDescriptor {
  std::string name;
  double params = 0;                     // parameter count
  std::size_t n_layers = 0;              // transformer layers
  std::uint64_t kv_bytes_per_token = 0;  // fp16 KV footprint (paper §4.2)
  std::size_t context_window = 0;        // tokens
  std::size_t num_gpus = 1;              // GPUs the paper runs it on
  std::size_t max_batch = 24;            // continuous-batching slots (paper §4.1)

  // Per-layer KV bytes for one token (layer-wise transfer granularity).
  std::uint64_t kv_bytes_per_token_layer() const { return kv_bytes_per_token / n_layers; }

  // Paper testbed presets (§4.1): KV bytes/token 2.5 MB (65B), 0.78 MB (13B),
  // 0.31 MB (70B, GQA 8), 0.12 MB (Falcon-40B, GQA 16).
  static ModelDescriptor Llama13B();
  static ModelDescriptor Llama65B();
  static ModelDescriptor Llama70B();
  static ModelDescriptor Falcon40B();
  static ModelDescriptor Mistral7B();

  // The four models of the end-to-end evaluation, in paper order.
  static std::vector<ModelDescriptor> EvaluationSuite();
};

}  // namespace ca

#endif  // CA_MODEL_CONFIG_H_
