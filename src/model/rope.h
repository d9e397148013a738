// Rotary positional embedding (RoPE, Su et al.), the relative positional
// encoding used by LLaMA/Mistral/Falcon. CachedAttention's decoupled-PE
// scheme (§3.4) relies on applying RoPE *after* loading cached K vectors, at
// their current (possibly shifted) positions.
#ifndef CA_MODEL_ROPE_H_
#define CA_MODEL_ROPE_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ca {

// Rotation table for one head: the cos/sin of every (position, pair) angle
// for positions [0, max_positions), computed once at construction.
class RopeTable {
 public:
  RopeTable(std::size_t head_dim, float theta, std::size_t max_positions);

  std::size_t head_dim() const { return head_dim_; }

  // Rotates `vec` (one head, length head_dim) in place to encode position
  // `pos` < max_positions. Pairs (2i, 2i+1) are rotated by
  // pos * inv_freq[i].
  void Apply(std::span<float> vec, std::size_t pos) const;

  // Rotates every head of a packed multi-head vector (length
  // n_heads*head_dim) in place at position `pos`.
  void ApplyAllHeads(std::span<float> packed, std::size_t pos) const;

  // Inverse rotation (the transpose of Apply): the trainer's backward pass
  // carries gradients back through RoPE with it.
  void ApplyInverse(std::span<float> vec, std::size_t pos) const;

 private:
  // Row `pos` of the table: head_dim floats, (cos, sin) for each pair.
  const float* Row(std::size_t pos) const;

  std::size_t head_dim_;
  std::size_t max_positions_;
  std::vector<float> cos_sin_;  // max_positions * head_dim entries
};

}  // namespace ca

#endif  // CA_MODEL_ROPE_H_
