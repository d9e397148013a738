#include "src/model/config.h"

#include "src/common/check.h"

namespace ca {

void ModelConfig::Validate() const {
  CA_CHECK_GT(n_heads, 0U);
  CA_CHECK_GT(n_kv_heads, 0U);
  CA_CHECK_EQ(d_model % n_heads, 0U) << "d_model must divide into heads";
  CA_CHECK_EQ(n_heads % n_kv_heads, 0U) << "GQA requires n_heads % n_kv_heads == 0";
  CA_CHECK_EQ(head_dim() % 2, 0U) << "RoPE requires even head_dim";
  CA_CHECK_GT(vocab_size, 0U);
  CA_CHECK_GT(context_window, 0U);
  CA_CHECK_GT(num_threads, 0U) << "num_threads = 1 is the serial reference";
}

ModelConfig ModelConfig::Mini() {
  ModelConfig c;
  c.name = "mini";
  c.vocab_size = 256;
  c.d_model = 128;
  c.n_layers = 4;
  c.n_heads = 8;
  c.n_kv_heads = 4;
  c.d_ff = 256;
  c.context_window = 256;
  return c;
}

ModelConfig ModelConfig::MiniGqa1() {
  ModelConfig c = Mini();
  c.name = "mini-mha";
  c.n_kv_heads = c.n_heads;
  return c;
}

ModelConfig ModelConfig::Tiny() {
  ModelConfig c;
  c.name = "tiny";
  c.vocab_size = 64;
  c.d_model = 64;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_ff = 128;
  c.context_window = 128;
  return c;
}

namespace {
constexpr double kBillion = 1e9;
}  // namespace

ModelDescriptor ModelDescriptor::Llama13B() {
  return ModelDescriptor{
      .name = "LLaMA-13B",
      .params = 13 * kBillion,
      .n_layers = 40,
      // 2 (K,V) * 40 layers * 5120 dim * 2 bytes = 0.78 MiB/token.
      .kv_bytes_per_token = 819200,
      .context_window = 4096,
      .num_gpus = 2,
      .max_batch = 24,
  };
}

ModelDescriptor ModelDescriptor::Llama65B() {
  return ModelDescriptor{
      .name = "LLaMA-65B",
      .params = 65 * kBillion,
      .n_layers = 80,
      // 2 * 80 * 8192 * 2 bytes = 2.5 MiB/token (paper: 2.5 MB, 2K context).
      .kv_bytes_per_token = 2621440,
      .context_window = 2048,
      .num_gpus = 4,
      .max_batch = 24,
  };
}

ModelDescriptor ModelDescriptor::Llama70B() {
  return ModelDescriptor{
      .name = "LLaMA-70B",
      .params = 70 * kBillion,
      .n_layers = 80,
      // GQA factor 8: 2 * 80 * (8 kv heads * 128) * 2 bytes = 0.31 MiB/token.
      .kv_bytes_per_token = 327680,
      .context_window = 4096,
      .num_gpus = 4,
      .max_batch = 24,
  };
}

ModelDescriptor ModelDescriptor::Falcon40B() {
  return ModelDescriptor{
      .name = "Falcon-40B",
      .params = 40 * kBillion,
      .n_layers = 60,
      // Paper: 0.12 MB/token with GQA factor 16.
      .kv_bytes_per_token = 125829,
      .context_window = 2048,
      .num_gpus = 4,
      .max_batch = 24,
  };
}

ModelDescriptor ModelDescriptor::Mistral7B() {
  return ModelDescriptor{
      .name = "Mistral-7B",
      .params = 7 * kBillion,
      .n_layers = 32,
      // GQA 4: 2 * 32 * (8 kv heads * 128) * 2 bytes = 0.125 MiB/token.
      .kv_bytes_per_token = 131072,
      .context_window = 32768,
      .num_gpus = 1,
      .max_batch = 24,
  };
}

std::vector<ModelDescriptor> ModelDescriptor::EvaluationSuite() {
  return {Llama13B(), Llama65B(), Llama70B(), Falcon40B()};
}

}  // namespace ca
