// Logit fingerprint: the bitwise oracle for changes to the model layer.
//
// For each preset model, PE mode and thread count, hashes (ChunkedHash64,
// eight FNV-1a lanes) the bits of every logit of a served turn's shape: a cache holding h history tokens,
// then a 48-token prefill and 24 greedy decode steps, for every h from 0 up
// to the longest history that fits the context window (184 for Mini). Each
// turn runs three times: on the cache the history was computed into, on a
// cache rebuilt from its wire bytes (as the engine loads a saved session),
// and on a copy with the older half of the history truncated (§3.4, where
// the PE modes part ways). Two builds that print the same hashes on one
// machine give bitwise-identical replies on it.
//
//   build/tools/logit_fingerprint
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/model/transformer.h"

namespace ca {
namespace {

constexpr std::size_t kPrefillTokens = 48;
constexpr std::size_t kDecodeSteps = 24;

void HashLogits(ChunkedHash64& h, const Tensor& logits) {
  h.Update({reinterpret_cast<const std::uint8_t*>(logits.data()), logits.numel() * sizeof(float)});
}

// Prefill then greedy decode on `cache`, hashing every logit.
void HashTurn(const Transformer& model, std::span<const TokenId> prompt, KvCache& cache,
              ChunkedHash64& h) {
  Tensor logits = model.Forward(prompt, cache);
  HashLogits(h, logits);
  for (std::size_t step = 0; step < kDecodeSteps; ++step) {
    const TokenId next[] = {model.Argmax(logits, logits.dim(0) - 1)};
    logits = model.Forward(next, cache);
    HashLogits(h, logits);
  }
}

std::uint64_t Fingerprint(const ModelConfig& config, PeMode mode) {
  const Transformer model(config, 7);
  const std::size_t max_history = config.context_window - kPrefillTokens - kDecodeSteps;
  Rng rng(3);
  std::vector<TokenId> tokens(max_history + kPrefillTokens);
  for (auto& t : tokens) {
    t = static_cast<TokenId>(rng.NextBounded(config.vocab_size));
  }
  ChunkedHash64 h;
  for (std::size_t history = 0; history <= max_history; ++history) {
    KvCache live = model.MakeCache(mode);
    if (history > 0) {
      HashLogits(h, model.Forward(std::span(tokens).first(history), live));
    }
    KvCache::TokenMajorDeserializer loader(config, mode, history);
    loader.Consume(live.SerializeTokenMajor());
    KvCache loaded = *loader.Finish();
    KvCache truncated = live.Clone();
    truncated.TruncateFront(history / 2);
    const auto prompt = std::span(tokens).subspan(history, kPrefillTokens);
    HashTurn(model, prompt, live, h);
    HashTurn(model, prompt, loaded, h);
    HashTurn(model, prompt, truncated, h);
  }
  return h.Finalize();
}

}  // namespace
}  // namespace ca

int main() {
  using ca::ModelConfig;
  using ca::PeMode;
  for (const ModelConfig& base :
       {ModelConfig::Mini(), ModelConfig::MiniGqa1(), ModelConfig::Tiny()}) {
    for (const PeMode mode : {PeMode::kDecoupled, PeMode::kCoupled}) {
      for (const std::size_t threads : {1, 4}) {
        std::printf("%-9s %-9s threads=%zu  %016llx\n", base.name.c_str(),
                    mode == PeMode::kDecoupled ? "decoupled" : "coupled", threads,
                    static_cast<unsigned long long>(
                        ca::Fingerprint(base.WithThreads(threads), mode)));
        std::fflush(stdout);
      }
    }
  }
  return 0;
}
