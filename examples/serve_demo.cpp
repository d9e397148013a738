// Serving-runtime walkthrough (DESIGN.md §12): run a ShareGPT-style
// multi-turn workload through the multi-threaded ServingLoop — JobQueue →
// N workers, one job each → CachedAttentionEngine — with the background
// hint/prefetch thread promoting disk-resident KV caches while workers
// serve, then print throughput, cache hit rates and queue-wait percentiles.
//
//   ./build/examples/serve_demo [--sessions N] [--workers N] [--no-prefetch]
//                               [--shared-prefix TOKENS] [--trace PATH]
//
// With --shared-prefix N, every session opens on the same N-token system
// prompt and the store runs with cross-session prefix sharing (DESIGN.md
// §17); the report gains a sharing section with the dedup factor, prefix hit
// rate and chunk counts.
//
// With --trace, open the exported file in https://ui.perfetto.dev: the
// serve-worker-* tracks show serve.turn slices running concurrently, the
// serve-refresh track shows serve.refresh passes (and their store.promote
// I/O, §3.3.1) overlapping them, and the kv-save-stream track shows async
// saves trailing each turn (§3.2.2).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/cached_attention.h"
#include "src/model/transformer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/serving_loop.h"
#include "src/workload/sharegpt.h"

namespace {

std::vector<ca::TokenId> RandomTokens(ca::Rng& rng, std::size_t n, std::size_t vocab) {
  std::vector<ca::TokenId> out(n);
  for (auto& t : out) {
    t = static_cast<ca::TokenId>(rng.NextBounded(vocab));
  }
  return out;
}

void PrintHistogram(const ca::MetricsSnapshot& snapshot, const char* key,
                    const char* label, double scale, const char* unit) {
  for (const auto& h : snapshot.histograms) {
    if (h.key == key) {
      // A histogram can be registered but empty (e.g. prefetch disabled, or a
      // zero-turn run): percentiles of nothing are garbage, so print n/a.
      if (h.view.count == 0) {
        std::printf("  %-22s p50      n/a   p95      n/a   p99      n/a   (n=0)\n",
                    label);
        return;
      }
      std::printf("  %-22s p50 %8.3f%s   p95 %8.3f%s   p99 %8.3f%s   (n=%zu)\n",
                  label, h.view.p50 * scale, unit, h.view.p95 * scale, unit,
                  h.view.p99 * scale, unit, h.view.count);
      return;
    }
  }
  std::printf("  %-22s (no samples)\n", label);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ca;

  std::size_t num_sessions = 16;
  std::size_t shared_prefix = 0;
  ServerOptions sopts;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      num_sessions = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      sopts.num_workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--no-prefetch") == 0) {
      sopts.prefetch = false;
    } else if (std::strcmp(argv[i], "--shared-prefix") == 0 && i + 1 < argc) {
      shared_prefix = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions N] [--workers N] [--no-prefetch] "
                   "[--shared-prefix TOKENS] [--trace PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // DRAM holds only a few sessions (with a §3.3.1 fetch buffer reserved) so
  // KV caches migrate between tiers and the prefetcher has real work.
  ModelConfig mconfig = ModelConfig::Mini().WithThreads(2);
  if (shared_prefix > 0) {
    // Leave window headroom for the common prompt: engine-side truncation
    // taints a cache (DESIGN.md §17) and would push sessions back to private
    // records, hiding exactly the dedup this mode demonstrates.
    mconfig.context_window = std::max(mconfig.context_window, shared_prefix + 512);
  }
  Transformer model(mconfig, 7);
  EngineOptions eopts;
  eopts.store.block_bytes = KiB(32);
  eopts.store.dram_capacity = KiB(512);
  eopts.store.dram_buffer = KiB(128);
  eopts.store.disk_capacity = MiB(128);
  eopts.async_save = true;
  if (shared_prefix > 0) {
    eopts.store.share_prefixes = true;
    // One 32 KiB block per chunk at Mini's 1 KiB/token, so the dedup factor
    // reported below is not diluted by block-rounding waste.
    eopts.store.share_chunk_tokens = 32;
  }
  CachedAttentionEngine engine(&model, eopts);
  const std::size_t vocab = model.config().vocab_size;

  if (!trace_path.empty()) {
    Tracer::Get().Enable();
  }
  Tracer::Get().SetThreadName("submit");

  // ShareGPT-style sessions (§2.3 marginals), token counts clamped to the
  // Mini model's window so a single turn always fits. With --shared-prefix,
  // every session opens on the same system prompt so the store's prefix index
  // (DESIGN.md §17) can dedup the common KV across sessions.
  ShareGptGenerator generator(ShareGptConfig{}, /*seed=*/42);
  const auto traces = generator.Generate(num_sessions);
  const std::vector<TokenId> prompt = SharedPrefixPrompt(shared_prefix, vocab, /*seed=*/1234);
  Rng rng(7);

  const std::uint64_t t0 = TraceNowNs();
  ServingLoop loop(&engine, sopts);
  std::size_t submitted = 0;
  std::size_t max_turns = 0;
  for (const SessionTrace& trace : traces) {
    max_turns = std::max(max_turns, trace.turns.size());
  }
  // Wave-interleaved submission (turn 1 of every session, then turn 2, ...):
  // the per-session FIFO keeps each conversation ordered while waves from
  // different sessions fill the workers.
  for (std::size_t t = 0; t < max_turns; ++t) {
    for (const SessionTrace& trace : traces) {
      if (t >= trace.turns.size()) {
        continue;
      }
      ServeRequest req;
      req.session = trace.id;
      req.input = RandomTokens(
          rng, std::clamp<std::size_t>(trace.turns[t].q_tokens, 4, 48), vocab);
      if (t == 0 && !prompt.empty()) {
        req.input.insert(req.input.begin(), prompt.begin(), prompt.end());
      }
      req.max_reply_tokens = std::clamp<std::size_t>(trace.turns[t].a_tokens, 2, 24);
      loop.Submit(std::move(req));
      ++submitted;
    }
  }
  loop.Shutdown();  // graceful drain: serves everything accepted
  const double wall_s = static_cast<double>(TraceNowNs() - t0) * 1e-9;
  if (!trace_path.empty()) {
    Tracer::Get().Disable();
  }

  const auto replies = loop.TakeReplies();
  std::size_t ok = 0;
  std::uint64_t reply_tokens = 0;
  for (const ServeReply& r : replies) {
    ok += r.status.ok() ? 1 : 0;
    reply_tokens += r.turn.reply.size();
  }

  const EngineStats estats = engine.stats();
  const StoreStats& sstats = engine.store().stats();  // quiescent after Shutdown
  engine.PublishMetrics();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();

  std::printf("=== serve_demo: %zu sessions, %zu turns, %zu workers ===\n",
              num_sessions, submitted, sopts.num_workers);
  std::printf("throughput\n");
  std::printf("  %-22s %8.2f turns/s (%zu/%zu ok in %.2fs)\n", "served",
              static_cast<double>(ok) / wall_s, ok, submitted, wall_s);
  std::printf("  %-22s %8.0f tok/s decoded, %8.0f tok/s prefilled\n", "tokens",
              static_cast<double>(reply_tokens) / wall_s,
              static_cast<double>(estats.computed_tokens) / wall_s);
  std::printf("cache\n");
  const double lookups = std::max<double>(1.0, static_cast<double>(sstats.lookups));
  std::printf("  %-22s %5.1f%% dram, %5.1f%% disk, %5.1f%% miss (%llu lookups)\n",
              "hit rate", 100.0 * static_cast<double>(sstats.dram_hits) / lookups,
              100.0 * static_cast<double>(sstats.disk_hits) / lookups,
              100.0 * static_cast<double>(sstats.misses) / lookups,
              static_cast<unsigned long long>(sstats.lookups));
  std::printf("  %-22s %5.1f%% of prompt tokens reused, %llu truncations, "
              "%llu promotions\n",
              "reuse", 100.0 * estats.reuse_fraction(),
              static_cast<unsigned long long>(estats.truncations),
              static_cast<unsigned long long>(sstats.promotions));
  if (shared_prefix > 0) {
    // Hit-rate and memory wins from cross-session prefix sharing (§17):
    // logical = what per-session storage would hold (sum of every session's
    // payload), stored = blocks actually occupied after dedup.
    std::uint64_t logical = 0;
    for (const SessionTrace& trace : traces) {
      if (const auto info = engine.store().GetInfo(trace.id)) {
        logical += info->payload_bytes;
      }
    }
    const std::uint64_t stored =
        engine.store().UsedBytes(Tier::kDram) + engine.store().UsedBytes(Tier::kDisk);
    const double mib = 1.0 / static_cast<double>(MiB(1));
    std::printf("sharing (--shared-prefix %zu)\n", shared_prefix);
    std::printf("  %-22s %6.2f MiB logical, %6.2f MiB stored (%.1fx dedup)\n",
                "kv footprint", static_cast<double>(logical) * mib,
                static_cast<double>(stored) * mib,
                stored == 0 ? 0.0
                            : static_cast<double>(logical) / static_cast<double>(stored));
    std::printf("  %-22s %5.1f%% of %llu chunk probes matched an existing chunk\n",
                "prefix hit rate", 100.0 * sstats.prefix_hit_rate(),
                static_cast<unsigned long long>(sstats.prefix_lookups));
    std::printf("  %-22s %zu live (%llu created, %llu freed), %.2f MiB never written\n",
                "chunks", engine.store().ChunkCount(),
                static_cast<unsigned long long>(sstats.chunks_created),
                static_cast<unsigned long long>(sstats.chunks_freed),
                static_cast<double>(sstats.shared_bytes_saved) * mib);
  }
  std::printf("latency\n");
  PrintHistogram(snapshot, "sched.queue_wait_seconds", "queue wait", 1e3, "ms");
  PrintHistogram(snapshot, "serve.turn_seconds", "turn latency", 1e3, "ms");
  PrintHistogram(snapshot, "engine.prefill_seconds", "lookup+load+prefill", 1e3, "ms");

  if (!trace_path.empty()) {
    const Status written = Tracer::Get().ExportChromeJsonToFile(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu events -> %s (open in https://ui.perfetto.dev)\n",
                Tracer::Get().event_count(), trace_path.c_str());
  }
  return ok == submitted ? 0 : 1;
}
