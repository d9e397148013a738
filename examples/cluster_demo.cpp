// Sharded cluster serving walkthrough (DESIGN.md §16): a ShardRouter fronts
// N in-process shards — each its own CachedAttentionEngine + AttentionStore +
// ServingLoop — with consistent-hash session routing, per-shard backpressure
// (new sessions overflow to the least-loaded shard, existing sessions shed)
// and live migration: halfway through the workload one shard is drained and
// every session it holds moves, KV payload and history, to its new ring
// owner while traffic keeps flowing.
//
//   ./build/examples/cluster_demo [--sessions N] [--shards N] [--workers N]
//                                 [--queue-depth N] [--drain SHARD]
//
// The report shows per-shard throughput, hit rate, shed/overflow counts and
// migration counts — the cluster.* metrics, read back from the registry.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/cluster/shard_router.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/model/transformer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
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
      // Registered-but-empty histograms (a fully shed workload, a zero-turn
      // run) have no meaningful percentiles: print n/a, not garbage.
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

  std::size_t num_sessions = 24;
  std::int64_t drain_shard = 1;
  ClusterOptions copts;
  copts.num_shards = 4;
  copts.server.num_workers = 2;
  copts.server.max_queue_depth = 8;  // per-shard backpressure
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      num_sessions = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      copts.num_shards = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      copts.server.num_workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--queue-depth") == 0 && i + 1 < argc) {
      copts.server.max_queue_depth = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--drain") == 0 && i + 1 < argc) {
      drain_shard = std::atoi(argv[++i]);  // negative disables the drain
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions N] [--shards N] [--workers N] "
                   "[--queue-depth N] [--drain SHARD]\n",
                   argv[0]);
      return 2;
    }
  }

  Transformer model(ModelConfig::Mini().WithThreads(2), 7);
  // Small per-shard DRAM so KV caches really live in the tier hierarchy and
  // migration moves disk-resident payloads, not just DRAM copies.
  copts.engine.store.block_bytes = KiB(32);
  copts.engine.store.dram_capacity = KiB(512);
  copts.engine.store.disk_capacity = MiB(128);
  const std::size_t vocab = model.config().vocab_size;

  ShareGptGenerator generator(ShareGptConfig{}, /*seed=*/42);
  const auto traces = generator.Generate(num_sessions);
  Rng rng(7);
  std::size_t max_turns = 0;
  for (const SessionTrace& trace : traces) {
    max_turns = std::max(max_turns, trace.turns.size());
  }

  const std::uint64_t t0 = TraceNowNs();
  ShardRouter router(&model, copts);
  std::size_t submitted = 0;
  std::size_t shed = 0;
  double drain_s = -1.0;
  // Wave-interleaved turns through the backpressure intake; halfway through
  // the waves, drain one shard under this live traffic.
  for (std::size_t t = 0; t < max_turns; ++t) {
    if (drain_shard >= 0 && t == max_turns / 2) {
      const std::uint64_t d0 = TraceNowNs();
      const Status drained = router.DrainShard(static_cast<ShardId>(drain_shard));
      drain_s = static_cast<double>(TraceNowNs() - d0) * 1e-9;
      if (!drained.ok()) {
        std::fprintf(stderr, "drain failed: %s\n", drained.ToString().c_str());
        return 1;
      }
    }
    for (const SessionTrace& trace : traces) {
      if (t >= trace.turns.size()) {
        continue;
      }
      ServeRequest req;
      req.session = trace.id;
      req.input = RandomTokens(
          rng, std::clamp<std::size_t>(trace.turns[t].q_tokens, 4, 48), vocab);
      req.max_reply_tokens = std::clamp<std::size_t>(trace.turns[t].a_tokens, 2, 24);
      if (router.TrySubmit(std::move(req)).has_value()) {
        ++submitted;
      } else {
        ++shed;  // backpressure: this turn is rejected, the session goes on
      }
    }
    router.WaitIdle();  // wave barrier keeps per-session turn order simple
  }
  router.Shutdown();
  const double wall_s = static_cast<double>(TraceNowNs() - t0) * 1e-9;

  const auto replies = router.TakeReplies();
  std::size_t ok = 0;
  for (const ServeReply& r : replies) {
    ok += r.status.ok() ? 1 : 0;
  }
  router.PublishMetrics();

  std::printf("=== cluster_demo: %zu sessions over %zu shards, %zu workers each ===\n",
              num_sessions, copts.num_shards, copts.server.num_workers);
  std::printf("cluster: %zu/%zu turns served (%.2f turns/s), %zu shed at intake",
              ok, submitted + shed, static_cast<double>(ok) / wall_s, shed);
  if (drain_s >= 0.0) {
    std::printf(", shard %lld drained in %.3fs", static_cast<long long>(drain_shard),
                drain_s);
  }
  std::printf("\n\n%-6s %-12s %9s %9s %7s %9s %9s %11s\n", "shard", "health", "routed",
              "overflow", "shed", "mig.out", "mig.in", "hit-rate");
  std::uint64_t migrations = 0;
  for (ShardId s = 0; s < copts.num_shards; ++s) {
    const ShardStatus st = router.shard_status(s);
    const StoreStats& stats = router.shard_engine(s).store().stats();
    std::printf("%-6u %-12s %9llu %9llu %7llu %9llu %9llu %10.1f%%\n", s,
                std::string(ShardHealthName(st.health)).c_str(),
                static_cast<unsigned long long>(st.jobs_routed),
                static_cast<unsigned long long>(st.jobs_overflowed_in),
                static_cast<unsigned long long>(st.jobs_shed),
                static_cast<unsigned long long>(st.sessions_migrated_out),
                static_cast<unsigned long long>(st.sessions_migrated_in),
                100.0 * stats.hit_rate());
    migrations += st.sessions_migrated_out;
  }
  std::printf("\nmigrations: %llu sessions moved, zero accepted turns lost\n",
              static_cast<unsigned long long>(migrations));

  // Cluster-wide latency percentiles: every shard's workers feed the global
  // registry, so one snapshot covers them all.
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  std::printf("\nlatency (all shards)\n");
  PrintHistogram(snapshot, "sched.queue_wait_seconds", "queue wait", 1e3, "ms");
  PrintHistogram(snapshot, "serve.turn_seconds", "turn latency", 1e3, "ms");
  PrintHistogram(snapshot, "engine.prefill_seconds", "lookup+load+prefill", 1e3, "ms");
  return ok == submitted ? 0 : 1;
}
