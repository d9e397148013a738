// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives of the real execution path: dense kernels, transformer
// forward, KV cache serialization, AttentionStore operations and the block
// allocator.
//
// `tools/bench_compare.py --ingest` turns the JSON output into an entry of
// the tracked BENCH_kernels.json perf trajectory; see README "Kernel
// benchmarks".
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "src/common/hash.h"
#include "src/common/mutex.h"
#include "src/model/transformer.h"
#include "src/store/attention_store.h"
#include "src/store/block_allocator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"

namespace ca {
namespace {

const Transformer& BenchModel() {
  static const Transformer* model = new Transformer(ModelConfig::Mini(), 7);
  return *model;
}

// Threaded twin of BenchModel: same weights (same seed), forward pass runs
// on a pool. Tracks the parallel speedup/overhead next to the serial
// numbers (on a single-core runner this measures pure overhead).
const Transformer& BenchModelThreads(std::size_t threads) {
  static const Transformer* model =
      new Transformer(ModelConfig::Mini().WithThreads(4), 7);
  CA_CHECK_EQ(threads, 4U);
  return *model;
}

void BM_MatMul(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const Tensor a = Tensor::Randn({dim, dim}, rng);
  const Tensor b = Tensor::Randn({dim, dim}, rng);
  Tensor out({dim, dim});
  for (auto _ : state) {
    MatMul(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  // items = multiply-accumulates.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim * dim * dim));
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransposedB(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const Tensor a = Tensor::Randn({dim, dim}, rng);
  const Tensor bt = Tensor::Randn({dim, dim}, rng);
  Tensor out({dim, dim});
  for (auto _ : state) {
    MatMulTransposedB(a, bt, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim * dim * dim));
}
BENCHMARK(BM_MatMulTransposedB)->Arg(64)->Arg(128)->Arg(256);

std::vector<TokenId> BenchTokens(std::size_t n) {
  Rng rng(3);
  std::vector<TokenId> out(n);
  for (auto& t : out) {
    t = static_cast<TokenId>(rng.NextBounded(BenchModel().config().vocab_size));
  }
  return out;
}

void BM_TransformerPrefill(benchmark::State& state) {
  const auto tokens = BenchTokens(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    KvCache cache = BenchModel().MakeCache(PeMode::kDecoupled);
    benchmark::DoNotOptimize(BenchModel().Forward(tokens, cache));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TransformerPrefill)->Arg(16)->Arg(64)->Arg(128);

void BM_TransformerDecodeStep(benchmark::State& state) {
  const auto prompt = BenchTokens(static_cast<std::size_t>(state.range(0)));
  KvCache cache = BenchModel().MakeCache(PeMode::kDecoupled);
  (void)BenchModel().Forward(prompt, cache);
  const TokenId tok[] = {1};
  for (auto _ : state) {
    state.PauseTiming();
    KvCache step_cache = cache.Clone();
    state.ResumeTiming();
    benchmark::DoNotOptimize(BenchModel().Forward(tok, step_cache));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransformerDecodeStep)->Arg(64)->Arg(192);

void BM_TransformerPrefillThreads(benchmark::State& state) {
  const auto& model = BenchModelThreads(4);
  const auto tokens = BenchTokens(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    KvCache cache = model.MakeCache(PeMode::kDecoupled);
    benchmark::DoNotOptimize(model.Forward(tokens, cache));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TransformerPrefillThreads)->Arg(128);

// The KV wire form's cursors (DESIGN.md §14): the engine's save and load
// paths stream through exactly these.
void BM_KvCacheSerialize(benchmark::State& state) {
  KvCache cache = BenchModel().MakeCache(PeMode::kDecoupled);
  const auto tokens = BenchTokens(static_cast<std::size_t>(state.range(0)));
  (void)BenchModel().Forward(tokens, cache);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.SerializeTokenMajor());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cache.byte_size()));
}
BENCHMARK(BM_KvCacheSerialize)->Arg(64)->Arg(192);

void BM_KvCacheDeserialize(benchmark::State& state) {
  KvCache cache = BenchModel().MakeCache(PeMode::kDecoupled);
  const auto tokens = BenchTokens(static_cast<std::size_t>(state.range(0)));
  (void)BenchModel().Forward(tokens, cache);
  const auto bytes = cache.SerializeTokenMajor();
  for (auto _ : state) {
    KvCache::TokenMajorDeserializer deserializer(BenchModel().config(), PeMode::kDecoupled,
                                                 cache.seq_len());
    deserializer.Consume(bytes);
    auto restored = deserializer.Finish();
    benchmark::DoNotOptimize(restored);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_KvCacheDeserialize)->Arg(64)->Arg(192);

void BM_BlockAllocatorCycle(benchmark::State& state) {
  BlockAllocator alloc(GiB(4), MiB(4));
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto blocks = alloc.Allocate(n);
    alloc.Free(*blocks);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockAllocatorCycle)->Arg(1)->Arg(16)->Arg(256);

// Store benchmark methodology: tracing is forced off (and the buffer
// drained) before every BM_Store* run, so a tracer left enabled by another
// benchmark in the same process cannot bill span bookkeeping to the store,
// and each benchmark builds its own store so metrics state starts cold.
// PR4's round-trip numbers were polluted by exactly this; see DESIGN.md §14.
void StoreBenchSetup() {
  Tracer::Get().Disable();
  Tracer::Get().Clear();
}

void BM_StorePutAccess(benchmark::State& state) {
  StoreBenchSetup();
  StoreConfig config;
  config.dram_capacity = GiB(8);
  config.disk_capacity = GiB(64);
  config.block_bytes = MiB(4);
  AttentionStore store(config);
  const SchedulerHints hints;
  SimTime now = 0;
  SessionId next = 0;
  for (auto _ : state) {
    const SessionId s = next++ % 512;
    benchmark::DoNotOptimize(store.Put(s, MiB(8), 1000, ++now, hints));
    benchmark::DoNotOptimize(store.Access(s, ++now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorePutAccess);

StoreConfig PayloadStoreConfig(bool verify_checksums) {
  StoreConfig config;
  config.dram_capacity = GiB(1);
  config.disk_capacity = 0;
  config.block_bytes = MiB(1);
  config.real_payloads = true;
  config.verify_checksums = verify_checksums;
  return config;
}

void BM_StorePayloadRoundTrip(benchmark::State& state) {
  StoreBenchSetup();
  AttentionStore store(PayloadStoreConfig(true));
  const SchedulerHints hints;
  const std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0x5A);
  SpanChunkSource source(payload, payload.size());  // opaque bytes: one token
  SimTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Put(1, source, {}, ++now, hints));
    benchmark::DoNotOptimize(store.ReadPayload(1));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) * 2);
}
BENCHMARK(BM_StorePayloadRoundTrip)->Arg(1 << 20)->Arg(16 << 20);

// Write and read halves measured alone, with the checksum as an explicit
// axis (args: {payload_bytes, checksum_on}) so a hash regression shows up
// as the delta between the two columns instead of hiding inside the
// round-trip aggregate.
void BM_StoreWriteOnly(benchmark::State& state) {
  StoreBenchSetup();
  AttentionStore store(PayloadStoreConfig(state.range(1) != 0));
  const SchedulerHints hints;
  const std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0x5A);
  SpanChunkSource source(payload, payload.size());  // opaque bytes: one token
  SimTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Put(1, source, {}, ++now, hints));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_StoreWriteOnly)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 0})
    ->Args({16 << 20, 1})
    ->Args({16 << 20, 0});

void BM_StoreReadOnly(benchmark::State& state) {
  StoreBenchSetup();
  AttentionStore store(PayloadStoreConfig(state.range(1) != 0));
  const SchedulerHints hints;
  const std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0x5A);
  SpanChunkSource source(payload, payload.size());  // opaque bytes: one token
  CA_CHECK(store.Put(1, source, {}, 1, hints).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.ReadPayload(1));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_StoreReadOnly)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 0})
    ->Args({16 << 20, 1})
    ->Args({16 << 20, 0});

// Durable open cost (DESIGN.md §15): replay the metadata journal and adopt
// K disk-resident records. Setup seeds the store once; every iteration is a
// full AttentionStore::Open against the same files. Recovery compacts the
// journal on its way out, so iterations replay a snapshot-sized journal —
// the steady state a long-lived store restarts from. Arg = record count.
void BM_StoreRecoveryOpen(benchmark::State& state) {
  StoreBenchSetup();
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const std::string path =
      "/tmp/ca_bench_recovery." + std::to_string(::getpid()) + ".blocks";
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
  StoreConfig config;
  config.hbm_capacity = 0;
  config.dram_capacity = 0;
  config.disk_capacity = GiB(1);
  config.block_bytes = KiB(64);
  config.real_payloads = true;
  config.durable = true;
  config.disk_path = path;
  {
    auto opened = AttentionStore::Open(config);
    CA_CHECK(opened.ok()) << opened.status();
    const SchedulerHints hints;
    const std::vector<std::uint8_t> payload(KiB(64), 0x5A);
    SpanChunkSource source(payload, payload.size());  // opaque bytes: one token
    for (std::uint64_t s = 1; s <= records; ++s) {
      CA_CHECK(opened->Put(s, source, {}, static_cast<SimTime>(s), hints).ok());
    }
  }
  for (auto _ : state) {
    auto reopened = AttentionStore::Open(config);
    CA_CHECK(reopened.ok()) << reopened.status();
    benchmark::DoNotOptimize(reopened->RecordCount());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records));
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
}
BENCHMARK(BM_StoreRecoveryOpen)->Arg(16)->Arg(256);

// Cross-session prefix sharing (DESIGN.md §17). A fleet of sessions saves
// the same token prefix; after the warm-up put every chunk probe hits the
// prefix index, so the steady-state cost is probes + one private-tail write
// instead of serializing and copying the whole payload. bytes/sec counts
// the *logical* payload, so the number reads as effective dedup throughput.
// Arg = prefix tokens (1 KiB of KV per token, 64-token chunks).
void BM_StoreSharedPrefixPut(benchmark::State& state) {
  StoreBenchSetup();
  StoreConfig config;
  config.dram_capacity = GiB(8);
  config.disk_capacity = 0;
  config.block_bytes = KiB(64);
  config.real_payloads = true;
  config.share_prefixes = true;
  config.share_chunk_tokens = 64;
  AttentionStore store(config);
  const SchedulerHints hints;
  const auto prefix_tokens = static_cast<std::size_t>(state.range(0));
  const std::uint64_t bytes_per_token = KiB(1);
  std::vector<std::uint32_t> tokens(prefix_tokens);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<std::uint32_t>(i * 2654435761u + 97u);
  }
  const std::vector<std::uint8_t> payload(prefix_tokens * bytes_per_token, 0x5A);
  SimTime now = 0;
  SessionId next = 0;
  {
    // Warm-up put pays the one-time chunk writes; iterations measure dedup.
    SpanChunkSource source(payload, bytes_per_token);
    CA_CHECK(store.Put(1'000'000, source, tokens, ++now, hints).ok());
  }
  for (auto _ : state) {
    const SessionId s = next++ % 512;
    SpanChunkSource source(payload, bytes_per_token);
    benchmark::DoNotOptimize(store.Put(s, source, tokens, ++now, hints));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_StoreSharedPrefixPut)->Arg(512)->Arg(4096);

// The chain-keyed probe itself: one warm session re-saves its prefix, every
// chunk hits, and the tail write (one chunk's worth of bytes) is fixed-size
// noise, so per-item cost converges on hash + index probe per chunk.
// items/sec = chunk probes per second. Arg = prefix tokens (64/chunk).
void BM_PrefixLookup(benchmark::State& state) {
  StoreBenchSetup();
  StoreConfig config;
  config.dram_capacity = GiB(8);
  config.disk_capacity = 0;
  config.block_bytes = KiB(64);
  config.real_payloads = true;
  config.share_prefixes = true;
  config.share_chunk_tokens = 64;
  AttentionStore store(config);
  const SchedulerHints hints;
  const auto prefix_tokens = static_cast<std::size_t>(state.range(0));
  const std::uint64_t bytes_per_token = 64;  // small rows keep the tail write cheap
  std::vector<std::uint32_t> tokens(prefix_tokens);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<std::uint32_t>(i * 2654435761u + 11u);
  }
  const std::vector<std::uint8_t> payload(prefix_tokens * bytes_per_token, 0xA5);
  SimTime now = 0;
  SpanChunkSource warm(payload, bytes_per_token);
  CA_CHECK(store.Put(1, warm, tokens, ++now, hints).ok());
  // Tail-nonempty rule: the last chunk of an exact multiple stays private,
  // so an N-chunk prefix probes the index N-1 times per put.
  const std::int64_t probes_per_put =
      static_cast<std::int64_t>(prefix_tokens / config.share_chunk_tokens) - 1;
  for (auto _ : state) {
    SpanChunkSource source(payload, bytes_per_token);
    benchmark::DoNotOptimize(store.Put(1, source, tokens, ++now, hints));
  }
  state.SetItemsProcessed(state.iterations() * probes_per_put);
}
BENCHMARK(BM_PrefixLookup)->Arg(1024)->Arg(8192);

// The checksum primitive itself: args are {bytes, use_avx2}. The AVX2 row
// is skipped (reported as 0 iterations) on machines without the ISA.
void BM_Checksum64(benchmark::State& state) {
  const bool use_avx2 = state.range(1) != 0;
  if (use_avx2 && !ChunkedHashAvx2Available()) {
    state.SkipWithError("AVX2 not available");
    return;
  }
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(internal::ChecksumWithKernel(data, use_avx2));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Checksum64)->Args({1 << 20, 0})->Args({1 << 20, 1})->Args({16 << 20, 1});

// The PR3 byte-serial FNV-1a this PR replaced, kept as the comparison
// baseline for BM_Checksum64 (this is the ~0.8 GB/s curve that sank
// BM_StorePayloadRoundTrip; DESIGN.md §14).
void BM_ChecksumFnv1aSerial(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  for (auto _ : state) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const std::uint8_t b : data) {
      h = (h ^ b) * 0x100000001B3ULL;
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChecksumFnv1aSerial)->Arg(1 << 20);

// Observability overhead (DESIGN.md §11). The disabled case is the one the
// serving hot paths pay unconditionally: it must stay at the cost of a
// relaxed atomic load so instrumented code is free when tracing is off.
void BM_TraceSpanDisabled(benchmark::State& state) {
  Tracer::Get().Disable();
  Tracer::Get().Clear();
  std::uint64_t x = 0;
  for (auto _ : state) {
    CA_TRACE_SPAN("bench.span", "value", ++x);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  Tracer::Get().Enable();
  Tracer::Get().Clear();
  std::uint64_t x = 0;
  for (auto _ : state) {
    CA_TRACE_SPAN("bench.span", "value", ++x);
    benchmark::DoNotOptimize(x);
    if (Tracer::Get().event_count() > (1U << 18)) {
      state.PauseTiming();
      Tracer::Get().Clear();  // stay clear of the per-thread buffer cap
      state.ResumeTiming();
    }
  }
  Tracer::Get().Disable();
  Tracer::Get().Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_MetricsCounterAdd(benchmark::State& state) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("bench.counter");
  for (auto _ : state) {
    counter.Add();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  HistogramMetric& hist = registry.GetHistogram("bench.hist");
  double v = 0.0;
  for (auto _ : state) {
    hist.Observe(v += 0.5);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

// Lock-order detector overhead (DESIGN.md §13). The disabled case is the
// contract: every Mutex::Lock in the codebase pays it unconditionally, so
// it must stay at one relaxed atomic load plus an untaken branch over a
// plain lock/unlock. Registered before BM_MutexLockDetectEnabled on
// purpose: enabling detection latches release-path bookkeeping on for the
// rest of the process (see g_deadlock_seen in src/common/mutex.h), so the
// disabled measurement must run first.
void BM_MutexLockDetectDisabled(benchmark::State& state) {
  SetDeadlockDetectEnabled(false);
  Mutex outer("bench.outer");
  Mutex inner("bench.inner");
  for (auto _ : state) {
    MutexLock lo(outer);
    MutexLock li(inner);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MutexLockDetectDisabled);

void BM_MutexLockDetectEnabled(benchmark::State& state) {
  SetDeadlockDetectEnabled(true);
  Mutex outer("bench.outer");
  Mutex inner("bench.inner");
  for (auto _ : state) {
    MutexLock lo(outer);
    MutexLock li(inner);
  }
  SetDeadlockDetectEnabled(false);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MutexLockDetectEnabled);

}  // namespace
}  // namespace ca

BENCHMARK_MAIN();
