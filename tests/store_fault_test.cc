// Fault-tolerance tests (DESIGN.md §10): the KV cache is soft state, so
// every injected storage fault must cost at most a miss — never an abort,
// never a wrong byte reaching attention.
//  * FaultInjectingBlockStorage is deterministic per seed and honours its
//    fail-after-N death schedule;
//  * transient faults are retried with bounded backoff and permanent ones
//    quarantine a tier after repeated failures, dropping its residents;
//  * torn writes are caught by the per-extent checksum and surface as
//    kDataLoss misses;
//  * an unopenable disk tier disables itself instead of crashing the store;
//  * a randomized soak drives the full mutation mix at ~10% fault rate with
//    the invariant auditor on after every mutation;
//  * the engine serves bitwise-identical replies with and without faults —
//    degradation is recompute, not corruption.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/cached_attention.h"
#include "src/model/transformer.h"
#include "src/store/attention_store.h"
#include "src/store/block_storage.h"
#include "src/store/fault_injection.h"
#include "tests/store_test_util.h"

namespace ca {
namespace {

const SchedulerHints kNoHints;

std::vector<std::uint8_t> Payload(std::size_t bytes, std::uint8_t fill) {
  return std::vector<std::uint8_t>(bytes, fill);
}

// --- FaultInjectingBlockStorage ------------------------------------------

struct OpLog {
  std::vector<int> outcomes;  // 0 = ok, else the StatusCode
  FaultInjectionStats stats;
};

OpLog RunSequence(std::uint64_t seed) {
  FaultConfig fc;
  fc.seed = seed;
  fc.write_transient_p = 0.2;
  fc.write_permanent_p = 0.05;
  fc.write_corrupt_p = 0.1;
  fc.read_transient_p = 0.2;
  fc.read_permanent_p = 0.05;
  fc.read_corrupt_p = 0.1;
  FaultInjectingBlockStorage storage(std::make_unique<MemoryBlockStorage>(KiB(64), KiB(4)), fc);
  OpLog log;
  for (int i = 0; i < 50; ++i) {
    auto w = storage.Write(Payload(KiB(4), 7));
    log.outcomes.push_back(w.ok() ? 0 : static_cast<int>(w.status().code()));
    if (w.ok()) {
      auto r = storage.Read(*w);
      log.outcomes.push_back(r.ok() ? 0 : static_cast<int>(r.status().code()));
      storage.Free(*w);
    }
  }
  log.stats = storage.fault_stats();
  return log;
}

TEST(FaultInjection, DeterministicPerSeed) {
  const OpLog a = RunSequence(42);
  const OpLog b = RunSequence(42);
  const OpLog c = RunSequence(43);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.stats.transient_faults, b.stats.transient_faults);
  EXPECT_EQ(a.stats.permanent_faults, b.stats.permanent_faults);
  EXPECT_EQ(a.stats.corruptions, b.stats.corruptions);
  EXPECT_GT(a.stats.faults(), 0ULL);  // the injector actually injects
  EXPECT_NE(a.outcomes, c.outcomes);  // and the seed matters
}

TEST(FaultInjection, FailAfterScheduleKillsDevice) {
  FaultConfig fc;
  fc.fail_writes_after = 3;  // write #3 and on fail: the device dies mid-run
  FaultInjectingBlockStorage storage(std::make_unique<MemoryBlockStorage>(KiB(64), KiB(4)), fc);
  auto w1 = storage.Write(Payload(16, 1));
  auto w2 = storage.Write(Payload(16, 2));
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  auto w3 = storage.Write(Payload(16, 3));
  auto w4 = storage.Write(Payload(16, 4));
  EXPECT_EQ(w3.status().code(), StatusCode::kIoError);
  EXPECT_EQ(w4.status().code(), StatusCode::kIoError);
  // Reads and frees survive the dead write path.
  auto r1 = storage.Read(*w1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->front(), 1);
  storage.Free(*w1);
  storage.Free(*w2);
  EXPECT_EQ(storage.UsedBlocks(), 0ULL);
}

TEST(FaultInjection, MalformedExtentReadsAsInternalNotAbort) {
  MemoryBlockStorage storage(KiB(64), KiB(4));
  auto extent = storage.Write(Payload(KiB(4) + 5, 9));
  ASSERT_TRUE(extent.ok());

  BlockExtent wrong_length = *extent;
  wrong_length.byte_length += KiB(4);  // block count no longer matches
  EXPECT_EQ(storage.Read(wrong_length).status().code(), StatusCode::kInternal);

  BlockExtent wrong_block = *extent;
  wrong_block.blocks[0] = 9999;  // out-of-range block id
  EXPECT_EQ(storage.Read(wrong_block).status().code(), StatusCode::kInternal);

  // The intact extent still reads fine afterwards.
  auto good = storage.Read(*extent);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), KiB(4) + 5);
  storage.Free(*extent);
}

TEST(FaultInjectionThreadSafety, ParallelFaultyWriteReadFree) {
  FaultConfig fc;
  fc.seed = 9;
  fc.write_transient_p = 0.1;
  fc.read_transient_p = 0.1;
  fc.write_permanent_p = 0.02;
  fc.read_permanent_p = 0.02;
  // No corruption here: without a store-level checksum a damaged payload
  // would fail the content assertions below by design.
  FaultInjectingBlockStorage storage(std::make_unique<MemoryBlockStorage>(KiB(64), KiB(4)), fc);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&storage, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t bytes = 1 + rng.NextBounded(2 * KiB(4));
        const auto fill = static_cast<std::uint8_t>(t * 16 + 1);
        auto extent = storage.Write(Payload(bytes, fill));
        if (!extent.ok()) {
          continue;  // injected fault or pool momentarily exhausted
        }
        auto read = storage.Read(*extent);
        if (read.ok()) {
          ASSERT_EQ(read->size(), bytes);
          EXPECT_EQ(read->front(), fill);
          EXPECT_EQ(read->back(), fill);
        }
        storage.Free(*extent);  // blocks must be released even on failed reads
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(storage.UsedBlocks(), 0ULL);  // no fault may leak a block
  EXPECT_GT(storage.fault_stats().faults(), 0ULL);
}

// --- zero-copy paths under faults (DESIGN.md §14) ------------------------

TEST(FaultInjection, ZeroCopyWriteFaultsLeakNoBlocks) {
  FaultConfig fc;
  fc.seed = 21;
  fc.write_transient_p = 0.3;
  fc.write_permanent_p = 0.1;
  FaultInjectingBlockStorage storage(std::make_unique<MemoryBlockStorage>(KiB(64), KiB(4)), fc);
  const auto payload = Payload(KiB(4) + 50, 6);
  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    SpanSource source(payload);
    auto w = storage.WriteZeroCopy(source);
    if (!w.ok()) {
      ++failures;
      continue;
    }
    auto r = storage.Read(*w);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, payload);
    storage.Free(*w);
  }
  EXPECT_GT(failures, 0);                  // the injector hit the new path
  EXPECT_EQ(storage.UsedBlocks(), 0ULL);   // failed writes rolled back fully
}

TEST(FaultInjection, CorruptZeroCopyWriteIsSilentAtTheDevice) {
  // Write-path corruption mimics a torn write: the operation reports
  // success and only the stored bytes differ. The store's checksum — not
  // the storage layer — is what must catch it.
  FaultConfig fc;
  fc.write_corrupt_p = 1.0;
  FaultInjectingBlockStorage storage(std::make_unique<MemoryBlockStorage>(KiB(64), KiB(4)), fc);
  const auto payload = Payload(KiB(4), 9);
  SpanSource source(payload);
  auto w = storage.WriteZeroCopy(source);
  ASSERT_TRUE(w.ok());
  auto r = storage.Read(*w);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(*r, payload);                  // damaged on the device
  EXPECT_EQ(r->size(), payload.size());
  storage.Free(*w);
}

TEST(FaultInjection, ShortReadIntoCallerBufferDamagesTail) {
  // Read-path corruption models a short read: the tail of the caller's
  // buffer is lost. The Status is still OK — detection is the checksum's
  // job one layer up.
  FaultConfig fc;
  fc.read_corrupt_p = 1.0;
  FaultInjectingBlockStorage storage(std::make_unique<MemoryBlockStorage>(KiB(64), KiB(4)), fc);
  const auto payload = Payload(KiB(4) + 200, 3);
  auto w = storage.Write(payload);
  ASSERT_TRUE(w.ok());
  std::vector<std::uint8_t> out(payload.size());
  ASSERT_TRUE(storage.ReadInto(*w, out).ok());
  EXPECT_NE(out, payload);
  EXPECT_EQ(out.size(), payload.size());
  storage.Free(*w);
}

// --- AttentionStore under faults -----------------------------------------

StoreConfig FaultedConfig() {
  StoreConfig config;
  config.hbm_capacity = 0;
  config.dram_capacity = KiB(64);
  config.disk_capacity = KiB(128);
  config.block_bytes = KiB(4);
  config.real_payloads = true;
  config.audit = true;
  config.io_retry_backoff_us = 0;  // keep the suite fast
  return config;
}

TEST(StoreFault, TransientFaultsAreRetriedToSuccess) {
  StoreConfig config = FaultedConfig();
  config.disk_capacity = 0;  // DRAM only
  config.io_retries = 16;    // enough that no op exhausts its retries
  config.dram_fault.seed = 5;
  config.dram_fault.write_transient_p = 0.4;
  config.dram_fault.read_transient_p = 0.4;
  AttentionStore store(config);
  for (SessionId s = 0; s < 8; ++s) {
    const auto payload = Payload(KiB(4) + 100, static_cast<std::uint8_t>(s));
    ASSERT_TRUE(PutBytes(store, s, payload, 0, kNoHints).ok());
  }
  for (SessionId s = 0; s < 8; ++s) {
    auto read = store.ReadPayload(s);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(read->front(), static_cast<std::uint8_t>(s));
  }
  EXPECT_GT(store.stats().io_retries, 0ULL);       // the retry loop ran
  EXPECT_EQ(store.stats().io_faults(), 0ULL);      // and always recovered
  EXPECT_EQ(store.tier_health(Tier::kDram), TierHealth::kHealthy);
  store.CheckInvariants();
}

TEST(StoreFault, RepeatedPermanentFaultsQuarantineTier) {
  StoreConfig config = FaultedConfig();
  config.quarantine_after = 2;
  config.disk_fault.write_permanent_p = 1.0;  // disk accepts nothing
  AttentionStore store(config);
  const auto payload = Payload(KiB(8), 1);
  ASSERT_TRUE(PutBytes(store, 1, payload, 0, kNoHints).ok());
  ASSERT_EQ(store.Lookup(1), Tier::kDram);

  // First failed demotion: rolled back, tier degraded.
  EXPECT_FALSE(store.Demote(1, 1, kNoHints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kDram);  // transactional rollback
  EXPECT_EQ(store.tier_health(Tier::kDisk), TierHealth::kDegraded);
  EXPECT_EQ(store.stats().failed_moves, 1ULL);

  // Second consecutive permanent fault crosses quarantine_after.
  EXPECT_FALSE(store.Demote(1, 2, kNoHints).ok());
  EXPECT_EQ(store.tier_health(Tier::kDisk), TierHealth::kQuarantined);
  EXPECT_EQ(store.stats().tiers_quarantined, 1ULL);
  EXPECT_EQ(store.stats().permanent_io_faults, 2ULL);

  // The quarantined tier has left placement entirely.
  EXPECT_EQ(store.Demote(1, 3, kNoHints).code(), StatusCode::kFailedPrecondition);

  // The record itself is untouched and still serves from DRAM.
  auto read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
  store.CheckInvariants();
}

TEST(StoreFault, QuarantineDropsResidentRecordsAsMisses) {
  StoreConfig config = FaultedConfig();
  config.dram_capacity = KiB(16);  // 4 blocks: two 8 KiB records fill it
  config.quarantine_after = 1;
  config.disk_fault.fail_reads_after = 1;  // every disk read fails permanently
  AttentionStore store(config);
  SimTime now = 0;
  for (SessionId s = 0; s < 4; ++s) {
    const auto payload = Payload(KiB(8), static_cast<std::uint8_t>(s));
    ASSERT_TRUE(PutBytes(store, s, payload, ++now, kNoHints).ok());
  }
  // LRU pressure demoted the two oldest records to disk.
  ASSERT_EQ(store.Lookup(0), Tier::kDisk);
  ASSERT_EQ(store.Lookup(1), Tier::kDisk);
  ASSERT_EQ(store.Lookup(2), Tier::kDram);
  ASSERT_EQ(store.Lookup(3), Tier::kDram);

  // The first disk read quarantines the tier; its *other* resident is
  // dropped too (a future miss), not left pointing at a dead device.
  EXPECT_FALSE(store.ReadPayload(0).ok());
  EXPECT_EQ(store.tier_health(Tier::kDisk), TierHealth::kQuarantined);
  EXPECT_EQ(store.Lookup(0), Tier::kNone);
  EXPECT_EQ(store.Lookup(1), Tier::kNone);
  EXPECT_EQ(store.stats().fault_evictions, 2ULL);
  EXPECT_EQ(store.stats().failed_reads, 1ULL);

  // DRAM residents are unaffected.
  auto read = store.ReadPayload(3);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->front(), 3);
  store.CheckInvariants();
}

TEST(StoreFault, TornWriteDetectedByChecksumAndDropped) {
  StoreConfig config = FaultedConfig();
  config.disk_capacity = 0;  // DRAM only
  config.dram_fault.write_corrupt_p = 1.0;  // every write lands damaged
  AttentionStore store(config);
  const auto payload = Payload(KiB(8), 42);
  // The torn write "succeeds": only the read-path checksum can see it.
  ASSERT_TRUE(PutBytes(store, 1, payload, 0, kNoHints).ok());
  auto read = store.ReadPayload(1);
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.stats().corrupt_payloads, 1ULL);
  EXPECT_EQ(store.stats().failed_reads, 1ULL);
  // The poisoned record is gone, so the miss is consistent from now on.
  EXPECT_EQ(store.Lookup(1), Tier::kNone);
  EXPECT_EQ(store.stats().fault_evictions, 1ULL);
  store.CheckInvariants();
}

TEST(StoreFault, ZeroCopyTornWriteDetectedByChecksum) {
  // The zero-copy write hashes bytes as the engine's source produces them —
  // token range by token range, BEFORE the device can tear them — so a
  // corrupting device still yields a checksum of the clean bytes and the
  // read path catches the damage.
  StoreConfig config = FaultedConfig();
  config.disk_capacity = 0;  // DRAM only
  config.dram_fault.write_corrupt_p = 1.0;
  AttentionStore store(config);
  const auto payload = Payload(KiB(8), 42);
  SpanChunkSource source(payload, KiB(1));  // 8 tokens of 1 KiB
  ASSERT_TRUE(store.Put(1, source, /*dedup_tokens=*/{}, 0, kNoHints).ok());
  auto read = store.ReadPayload(1);
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.stats().corrupt_payloads, 1ULL);
  EXPECT_EQ(store.Lookup(1), Tier::kNone);
  store.CheckInvariants();
}

TEST(StoreFault, TornBatchedDiskWriteDetectedByChecksum) {
  // Same contract on the disk tier's batched (pwritev/io_uring) submission
  // path: a write that lands damaged is a clean kDataLoss miss on read.
  StoreConfig config = FaultedConfig();
  config.disk_io_mode = DiskIoMode::kBatched;
  config.quarantine_after = 1000;
  config.disk_fault.write_corrupt_p = 1.0;
  AttentionStore store(config);
  const auto payload = Payload(KiB(8), 11);
  ASSERT_TRUE(PutBytes(store, 1, payload, 0, kNoHints).ok());
  ASSERT_EQ(store.Lookup(1), Tier::kDram);
  // The demotion's disk write tears silently; the record lands on disk.
  ASSERT_TRUE(store.Demote(1, 1, kNoHints).ok());
  ASSERT_EQ(store.Lookup(1), Tier::kDisk);
  auto read = store.ReadPayload(1);
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.stats().corrupt_payloads, 1ULL);
  EXPECT_EQ(store.Lookup(1), Tier::kNone);
  store.CheckInvariants();
}

TEST(StoreFault, ShortReadDetectedByChecksumAndDropped) {
  StoreConfig config = FaultedConfig();
  config.disk_capacity = 0;
  config.dram_fault.read_corrupt_p = 1.0;  // every read comes back short
  AttentionStore store(config);
  const auto payload = Payload(KiB(8) + 77, 8);
  ASSERT_TRUE(PutBytes(store, 1, payload, 0, kNoHints).ok());
  auto read = store.ReadPayload(1);
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.stats().corrupt_payloads, 1ULL);
  EXPECT_EQ(store.Lookup(1), Tier::kNone);  // consistent miss from now on
  store.CheckInvariants();
}

TEST(StoreFault, StreamingReadReportsCorruptionAfterSinkSawBytes) {
  // ReadPayloadInto streams each piece before its checksum verdict; the
  // contract is that the non-OK Status tells the caller to discard what the
  // sink consumed. Inputs: a private record (one piece), and a record whose
  // first piece is a shared chunk another session also references — the
  // bad chunk must take every referrer with it.
  struct CollectSink final : PayloadSink {
    std::vector<std::uint8_t> data;
    void Reset() override { data.clear(); }
    void Consume(std::span<const std::uint8_t> chunk) override {
      data.insert(data.end(), chunk.begin(), chunk.end());
    }
  };
  for (const bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared chunk" : "private record");
    StoreConfig config = FaultedConfig();
    config.disk_capacity = 0;
    config.dram_fault.read_corrupt_p = 1.0;
    config.share_prefixes = shared;
    config.share_chunk_tokens = 4;
    AttentionStore store(config);
    const auto payload = Payload(KiB(8), 4);
    const std::vector<std::uint32_t> tokens = {1, 2, 3, 4, 5, 6, 7, 8};  // 8 tokens of 1 KiB
    for (const SessionId s : {SessionId{1}, SessionId{2}}) {
      SpanChunkSource source(payload, KiB(1));
      ASSERT_TRUE(store.Put(s, source, tokens, 0, kNoHints).ok());
    }
    ASSERT_EQ(store.ChunkCount(), shared ? 1U : 0U);
    CollectSink sink;
    const Status read = store.ReadPayloadInto(1, sink);
    EXPECT_EQ(read.code(), StatusCode::kDataLoss);
    EXPECT_FALSE(sink.data.empty());  // the sink did see (damaged) bytes
    EXPECT_EQ(store.Lookup(1), Tier::kNone);
    // A bad own piece drops only its session; a bad shared chunk drops
    // every session referencing it, and the chunk with them.
    EXPECT_EQ(store.Lookup(2), shared ? Tier::kNone : Tier::kDram);
    EXPECT_EQ(store.ChunkCount(), 0U);
    store.CheckInvariants();
  }
}

TEST(FileBlockStorageFault, OpenFailsOnUnwritablePath) {
  auto r = FileBlockStorage::Open("/nonexistent-ca-dir/file.blocks", KiB(64), KiB(4));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(StoreFault, UnopenableDiskTierIsDisabledNotFatal) {
  StoreConfig config = FaultedConfig();
  config.disk_path = "/nonexistent-ca-dir/file.blocks";
  AttentionStore store(config);  // must not abort
  EXPECT_EQ(store.stats().tiers_disabled, 1ULL);
  EXPECT_EQ(store.tier_health(Tier::kDisk), TierHealth::kQuarantined);
  // The store keeps serving from DRAM.
  const auto payload = Payload(KiB(8), 5);
  ASSERT_TRUE(PutBytes(store, 1, payload, 0, kNoHints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kDram);
  EXPECT_EQ(store.Demote(1, 1, kNoHints).code(), StatusCode::kFailedPrecondition);
  auto read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
  store.CheckInvariants();
}

// Randomized soak: the full mutation mix at ~10% per-op fault rate (mixed
// transient / permanent / corrupt on both tiers) with the invariant auditor
// running after every mutation. Every ReadPayload either fails (counted in
// the fault stats) or returns exactly the bytes that were put — a fault is
// never allowed to surface as silently wrong data.
TEST(StoreFaultSoak, RandomOpsUnderInjectedFaultsKeepInvariants) {
  StoreConfig config = FaultedConfig();
  config.io_retries = 2;
  config.quarantine_after = 1000;  // keep both tiers in play for the whole run
  for (FaultConfig* fc : {&config.dram_fault, &config.disk_fault}) {
    fc->seed = 77;
    fc->write_transient_p = 0.05;
    fc->read_transient_p = 0.05;
    fc->write_permanent_p = 0.03;
    fc->read_permanent_p = 0.03;
    fc->write_corrupt_p = 0.02;
    fc->read_corrupt_p = 0.02;
  }
  AttentionStore store(config);
  Rng rng(1234);
  SimTime now = 0;
  constexpr SessionId kSessions = 24;

  SchedulerHints hints;
  for (SessionId s = 0; s < kSessions; s += 2) {
    hints.next_use_index.emplace(s, s);
  }

  for (int step = 0; step < 2000; ++step) {
    now += 1 + static_cast<SimTime>(rng.NextBounded(5));
    const SessionId session = rng.NextBounded(kSessions);
    const auto& h = rng.NextBool(0.5) ? hints : kNoHints;
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2: {
        const std::uint64_t bytes = 1 + rng.NextBounded(4 * KiB(4));
        const auto payload = Payload(bytes, static_cast<std::uint8_t>(session));
        (void)PutBytes(store, session, payload, now, h);
        break;
      }
      case 3:
        (void)store.Promote(session, now, h);
        break;
      case 4:
        (void)store.Demote(session, now, h);
        break;
      case 5:
        store.Remove(session);
        break;
      case 6:
        (void)store.ExpireTtl(now);
        break;
      case 7:
        (void)store.MaintainDramBuffer(now, h);
        break;
    }
    if (step % 29 == 0 && store.Lookup(session) != Tier::kNone) {
      auto read = store.ReadPayload(session);
      if (read.ok()) {
        ASSERT_FALSE(read->empty());
        EXPECT_EQ(read->front(), static_cast<std::uint8_t>(session));
        EXPECT_EQ(read->back(), static_cast<std::uint8_t>(session));
      }
    }
  }
  store.CheckInvariants();
  const StoreStats& stats = store.stats();
  EXPECT_GT(stats.io_faults(), 0ULL);  // the run actually saw faults
  EXPECT_GT(stats.failed_puts + stats.failed_reads + stats.failed_moves, 0ULL);
}

// --- engine: miss-equivalent degradation ---------------------------------

std::vector<TokenId> MakeTokens(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  std::vector<TokenId> out(n);
  for (auto& t : out) {
    t = static_cast<TokenId>(rng.NextBounded(vocab));
  }
  return out;
}

EngineOptions CleanEngineOptions() {
  EngineOptions options;
  options.store.dram_capacity = MiB(64);
  options.store.disk_capacity = MiB(256);
  options.store.block_bytes = KiB(64);
  options.store.audit = true;
  options.store.io_retry_backoff_us = 0;
  return options;
}

// A faulty store must change cost, never output: replies are bitwise
// identical to a fault-free engine's, and every failed load shows up in the
// fault counters as a recompute.
void ExpectFaultyEngineMatchesClean(const EngineOptions& faulty_options,
                                    std::uint64_t expected_load_faults) {
  Transformer model(ModelConfig::Mini(), 51);
  CachedAttentionEngine clean(&model, CleanEngineOptions());
  CachedAttentionEngine faulty(&model, faulty_options);
  constexpr std::uint64_t kTurns = 4;
  for (std::uint64_t turn = 0; turn < kTurns; ++turn) {
    const auto input = MakeTokens(8 + turn, 100 + turn, model.config().vocab_size);
    auto r_clean = clean.Converse(1, input, 6);
    auto r_faulty = faulty.Converse(1, input, 6);
    ASSERT_TRUE(r_clean.ok());
    ASSERT_TRUE(r_faulty.ok());
    EXPECT_EQ(r_clean->reply, r_faulty->reply) << "turn " << turn;
  }
  EXPECT_EQ(clean.SessionHistory(1), faulty.SessionHistory(1));
  // Every turn after the first found a record, failed to load it, and fell
  // through to recompute.
  EXPECT_EQ(faulty.stats().cache_load_faults, expected_load_faults);
  EXPECT_EQ(faulty.stats().reused_tokens, 0ULL);
  EXPECT_GT(clean.stats().reused_tokens, 0ULL);
  faulty.Flush();
  EXPECT_GT(faulty.store().stats().failed_reads, 0ULL);
  EXPECT_EQ(faulty.store().stats().fault_evictions, faulty.store().stats().failed_reads);
}

TEST(EngineFault, DeadReadPathDegradesToRecompute) {
  EngineOptions faulty = CleanEngineOptions();
  faulty.store.quarantine_after = 1000;          // DRAM stays in placement
  faulty.store.dram_fault.read_permanent_p = 1.0;  // every load fails
  ExpectFaultyEngineMatchesClean(faulty, /*expected_load_faults=*/3);
}

TEST(EngineFault, TornWritesDegradeToRecompute) {
  EngineOptions faulty = CleanEngineOptions();
  faulty.store.quarantine_after = 1000;
  faulty.store.dram_fault.write_corrupt_p = 1.0;  // every save lands damaged
  ExpectFaultyEngineMatchesClean(faulty, /*expected_load_faults=*/3);
  // (The checksum — not luck — catches these: see
  // StoreFault.TornWriteDetectedByChecksumAndDropped.)
}

}  // namespace
}  // namespace ca
