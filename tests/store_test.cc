// AttentionStore tests: block allocation, payload storage (memory and
// file-backed), tiered placement, demotion/eviction cascades, TTL, and the
// used-bytes accounting invariant.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/store/attention_store.h"
#include "src/store/block_allocator.h"
#include "src/store/block_storage.h"
#include "tests/store_test_util.h"

// Sanitizer detection (gcc defines __SANITIZE_*__, clang goes through
// __has_feature). Sanitizer runtimes keep shadow memory of their own, so
// the resident-memory test below only runs in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CA_STORE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CA_STORE_TEST_SANITIZED 1
#endif
#endif
#ifndef CA_STORE_TEST_SANITIZED
#define CA_STORE_TEST_SANITIZED 0
#endif

namespace ca {
namespace {

// --- BlockAllocator ------------------------------------------------------

TEST(BlockAllocatorTest, CapacityArithmetic) {
  BlockAllocator alloc(MiB(10), MiB(4));
  EXPECT_EQ(alloc.total_blocks(), 2ULL);  // 10/4 rounds down
  EXPECT_EQ(alloc.capacity_bytes(), MiB(8));
  EXPECT_EQ(alloc.free_blocks(), 2ULL);
  EXPECT_EQ(alloc.BlocksFor(1), 1ULL);
  EXPECT_EQ(alloc.BlocksFor(MiB(4)), 1ULL);
  EXPECT_EQ(alloc.BlocksFor(MiB(4) + 1), 2ULL);
  EXPECT_EQ(alloc.BlocksFor(0), 0ULL);
}

TEST(BlockAllocatorTest, AllocateFreeCycle) {
  BlockAllocator alloc(MiB(16), MiB(4));
  auto blocks = alloc.Allocate(3);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 3U);
  EXPECT_EQ(alloc.free_blocks(), 1ULL);
  alloc.Free(*blocks);
  EXPECT_EQ(alloc.free_blocks(), 4ULL);
}

TEST(BlockAllocatorTest, ExhaustionFails) {
  BlockAllocator alloc(MiB(8), MiB(4));
  auto a = alloc.Allocate(2);
  ASSERT_TRUE(a.ok());
  auto b = alloc.Allocate(1);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
}

TEST(BlockAllocatorTest, ZeroAllocationSucceeds) {
  BlockAllocator alloc(MiB(8), MiB(4));
  auto r = alloc.Allocate(0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(BlockAllocatorDeathTest, DoubleFreeAborts) {
  BlockAllocator alloc(MiB(8), MiB(4));
  auto blocks = alloc.Allocate(1);
  ASSERT_TRUE(blocks.ok());
  alloc.Free(*blocks);
  EXPECT_DEATH(alloc.Free(*blocks), "double free");
}

// --- BlockStorage --------------------------------------------------------

std::vector<std::uint8_t> Payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  return out;
}

class BlockStorageTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<BlockStorage> MakeStorage(std::uint64_t capacity, std::uint64_t block) {
    if (GetParam()) {
      auto opened = FileBlockStorage::Open(testing::TempDir() + "/ca_store_test.blocks",
                                           capacity, block);
      CA_CHECK(opened.ok()) << opened.status();
      return std::move(*opened);
    }
    return std::make_unique<MemoryBlockStorage>(capacity, block);
  }
};

TEST_P(BlockStorageTest, WriteReadRoundTrip) {
  auto storage = MakeStorage(KiB(64), KiB(4));
  const auto data = Payload(KiB(4) * 2 + 123, 1);  // spans 3 blocks, last partial
  auto extent = WriteBytes(*storage, data);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->blocks.size(), 3U);
  EXPECT_EQ(extent->byte_length, data.size());
  auto read = ReadBytes(*storage, *extent);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_P(BlockStorageTest, FreeReleasesBlocks) {
  auto storage = MakeStorage(KiB(16), KiB(4));
  auto extent = WriteBytes(*storage, Payload(KiB(16), 2));
  ASSERT_TRUE(extent.ok());
  EXPECT_FALSE(WriteBytes(*storage, Payload(1, 3)).ok());  // full
  storage->Free(*extent);
  EXPECT_TRUE(WriteBytes(*storage, Payload(1, 3)).ok());
}

TEST_P(BlockStorageTest, ManyRecordsInterleaved) {
  auto storage = MakeStorage(KiB(256), KiB(4));
  std::vector<std::pair<BlockExtent, std::vector<std::uint8_t>>> records;
  for (std::uint64_t i = 0; i < 10; ++i) {
    auto data = Payload(1000 * (i + 1), i);
    auto extent = WriteBytes(*storage, data);
    ASSERT_TRUE(extent.ok());
    records.emplace_back(std::move(*extent), std::move(data));
  }
  // Free every other record, then verify the rest still read back intact.
  for (std::size_t i = 0; i < records.size(); i += 2) {
    storage->Free(records[i].first);
  }
  for (std::size_t i = 1; i < records.size(); i += 2) {
    auto read = ReadBytes(*storage, records[i].first);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, records[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(MemoryAndFile, BlockStorageTest, ::testing::Bool(),
                         [](const auto& param_info) { return param_info.param ? "File" : "Memory"; });

// This process's resident set size from /proc/self/status, or 0 where the
// file has no VmRSS line.
std::uint64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  return 0;
}

// The memory tier's arena is not zero-filled: a 1 GiB tier costs resident
// memory only for the blocks written into it.
TEST(MemoryBlockStorageTest, UntouchedCapacityIsNotResident) {
  if (CA_STORE_TEST_SANITIZED) {
    GTEST_SKIP() << "sanitizer runtimes keep memory of their own";
  }
  const std::uint64_t before = ResidentBytes();
  if (before == 0) {
    GTEST_SKIP() << "no VmRSS in /proc/self/status";
  }
  MemoryBlockStorage storage(GiB(1), KiB(64));
  const auto data = Payload(MiB(1), 9);
  auto extent = WriteBytes(storage, data);
  ASSERT_TRUE(extent.ok());
  auto read = ReadBytes(storage, *extent);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  EXPECT_LT(ResidentBytes(), before + MiB(64));
}

// --- AttentionStore ------------------------------------------------------

StoreConfig SmallConfig() {
  StoreConfig config;
  config.hbm_capacity = 0;
  config.dram_capacity = MiB(8);   // 2 blocks
  config.disk_capacity = MiB(16);  // 4 blocks
  config.block_bytes = MiB(4);
  return config;
}

const SchedulerHints kNoHints;

TEST(AttentionStoreTest, PutLandsInDram) {
  AttentionStore store(SmallConfig());
  ASSERT_TRUE(store.Put(1, MiB(4), 100, 0, kNoHints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kDram);
  EXPECT_EQ(store.UsedBytes(Tier::kDram), MiB(4));
  EXPECT_EQ(store.RecordCount(), 1U);
}

TEST(AttentionStoreTest, AccessCountsHitsPerTier) {
  AttentionStore store(SmallConfig());
  ASSERT_TRUE(store.Put(1, MiB(2), 10, 0, kNoHints).ok());
  EXPECT_TRUE(store.Access(1, 1).has_value());
  EXPECT_FALSE(store.Access(99, 2).has_value());
  EXPECT_EQ(store.stats().lookups, 2ULL);
  EXPECT_EQ(store.stats().dram_hits, 1ULL);
  EXPECT_EQ(store.stats().misses, 1ULL);
  EXPECT_DOUBLE_EQ(store.stats().hit_rate(), 0.5);
}

TEST(AttentionStoreTest, OverflowDemotesToDisk) {
  AttentionStore store(SmallConfig());
  // DRAM holds 2 blocks; third record forces a demotion.
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  ASSERT_TRUE(store.Put(2, MiB(4), 10, 1, kNoHints).ok());
  ASSERT_TRUE(store.Put(3, MiB(4), 10, 2, kNoHints).ok());
  EXPECT_EQ(store.Lookup(3), Tier::kDram);
  // Scheduler-aware policy with no hints: LRU fallback demotes session 1.
  EXPECT_EQ(store.Lookup(1), Tier::kDisk);
  EXPECT_EQ(store.Lookup(2), Tier::kDram);
  EXPECT_EQ(store.stats().demotions, 1ULL);
}

TEST(AttentionStoreTest, FullSystemEvictsOut) {
  AttentionStore store(SmallConfig());
  // Capacity: 2 DRAM + 4 disk blocks = 6 records of one block.
  for (SessionId s = 0; s < 7; ++s) {
    ASSERT_TRUE(store.Put(s, MiB(4), 10, static_cast<SimTime>(s), kNoHints).ok());
  }
  EXPECT_EQ(store.RecordCount(), 6U);
  EXPECT_EQ(store.stats().evictions_out, 1ULL);
  EXPECT_EQ(store.Lookup(0), Tier::kNone);  // oldest evicted
}

TEST(AttentionStoreTest, RecordLargerThanEverythingIsRejected) {
  AttentionStore store(SmallConfig());
  const Status s = store.Put(1, MiB(64), 10, 0, kNoHints);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.RecordCount(), 0U);
}

TEST(AttentionStoreTest, UpdateReplacesSize) {
  AttentionStore store(SmallConfig());
  ASSERT_TRUE(store.Put(1, MiB(2), 10, 0, kNoHints).ok());
  ASSERT_TRUE(store.Put(1, MiB(8), 25, 1, kNoHints).ok());
  EXPECT_EQ(store.RecordCount(), 1U);
  EXPECT_EQ(store.stats().inserts, 1ULL);
  EXPECT_EQ(store.stats().updates, 1ULL);
  const auto info = store.GetInfo(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->bytes, MiB(8));
  EXPECT_EQ(info->token_count, 25ULL);
}

TEST(AttentionStoreTest, PromoteAndDemote) {
  AttentionStore store(SmallConfig());
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  ASSERT_TRUE(store.Demote(1, 1, kNoHints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kDisk);
  ASSERT_TRUE(store.Promote(1, 2, kNoHints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kDram);
  EXPECT_EQ(store.stats().promotions, 1ULL);
  EXPECT_EQ(store.stats().demotions, 1ULL);
}

TEST(AttentionStoreTest, PromoteErrors) {
  AttentionStore store(SmallConfig());
  EXPECT_EQ(store.Promote(9, 0, kNoHints).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  EXPECT_EQ(store.Promote(1, 1, kNoHints).code(), StatusCode::kFailedPrecondition);
}

TEST(AttentionStoreTest, RemoveForgetsRecord) {
  AttentionStore store(SmallConfig());
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  store.Remove(1);
  EXPECT_EQ(store.Lookup(1), Tier::kNone);
  EXPECT_EQ(store.UsedBytes(Tier::kDram), 0ULL);
  store.Remove(1);  // idempotent
}

TEST(AttentionStoreTest, TtlExpiresIdleRecords) {
  StoreConfig config = SmallConfig();
  config.ttl = kHour;
  AttentionStore store(config);
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  ASSERT_TRUE(store.Put(2, MiB(4), 10, 30 * kMinute, kNoHints).ok());
  // Touch session 1 at t=50min so it survives the sweep at t=70min.
  EXPECT_TRUE(store.Access(1, 50 * kMinute).has_value());
  EXPECT_EQ(store.ExpireTtl(70 * kMinute), 0U);  // nothing idle > 1h yet
  EXPECT_EQ(store.ExpireTtl(95 * kMinute), 1U);  // session 2 idle 65min
  EXPECT_EQ(store.Lookup(2), Tier::kNone);
  EXPECT_EQ(store.Lookup(1), Tier::kDram);
  EXPECT_EQ(store.stats().ttl_expirations, 1ULL);
}

TEST(AttentionStoreTest, MaintainDramBufferFreesSpace) {
  StoreConfig config = SmallConfig();
  config.dram_buffer = MiB(4);  // keep one block free
  AttentionStore store(config);
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  ASSERT_TRUE(store.Put(2, MiB(4), 10, 1, kNoHints).ok());
  EXPECT_EQ(store.FreeBytes(Tier::kDram), 0ULL);
  const std::size_t demoted = store.MaintainDramBuffer(2, kNoHints);
  EXPECT_EQ(demoted, 1U);
  EXPECT_GE(store.FreeBytes(Tier::kDram), MiB(4));
  EXPECT_EQ(store.Lookup(1), Tier::kDisk);  // LRU victim
}

TEST(AttentionStoreTest, SchedulerHintsProtectUpcomingSessions) {
  AttentionStore store(SmallConfig());
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  ASSERT_TRUE(store.Put(2, MiB(4), 10, 1, kNoHints).ok());
  // Session 1 is the LRU victim, but it has a queued job; session 2 does
  // not, so the scheduler-aware policy demotes 2 instead.
  SchedulerHints hints;
  hints.next_use_index[1] = 0;
  ASSERT_TRUE(store.Put(3, MiB(4), 10, 2, hints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kDram);
  EXPECT_EQ(store.Lookup(2), Tier::kDisk);
}

TEST(AttentionStoreTest, HbmTierPreferredWhenEnabled) {
  StoreConfig config = SmallConfig();
  config.hbm_capacity = MiB(4);
  AttentionStore store(config);
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kHbm);
  // Second record: HBM full, cascades into DRAM.
  ASSERT_TRUE(store.Put(2, MiB(4), 10, 1, kNoHints).ok());
  EXPECT_EQ(store.Lookup(2), Tier::kHbm);
  EXPECT_EQ(store.Lookup(1), Tier::kDram);
}

TEST(AttentionStoreTest, DiskOnlyConfigWorks) {
  StoreConfig config = SmallConfig();
  config.dram_capacity = 0;
  AttentionStore store(config);
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kDisk);
  EXPECT_EQ(store.Access(1, 1)->tier, Tier::kDisk);
  EXPECT_EQ(store.stats().disk_hits, 1ULL);
}

TEST(AttentionStoreTest, RealPayloadRoundTripAcrossTiers) {
  StoreConfig config = SmallConfig();
  config.real_payloads = true;
  AttentionStore store(config);
  const auto data = Payload(MiB(3), 7);
  ASSERT_TRUE(PutBytes(store, 1, data, 0, kNoHints).ok());
  auto read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);

  // Demote to disk and read back through the file tier.
  ASSERT_TRUE(store.Demote(1, 1, kNoHints).ok());
  EXPECT_EQ(store.Lookup(1), Tier::kDisk);
  read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);

  // And promote back.
  ASSERT_TRUE(store.Promote(1, 2, kNoHints).ok());
  read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

// --- ExportRecord / ImportRecord (migration, DESIGN.md §16) ---------------

TEST(AttentionStoreTest, ExportImportRoundTripIsBitwise) {
  StoreConfig config = SmallConfig();
  config.real_payloads = true;
  config.audit = true;
  AttentionStore source(config);
  AttentionStore target(config);
  const auto data = Payload(42 * KiB(64), 21);  // 42 tokens of 64 KiB
  const std::vector<std::uint8_t> meta = {9, 8, 7, 6};
  SpanChunkSource chunks(data, KiB(64));
  ASSERT_TRUE(source.Put(1, chunks, /*dedup_tokens=*/{}, 5, kNoHints, meta).ok());

  auto exported = source.ExportRecord(1);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->session, 1ULL);
  EXPECT_EQ(exported->bytes, data.size());
  EXPECT_EQ(exported->token_count, 42ULL);
  EXPECT_EQ(exported->payload, data);
  EXPECT_EQ(exported->user_meta, meta);
  // Export is non-destructive: the source still serves the record.
  EXPECT_EQ(source.Lookup(1), Tier::kDram);
  EXPECT_EQ(source.stats().exports, 1ULL);

  ASSERT_TRUE(target.ImportRecord(*exported, 6, kNoHints).ok());
  EXPECT_EQ(target.stats().imports, 1ULL);
  auto read = target.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);  // bitwise across stores
  ASSERT_NE(target.UserMeta(1), nullptr);
  EXPECT_EQ(*target.UserMeta(1), meta);
  const auto info = target.GetInfo(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->token_count, 42ULL);
}

TEST(AttentionStoreTest, ImportIntoOccupiedSessionIsRejected) {
  StoreConfig config = SmallConfig();
  config.real_payloads = true;
  AttentionStore source(config);
  AttentionStore target(config);
  const auto data = Payload(MiB(2), 3);
  ASSERT_TRUE(PutBytes(source, 1, data, 0, kNoHints).ok());
  const auto resident = Payload(MiB(1), 4);
  ASSERT_TRUE(PutBytes(target, 1, resident, 0, kNoHints).ok());

  auto exported = source.ExportRecord(1);
  ASSERT_TRUE(exported.ok());
  const Status imported = target.ImportRecord(*exported, 1, kNoHints);
  EXPECT_EQ(imported.code(), StatusCode::kAlreadyExists);
  // No silent overwrite: the resident payload is untouched.
  auto read = target.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, resident);
}

TEST(AttentionStoreTest, ImportReverifiesChecksum) {
  StoreConfig config = SmallConfig();
  config.real_payloads = true;
  AttentionStore source(config);
  AttentionStore target(config);
  const auto data = Payload(MiB(2), 11);
  ASSERT_TRUE(PutBytes(source, 1, data, 0, kNoHints).ok());
  auto exported = source.ExportRecord(1);
  ASSERT_TRUE(exported.ok());

  // Corruption "in transit": one flipped byte must be caught on import,
  // before anything lands in the target store.
  exported->payload[exported->payload.size() / 2] ^= 0x01;
  const Status imported = target.ImportRecord(*exported, 1, kNoHints);
  EXPECT_EQ(imported.code(), StatusCode::kDataLoss);
  EXPECT_EQ(target.RecordCount(), 0U);
  EXPECT_EQ(target.stats().corrupt_payloads, 1ULL);
  EXPECT_EQ(target.stats().imports, 0ULL);
}

// An imported payload comes from outside the store: it must split into
// its token count's whole tokens to become a token-addressed record.
TEST(AttentionStoreTest, ImportRejectsPayloadThatIsNotWholeTokens) {
  StoreConfig config = SmallConfig();
  config.real_payloads = true;
  AttentionStore source(config);
  AttentionStore target(config);
  const auto data = Payload(MiB(1), 13);
  ASSERT_TRUE(PutBytes(source, 1, data, 0, kNoHints).ok());
  auto exported = source.ExportRecord(1);
  ASSERT_TRUE(exported.ok());
  for (const std::uint64_t tokens : {std::uint64_t{0}, std::uint64_t{3}}) {
    ExportedRecord bad = *exported;
    bad.token_count = tokens;  // MiB(1) is not a multiple of 3
    EXPECT_EQ(target.ImportRecord(bad, 1, kNoHints).code(), StatusCode::kInvalidArgument)
        << tokens << " tokens";
  }
  EXPECT_EQ(target.RecordCount(), 0U);
  EXPECT_EQ(target.stats().imports, 0ULL);
}

TEST(AttentionStoreTest, ExportUnknownSessionIsNotFound) {
  StoreConfig config = SmallConfig();
  config.real_payloads = true;
  AttentionStore store(config);
  const auto exported = store.ExportRecord(404);
  EXPECT_EQ(exported.status().code(), StatusCode::kNotFound);
}

TEST(AttentionStoreTest, UserMetaRetainedWithoutDurability) {
  AttentionStore store(SmallConfig());
  const std::vector<std::uint8_t> meta = {1, 2, 3};
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints, meta).ok());
  ASSERT_NE(store.UserMeta(1), nullptr);
  EXPECT_EQ(*store.UserMeta(1), meta);
  // Moves keep the blob; a fresh Put without one replaces it.
  ASSERT_TRUE(store.Demote(1, 1, kNoHints).ok());
  ASSERT_NE(store.UserMeta(1), nullptr);
  EXPECT_EQ(*store.UserMeta(1), meta);
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 2, kNoHints).ok());
  ASSERT_NE(store.UserMeta(1), nullptr);
  EXPECT_TRUE(store.UserMeta(1)->empty());
}

TEST(AttentionStoreTest, ResetStatsClearsCounters) {
  AttentionStore store(SmallConfig());
  ASSERT_TRUE(store.Put(1, MiB(4), 10, 0, kNoHints).ok());
  (void)store.Access(1, 1);
  store.ResetStats();
  EXPECT_EQ(store.stats().lookups, 0ULL);
  EXPECT_EQ(store.stats().inserts, 0ULL);
}

// Property test: after a random sequence of puts/accesses/demotes/removes,
// per-tier used bytes equal the block-rounded sum of resident records, and
// never exceed capacity.
class StoreAccountingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreAccountingProperty, UsedBytesInvariant) {
  StoreConfig config = SmallConfig();
  config.dram_capacity = MiB(24);
  config.disk_capacity = MiB(48);
  AttentionStore store(config);
  Rng rng(GetParam());
  for (int op = 0; op < 400; ++op) {
    const SessionId s = rng.NextBounded(20);
    const SimTime now = op;
    switch (rng.NextBounded(5)) {
      case 0:
      case 1: {
        const std::uint64_t bytes = MiB(1) + rng.NextBounded(MiB(9));
        (void)store.Put(s, bytes, bytes / 1000, now, kNoHints);
        break;
      }
      case 2:
        (void)store.Access(s, now);
        break;
      case 3:
        (void)store.Demote(s, now, kNoHints);
        break;
      case 4:
        store.Remove(s);
        break;
    }
    // Invariant: per-tier accounting matches resident records.
    for (const Tier tier : {Tier::kDram, Tier::kDisk}) {
      std::uint64_t expected = 0;
      for (const SessionId id : store.SessionsInTier(tier)) {
        const auto info = store.GetInfo(id);
        ASSERT_TRUE(info.has_value());
        const std::uint64_t blocks =
            (info->bytes + config.block_bytes - 1) / config.block_bytes;
        expected += blocks * config.block_bytes;
      }
      ASSERT_EQ(store.UsedBytes(tier), expected) << "tier " << TierName(tier) << " op " << op;
      ASSERT_LE(store.UsedBytes(tier), store.CapacityBytes(tier));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreAccountingProperty,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 7ULL, 42ULL));

}  // namespace
}  // namespace ca
