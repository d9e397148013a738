// Exercises the store's invariant auditor (StoreConfig::audit +
// AttentionStore::CheckInvariants):
//  * a randomized stress test hammers Put / Promote / Demote / Remove /
//    ExpireTtl / MaintainDramBuffer interleavings with the audit running
//    after every mutation, in both capacity-only and real-payload modes —
//    any byte-accounting drift, leaked extent or tier-capacity breach
//    aborts at the mutation that introduced it;
//  * death tests prove the auditor actually fires on injected corruption
//    (the audit path is verified, not decorative);
//  * a multi-threaded BlockStorage test drives the tier storage mutex that
//    the asynchronous KV-save stream and IO threads rely on (the TSan
//    preset runs this suite).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/store/attention_store.h"
#include "src/store/block_storage.h"
#include "tests/store_test_util.h"

namespace ca {
namespace {

const SchedulerHints kNoHints;

StoreConfig AuditedConfig() {
  StoreConfig config;
  config.hbm_capacity = 0;
  config.dram_capacity = KiB(64);   // 16 blocks
  config.disk_capacity = KiB(128);  // 32 blocks
  config.block_bytes = KiB(4);
  config.audit = true;
  return config;
}

std::vector<std::uint8_t> Payload(std::size_t bytes, std::uint8_t fill) {
  return std::vector<std::uint8_t>(bytes, fill);
}

// One randomized stress round. Every mutation re-runs CheckInvariants via
// the audit flag, so a failure pinpoints the operation that corrupted the
// accounting.
void StressRound(StoreConfig config, std::uint64_t seed) {
  AttentionStore store(std::move(config));
  Rng rng(seed);
  const bool real = store.config().real_payloads;
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
      case 2: {  // Put (fresh insert or update), 1..4 blocks, odd sizes
        const std::uint64_t bytes = 1 + rng.NextBounded(4 * KiB(4));
        if (real) {
          (void)PutBytes(store, session, Payload(bytes, static_cast<std::uint8_t>(session)), now,
                         h);
        } else {
          (void)store.Put(session, bytes, bytes / 16, now, h);
        }
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
    // Payload integrity spot check: a resident record must read back the
    // fill byte its payload was written with.
    if (real && step % 97 == 0) {
      const Tier tier = store.Lookup(session);
      if (tier != Tier::kNone) {
        auto read = store.ReadPayload(session);
        ASSERT_TRUE(read.ok()) << read.status();
        ASSERT_FALSE(read->empty());
        EXPECT_EQ(read->front(), static_cast<std::uint8_t>(session));
        EXPECT_EQ(read->back(), static_cast<std::uint8_t>(session));
      }
    }
  }
  // Final explicit audit (also covers the audit-off configurations below).
  store.CheckInvariants();
}

TEST(StoreAuditStress, CapacityOnlyInterleavings) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    StressRound(AuditedConfig(), seed);
  }
}

TEST(StoreAuditStress, RealPayloadInterleavings) {
  StoreConfig config = AuditedConfig();
  config.real_payloads = true;  // disk_path auto-uniqued per process
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    StressRound(config, seed);
  }
}

TEST(StoreAuditStress, DramBufferMaintenanceUnderTtl) {
  StoreConfig config = AuditedConfig();
  config.dram_buffer = KiB(16);  // keep 4 blocks free for disk->DRAM fetches
  config.ttl = 50;
  StressRound(config, 99);
}

TEST(StoreAuditStress, HbmTierEnabled) {
  StoreConfig config = AuditedConfig();
  config.hbm_capacity = KiB(16);
  config.real_payloads = true;
  StressRound(config, 7);
}

// The auditor must fire on real corruption — otherwise the audit flag is
// decorative. Inject accounting drift through the test-only hook and expect
// the CA_CHECK abort.
using StoreAuditDeathTest = ::testing::Test;

TEST(StoreAuditDeathTest, FiresOnUsedBytesDrift) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  AttentionStore store(AuditedConfig());
  ASSERT_TRUE(store.Put(1, KiB(4), 10, 0, kNoHints).ok());
  store.CheckInvariants();  // clean before the injection
  store.CorruptUsedBytesForTesting(Tier::kDram, static_cast<std::int64_t>(KiB(4)));
  EXPECT_DEATH(store.CheckInvariants(), "used_bytes drifted");
}

TEST(StoreAuditDeathTest, FiresOnCapacityBreach) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  AttentionStore store(AuditedConfig());
  store.CorruptUsedBytesForTesting(Tier::kDisk,
                                   static_cast<std::int64_t>(store.CapacityBytes(Tier::kDisk)) +
                                       static_cast<std::int64_t>(KiB(4)));
  EXPECT_DEATH(store.CheckInvariants(), "more than its capacity");
}

TEST(StoreAuditDeathTest, AuditFlagTripsOnNextMutation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  AttentionStore store(AuditedConfig());
  ASSERT_TRUE(store.Put(1, KiB(4), 10, 0, kNoHints).ok());
  store.CorruptUsedBytesForTesting(Tier::kDram, -static_cast<std::int64_t>(KiB(4)));
  // The corruption is caught by the *next* mutating operation, not only by
  // an explicit CheckInvariants call. (Remove's own accounting update makes
  // the injected deficit surface as either drift or a capacity breach.)
  EXPECT_DEATH(store.Remove(1), "CA_CHECK failed at");
}

// --- BlockStorage thread-safety ------------------------------------------
//
// The async save stream (and future parallel IO threads) share one
// BlockStorage per tier; Write/Read/Free/UsedBlocks must be individually
// thread-safe. TSan verifies the mutex discipline when this suite runs
// under the tsan preset.
void HammerStorage(BlockStorage& storage) {
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
          continue;  // pool momentarily exhausted by the other threads
        }
        auto read = storage.Read(*extent);
        ASSERT_TRUE(read.ok()) << read.status();
        ASSERT_EQ(read->size(), bytes);
        EXPECT_EQ(read->front(), fill);
        EXPECT_EQ(read->back(), fill);
        (void)storage.UsedBlocks();
        storage.Free(*extent);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(storage.UsedBlocks(), 0ULL);
}

TEST(BlockStorageThreadSafety, MemoryStorageParallelWriteReadFree) {
  MemoryBlockStorage storage(KiB(64), KiB(4));
  HammerStorage(storage);
}

TEST(BlockStorageThreadSafety, FileStorageParallelWriteReadFree) {
  auto storage = FileBlockStorage::Open(testing::TempDir() + "/ca_audit_hammer." +
                                            std::to_string(::getpid()) + ".blocks",
                                        KiB(64), KiB(4));
  ASSERT_TRUE(storage.ok()) << storage.status();
  HammerStorage(**storage);
}

}  // namespace
}  // namespace ca
