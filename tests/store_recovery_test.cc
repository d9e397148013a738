// Durability and crash-recovery tests (DESIGN.md §15): a durable
// AttentionStore journals every record mutation and AttentionStore::Open
// rebuilds the warm disk tier after an unclean process death.
//  * MetaStore round-trips its record table through close/reopen, truncates
//    torn journal tails, bounds the journal via compaction, resolves
//    block-reuse conflicts in journal order, and refuses journals written
//    under a different block size;
//  * a durable store requires an explicit stable disk_path and a matching
//    journal/payload pair (store id, superblocks) — mismatches fail Open
//    with kFailedPrecondition instead of serving garbage;
//  * seeded crash schedules (journal append, torn append, fsync, payload
//    block write, compaction) freeze all file writes mid-run — the
//    simulated SIGKILL — and every reopen must pass CheckInvariants and
//    serve only bitwise-faithful payloads or clean misses;
//  * a kill-restart engine soak proves recovered sessions resume with
//    bitwise-identical replies (greedy decode) or degrade to a clean
//    recompute — never a wrong token.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/cached_attention.h"
#include "src/model/transformer.h"
#include "src/store/attention_store.h"
#include "src/store/meta_store.h"
#include "tests/store_test_util.h"

namespace ca {
namespace {

const SchedulerHints kNoHints;

void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
  std::remove((path + ".meta.tmp").c_str());
}

std::string StorePath(const std::string& name) {
  const std::string path = testing::TempDir() + "/ca_recovery_" + name + ".blocks";
  RemoveStoreFiles(path);
  return path;
}

void CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(in.good());
  ASSERT_TRUE(out.good());
  out << in.rdbuf();
}

// Version-stamped payload: byte-for-byte reproducible from (session,
// version, size), so a recovered payload can be matched against the exact
// bytes that were put.
std::vector<std::uint8_t> SessionPayload(SessionId session, std::uint64_t version,
                                         std::size_t bytes) {
  Rng rng(session * 7919 + version);
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  return out;
}

// --- MetaStore ------------------------------------------------------------

MetaStore::Options DefaultMetaOptions() { return MetaStore::Options{}; }

MetaRecord DiskRecord(SessionId session, std::uint64_t bytes, std::vector<BlockId> blocks,
                      std::uint64_t token_count = 0) {
  MetaRecord r;
  r.session = session;
  r.tier = Tier::kDisk;
  r.bytes = bytes;
  r.token_count = token_count;
  r.blocks = std::move(blocks);
  return r;
}

TEST(MetaStore, RoundTripsRecordsAcrossReopen) {
  const std::string path = StorePath("meta_roundtrip") + ".meta";
  std::uint64_t store_id = 0;
  {
    auto opened = MetaStore::Open(path, KiB(4), /*fresh_store_id=*/77, DefaultMetaOptions());
    ASSERT_TRUE(opened.ok()) << opened.status();
    MetaStore& meta = **opened;
    EXPECT_FALSE(meta.recovered_existing());
    store_id = meta.store_id();
    EXPECT_EQ(store_id, 77ULL);
    MetaRecord a = DiskRecord(1, KiB(8), {0, 1}, /*token_count=*/3);
    a.last_access = 10;
    a.insert_seq = 1;
    a.checksum = 0xabcd;
    a.user_meta = {1, 2, 3, 4};
    ASSERT_TRUE(meta.Upsert(a).ok());
    MetaRecord b = a;
    b.session = 2;
    b.blocks = {2, 3};
    b.insert_seq = 2;
    ASSERT_TRUE(meta.Upsert(b).ok());
    MetaRecord c = a;
    c.session = 3;
    c.blocks = {4};
    ASSERT_TRUE(meta.Upsert(c).ok());
    ASSERT_TRUE(meta.Erase(3).ok());
  }
  auto reopened = MetaStore::Open(path, KiB(4), /*fresh_store_id=*/99, DefaultMetaOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  MetaStore& meta = **reopened;
  EXPECT_TRUE(meta.recovered_existing());
  EXPECT_EQ(meta.store_id(), store_id);  // keeps the stored id, not the fresh one
  ASSERT_EQ(meta.live().size(), 2U);
  const MetaRecord& a = meta.live().at(1);
  EXPECT_EQ(a.tier, Tier::kDisk);
  EXPECT_EQ(a.bytes, KiB(8));
  EXPECT_EQ(a.token_count, 3ULL);
  EXPECT_EQ(a.checksum, 0xabcdULL);
  EXPECT_EQ(a.blocks, (std::vector<BlockId>{0, 1}));
  EXPECT_EQ(a.user_meta, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(meta.live().at(2).blocks, (std::vector<BlockId>{2, 3}));
  EXPECT_EQ(meta.recovery_stats().journal_entries_replayed, 4ULL);
}

TEST(MetaStore, MemoryTierRecordsDieWithTheProcess) {
  const std::string path = StorePath("meta_volatile") + ".meta";
  {
    auto opened = MetaStore::Open(path, KiB(4), 1, DefaultMetaOptions());
    ASSERT_TRUE(opened.ok());
    MetaRecord r = DiskRecord(9, KiB(4), {});
    r.tier = Tier::kDram;
    ASSERT_TRUE((*opened)->Upsert(r).ok());
  }
  auto reopened = MetaStore::Open(path, KiB(4), 1, DefaultMetaOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->live().empty());
  EXPECT_EQ((*reopened)->recovery_stats().records_discarded_volatile, 1ULL);
}

TEST(MetaStore, TornTailIsTruncatedNotFatal) {
  const std::string path = StorePath("meta_torn") + ".meta";
  std::uint64_t clean_bytes = 0;
  {
    auto opened = MetaStore::Open(path, KiB(4), 1, DefaultMetaOptions());
    ASSERT_TRUE(opened.ok());
    for (SessionId s = 1; s <= 3; ++s) {
      ASSERT_TRUE((*opened)->Upsert(DiskRecord(s, KiB(4), {static_cast<BlockId>(s)})).ok());
    }
    clean_bytes = (*opened)->journal_bytes();
  }
  {
    // A crash mid-append leaves a partial frame at the tail; random bytes
    // model the worst case (no recognisable header at all).
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char junk[] = "\x13garbage-that-is-not-a-frame\xff\x00\x7f";
    f.write(junk, sizeof(junk));
  }
  auto reopened = MetaStore::Open(path, KiB(4), 1, DefaultMetaOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  MetaStore& meta = **reopened;
  EXPECT_EQ(meta.live().size(), 3U);  // every clean entry survives
  EXPECT_EQ(meta.journal_bytes(), clean_bytes);  // the torn tail is gone
  EXPECT_EQ(meta.recovery_stats().records_discarded_torn, 1ULL);
  EXPECT_GT(meta.recovery_stats().torn_tail_bytes, 0ULL);
  // A second reopen sees a clean file: the truncation actually happened.
  ASSERT_TRUE(meta.Upsert(DiskRecord(4, KiB(4), {9})).ok());
}

TEST(MetaStore, CompactionBoundsTheJournal) {
  const std::string path = StorePath("meta_compact") + ".meta";
  MetaStore::Options options;
  options.compact_threshold_bytes = KiB(1);
  {
    auto opened = MetaStore::Open(path, KiB(4), 1, options);
    ASSERT_TRUE(opened.ok());
    for (std::uint64_t v = 1; v <= 200; ++v) {
      ASSERT_TRUE((*opened)->Upsert(DiskRecord(5, KiB(4), {1}, /*token_count=*/v)).ok());
    }
    // 200 appends at >40 bytes each vastly exceed the threshold; only
    // compaction can keep the file near one live record.
    EXPECT_LT((*opened)->journal_bytes(), KiB(2));
  }
  auto reopened = MetaStore::Open(path, KiB(4), 1, options);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->live().size(), 1U);
  EXPECT_EQ((*reopened)->live().at(5).token_count, 200ULL);  // last write wins
}

TEST(MetaStore, BlockReuseConflictDropsTheOlderRecord) {
  const std::string path = StorePath("meta_conflict") + ".meta";
  {
    auto opened = MetaStore::Open(path, KiB(4), 1, DefaultMetaOptions());
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Upsert(DiskRecord(1, KiB(8), {1, 2})).ok());
    // In a live store an erase frame would land between these; losing it to
    // a crash window is exactly the case replay must untangle.
    ASSERT_TRUE((*opened)->Upsert(DiskRecord(2, KiB(8), {2, 3})).ok());
  }
  auto reopened = MetaStore::Open(path, KiB(4), 1, DefaultMetaOptions());
  ASSERT_TRUE(reopened.ok());
  MetaStore& meta = **reopened;
  ASSERT_EQ(meta.live().size(), 1U);  // the newer claim to block 2 wins
  EXPECT_TRUE(meta.live().contains(2));
  EXPECT_EQ(meta.recovery_stats().records_conflict_dropped, 1ULL);
}

TEST(MetaStore, BlockSizeMismatchFailsOpen) {
  const std::string path = StorePath("meta_blocksize") + ".meta";
  {
    auto opened = MetaStore::Open(path, KiB(4), 1, DefaultMetaOptions());
    ASSERT_TRUE(opened.ok());
  }
  auto reopened = MetaStore::Open(path, KiB(8), 1, DefaultMetaOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MetaStore, CrashDuringCompactionKeepsTheOldJournal) {
  const std::string path = StorePath("meta_compact_crash") + ".meta";
  auto crash = std::make_shared<CrashSwitch>();
  MetaStore::Options options;
  options.fault.crash = crash;
  options.fault.crash_on_compact = 1;
  {
    auto opened = MetaStore::Open(path, KiB(4), 1, options);
    ASSERT_TRUE(opened.ok());
    MetaStore& meta = **opened;
    ASSERT_TRUE(meta.Upsert(DiskRecord(1, KiB(4), {1})).ok());
    ASSERT_TRUE(meta.Upsert(DiskRecord(2, KiB(4), {2})).ok());
    ASSERT_TRUE(meta.Compact().ok());  // dies after the snapshot, before rename
    EXPECT_TRUE(crash->frozen.load());
    // Post-crash mutations reach only the in-memory mirror, never the file.
    ASSERT_TRUE(meta.Upsert(DiskRecord(3, KiB(4), {3})).ok());
    EXPECT_EQ(meta.live().size(), 3U);
  }
  auto reopened = MetaStore::Open(path, KiB(4), 1, MetaStore::Options{});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  MetaStore& meta = **reopened;
  EXPECT_EQ(meta.live().size(), 2U);  // the pre-crash journal, bit for bit
  EXPECT_TRUE(meta.live().contains(1));
  EXPECT_TRUE(meta.live().contains(2));
}

// --- AttentionStore: durable open -----------------------------------------

StoreConfig DurableConfig(const std::string& path) {
  StoreConfig c;
  c.hbm_capacity = 0;
  c.dram_capacity = 0;  // disk-only: every record is durable state
  c.disk_capacity = MiB(2);
  c.block_bytes = KiB(4);
  c.real_payloads = true;
  c.durable = true;
  c.disk_path = path;
  c.audit = true;
  c.io_retry_backoff_us = 0;
  return c;
}

TEST(DurableStore, RequiresAnExplicitStablePath) {
  StoreConfig c = DurableConfig("");
  auto opened = AttentionStore::Open(c);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(DurableStore, RequiresRealPayloads) {
  StoreConfig c = DurableConfig(StorePath("durable_capacity_only"));
  c.real_payloads = false;
  auto opened = AttentionStore::Open(c);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(DurableStore, CleanReopenServesTheWarmTier) {
  const std::string path = StorePath("durable_clean_reopen");
  std::map<SessionId, std::vector<std::uint8_t>> expected;
  {
    auto opened = AttentionStore::Open(DurableConfig(path));
    ASSERT_TRUE(opened.ok()) << opened.status();
    AttentionStore store = std::move(*opened);
    for (SessionId s = 1; s <= 5; ++s) {
      auto payload = SessionPayload(s, /*version=*/1, KiB(4) * s);
      const std::vector<std::uint8_t> meta = {static_cast<std::uint8_t>(s), 0xee};
      ASSERT_TRUE(PutBytes(store, s, payload, /*now=*/static_cast<SimTime>(s), kNoHints, meta)
                      .ok());
      expected[s] = std::move(payload);
    }
    store.CheckInvariants();
  }
  auto reopened = AttentionStore::Open(DurableConfig(path));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  AttentionStore store = std::move(*reopened);
  store.CheckInvariants();
  EXPECT_EQ(store.recovery_stats().records_recovered, 5ULL);
  EXPECT_EQ(store.RecordCount(), 5U);
  for (const auto& [s, payload] : expected) {
    EXPECT_EQ(store.Lookup(s), Tier::kDisk);
    const std::vector<std::uint8_t>* meta = store.UserMeta(s);
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(*meta, (std::vector<std::uint8_t>{static_cast<std::uint8_t>(s), 0xee}));
    auto read = store.ReadPayload(s);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, payload) << "session " << s;
  }
}

TEST(DurableStore, JournalPayloadStoreIdMismatchFailsOpen) {
  const std::string path_a = StorePath("durable_id_a");
  const std::string path_b = StorePath("durable_id_b");
  for (const std::string& path : {path_a, path_b}) {
    auto opened = AttentionStore::Open(DurableConfig(path));
    ASSERT_TRUE(opened.ok()) << opened.status();
    AttentionStore store = std::move(*opened);
    auto payload = SessionPayload(1, 1, KiB(4));
    ASSERT_TRUE(PutBytes(store, 1, payload, 1, kNoHints).ok());
  }
  // A's journal over B's payload file: two different stores glued together.
  CopyFile(path_a + ".meta", path_b + ".meta");
  auto opened = AttentionStore::Open(DurableConfig(path_b));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

// A journal written by an older build (superblock version 2, checksum
// intact) must fail Open naming both versions — not be misread under the
// current record format — and leave both files exactly as they were.
TEST(DurableStore, JournalVersionMismatchFailsOpen) {
  const std::string path = StorePath("durable_old_version");
  {
    auto opened = AttentionStore::Open(DurableConfig(path));
    ASSERT_TRUE(opened.ok()) << opened.status();
    AttentionStore store = std::move(*opened);
    ASSERT_TRUE(PutBytes(store, 1, SessionPayload(1, 1, KiB(4)), 1, kNoHints).ok());
  }
  const auto read_file = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
  };
  std::vector<std::uint8_t> journal = read_file(path + ".meta");
  ASSERT_GE(journal.size(), 64U);
  // Superblock: [0] magic, [4] version, [8] block_bytes, [16] store_id,
  // [24] Fnv1a64 over [0, 24).
  const std::uint32_t old_version = 2;
  std::memcpy(journal.data() + 4, &old_version, sizeof old_version);
  const std::uint64_t sum = Fnv1a64(std::span<const std::uint8_t>(journal.data(), 24));
  std::memcpy(journal.data() + 24, &sum, sizeof sum);
  {
    std::ofstream out(path + ".meta", std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(journal.data()),
              static_cast<std::streamsize>(journal.size()));
  }
  const std::vector<std::uint8_t> payload_file = read_file(path);

  auto opened = AttentionStore::Open(DurableConfig(path));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  const std::string& message = opened.status().message();
  EXPECT_NE(message.find("version 2"), std::string::npos) << message;
  EXPECT_NE(message.find("writes 3"), std::string::npos) << message;
  EXPECT_EQ(read_file(path + ".meta"), journal);
  EXPECT_EQ(read_file(path), payload_file);
}

TEST(DurableStore, MissingPayloadSuperblockFailsOpen) {
  const std::string path = StorePath("durable_no_superblock");
  {
    auto opened = AttentionStore::Open(DurableConfig(path));
    ASSERT_TRUE(opened.ok()) << opened.status();
    AttentionStore store = std::move(*opened);
    auto payload = SessionPayload(1, 1, KiB(4));
    ASSERT_TRUE(PutBytes(store, 1, payload, 1, kNoHints).ok());
  }
  // Journal present but the payload file is gone/empty: refusing is the
  // only honest answer (the journal promises records the device lost).
  std::ofstream(path, std::ios::binary | std::ios::trunc).close();
  auto opened = AttentionStore::Open(DurableConfig(path));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DurableStore, RecoverVerifyPayloadsDropsCorruptedRecords) {
  const std::string path = StorePath("durable_verify");
  std::vector<std::uint8_t> expected_keep;
  {
    auto opened = AttentionStore::Open(DurableConfig(path));
    ASSERT_TRUE(opened.ok()) << opened.status();
    AttentionStore store = std::move(*opened);
    auto victim = SessionPayload(1, 1, KiB(8));
    expected_keep = SessionPayload(2, 1, KiB(8));
    ASSERT_TRUE(PutBytes(store, 1, victim, 1, kNoHints).ok());
    ASSERT_TRUE(PutBytes(store, 2, expected_keep, 2, kNoHints).ok());
  }
  {
    // Flip one byte of session 1's first block (the first data block: puts
    // allocate front-to-back on a fresh store; data starts after the 4 KiB
    // superblock).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(KiB(4)) + 17);
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(KiB(4)) + 17);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(KiB(4)) + 17);
    f.write(&byte, 1);
  }
  StoreConfig c = DurableConfig(path);
  c.recover_verify_payloads = true;
  auto reopened = AttentionStore::Open(c);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  AttentionStore store = std::move(*reopened);
  store.CheckInvariants();
  EXPECT_EQ(store.Lookup(1), Tier::kNone);  // corruption → clean miss
  EXPECT_EQ(store.recovery_stats().records_reconciled_missing, 1ULL);
  ASSERT_EQ(store.Lookup(2), Tier::kDisk);
  auto read = store.ReadPayload(2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, expected_keep);
}

// --- kill-restart crash schedules -----------------------------------------

// Drives a durable store through a deterministic put/remove mix until the
// armed crash schedule freezes all file writes (the simulated SIGKILL),
// keeps going (post-crash mutations must not reach the files), abandons the
// store, reopens, and verifies the recovered state is internally consistent
// and every payload is bitwise one of the versions actually put.
void RunCrashPointSoak(const std::string& name,
                       const std::function<void(StoreConfig&)>& arm_schedule) {
  SCOPED_TRACE(name);
  const std::string path = StorePath("crash_" + name);
  auto crash = std::make_shared<CrashSwitch>();
  // (session, version) → the exact bytes handed to Put.
  std::map<std::pair<SessionId, std::uint64_t>, std::vector<std::uint8_t>> put_log;
  {
    StoreConfig c = DurableConfig(path);
    c.meta_fault.crash = crash;
    arm_schedule(c);
    auto opened = AttentionStore::Open(c);
    ASSERT_TRUE(opened.ok()) << opened.status();
    AttentionStore store = std::move(*opened);
    Rng rng(1234);
    std::unordered_map<SessionId, std::uint64_t> version;
    for (int step = 0; step < 120; ++step) {
      const SessionId s = 1 + static_cast<SessionId>(rng.NextBounded(8));
      const std::uint64_t roll = rng.NextBounded(10);
      if (roll < 8) {
        const std::uint64_t v = ++version[s];
        // The record's token count doubles as the version stamp: v whole
        // tokens, the size rounded down to a multiple of v (which keeps the
        // block count, hence the crash schedule, unchanged).
        auto payload = SessionPayload(s, v, KiB(4) * (1 + rng.NextBounded(4)) / v * v);
        SpanChunkSource source(payload, payload.size() / v);
        if (store.Put(s, source, /*dedup_tokens=*/{}, static_cast<SimTime>(step + 1), kNoHints)
                .ok()) {
          put_log[{s, v}] = std::move(payload);
        }
      } else if (roll == 8) {
        store.Remove(s);
      } else if (store.Lookup(s) != Tier::kNone) {
        (void)store.ReadPayload(s);
      }
    }
    store.CheckInvariants();  // the live store never corrupts, crash or not
    EXPECT_TRUE(crash->frozen.load()) << "crash schedule never fired";
  }  // abandoned: frozen writes mean the files look SIGKILLed

  auto reopened = AttentionStore::Open(DurableConfig(path));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  AttentionStore store = std::move(*reopened);
  store.CheckInvariants();
  for (const SessionId s : store.SessionsInTier(Tier::kDisk)) {
    const auto info = store.GetInfo(s);
    ASSERT_TRUE(info.has_value());
    auto read = store.ReadPayload(s);
    if (!read.ok()) {
      // Reconciliation could not vouch for the bytes: a clean miss. The
      // store drops the record so the miss is permanent.
      EXPECT_EQ(store.Lookup(s), Tier::kNone);
      continue;
    }
    // token_count doubles as the version stamp, so the recovered record
    // names exactly which put it claims to be — and the bytes must match
    // that put bit for bit.
    const auto it = put_log.find({s, info->token_count});
    ASSERT_NE(it, put_log.end())
        << "session " << s << " recovered a version that was never put";
    EXPECT_EQ(*read, it->second) << "session " << s << " version " << info->token_count;
  }
  store.CheckInvariants();
}

TEST(CrashRecovery, CrashAtJournalAppend) {
  RunCrashPointSoak("journal_append",
                    [](StoreConfig& c) { c.meta_fault.crash_after_appends = 40; });
}

TEST(CrashRecovery, CrashWithTornJournalAppend) {
  RunCrashPointSoak("journal_torn", [](StoreConfig& c) {
    c.meta_fault.crash_after_appends = 40;
    c.meta_fault.torn_append_bytes = 7;  // the frame header lands cut short
  });
}

TEST(CrashRecovery, CrashAtJournalFsync) {
  RunCrashPointSoak("journal_fsync", [](StoreConfig& c) {
    c.meta_fsync = MetaFsyncPolicy::kAlways;
    c.meta_fault.crash_after_fsyncs = 40;
  });
}

TEST(CrashRecovery, CrashDuringPayloadBlockWrite) {
  RunCrashPointSoak("payload_write",
                    [](StoreConfig& c) { c.disk_crash_after_block_writes = 60; });
}

TEST(CrashRecovery, CrashDuringCompaction) {
  RunCrashPointSoak("compaction", [](StoreConfig& c) {
    c.meta_compact_threshold = KiB(4);
    c.meta_fault.crash_on_compact = 1;
  });
}

// --- engine kill-restart ---------------------------------------------------

std::vector<TokenId> MakeTokens(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  std::vector<TokenId> out(n);
  for (auto& t : out) {
    t = static_cast<TokenId>(rng.NextBounded(vocab));
  }
  return out;
}

EngineOptions DurableEngineOptions(const std::string& path) {
  EngineOptions options;
  options.store = DurableConfig(path);
  options.store.disk_capacity = MiB(32);
  options.store.block_bytes = KiB(16);
  return options;
}

// A serving process dies mid-save (simulated SIGKILL) and restarts against
// the same durable store. Every recovered session must resume from a state
// the reference run actually passed through, and replaying the remaining
// turns must reproduce the reference replies token for token — recovery is
// allowed to lose turns (clean misses, recomputed), never to change them.
TEST(CrashRecovery, EngineKillRestartServesBitwiseIdenticalReplies) {
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kTurns = 3;
  constexpr std::size_t kReplyBudget = 5;
  Transformer model(ModelConfig::Mini(), 51);

  const auto turn_input = [&](std::size_t turn) {
    return MakeTokens(6 + turn, 100 + turn, model.config().vocab_size);
  };

  // Reference run: same durable configuration, no crash.
  const std::string ref_path = StorePath("engine_reference");
  // replies[t][s], histories[t][s] = state after turn t (0-based).
  std::vector<std::unordered_map<SessionId, std::vector<TokenId>>> replies(kTurns);
  std::vector<std::unordered_map<SessionId, std::vector<TokenId>>> histories(kTurns);
  {
    auto engine = CachedAttentionEngine::Create(&model, DurableEngineOptions(ref_path));
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (std::size_t t = 0; t < kTurns; ++t) {
      for (SessionId s = 1; s <= kSessions; ++s) {
        auto r = (*engine)->Converse(s, turn_input(t), kReplyBudget);
        ASSERT_TRUE(r.ok()) << r.status();
        replies[t][s] = r->reply;
        histories[t][s] = (*engine)->SessionHistory(s);
      }
    }
  }

  // Crash run: the payload-write schedule fires partway through the saves.
  const std::string crash_path = StorePath("engine_crash");
  auto crash = std::make_shared<CrashSwitch>();
  {
    EngineOptions options = DurableEngineOptions(crash_path);
    options.store.meta_fault.crash = crash;
    options.store.disk_crash_after_block_writes = 30;
    auto engine = CachedAttentionEngine::Create(&model, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (std::size_t t = 0; t < kTurns; ++t) {
      for (SessionId s = 1; s <= kSessions; ++s) {
        // The live process never notices the dying device: replies stay
        // identical even while saves silently stop landing.
        auto r = (*engine)->Converse(s, turn_input(t), kReplyBudget);
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_EQ(r->reply, replies[t][s]) << "live turn " << t << " session " << s;
      }
    }
    EXPECT_TRUE(crash->frozen.load()) << "crash schedule never fired";
  }  // abandoned mid-flight: on-disk state is whatever landed before the freeze

  // Restart against the same files.
  auto restarted = CachedAttentionEngine::Create(&model, DurableEngineOptions(crash_path));
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  CachedAttentionEngine& engine = **restarted;
  for (SessionId s = 1; s <= kSessions; ++s) {
    const std::vector<TokenId> recovered = engine.SessionHistory(s);
    // The recovered state must be one the reference run passed through:
    // empty (clean miss) or the exact history after some completed turn.
    std::size_t resume_turn = kTurns + 1;
    if (recovered.empty()) {
      resume_turn = 0;
    } else {
      for (std::size_t t = 0; t < kTurns; ++t) {
        if (recovered == histories[t][s]) {
          resume_turn = t + 1;
          break;
        }
      }
    }
    ASSERT_LE(resume_turn, kTurns)
        << "session " << s << " recovered a history the reference never produced";
    // Replay the lost turns: greedy decode over identical state must
    // reproduce the reference replies bit for bit, whether the KV cache was
    // recovered (reuse) or recomputed from the restored history (miss).
    for (std::size_t t = resume_turn; t < kTurns; ++t) {
      auto r = engine.Converse(s, turn_input(t), kReplyBudget);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->reply, replies[t][s]) << "replayed turn " << t << " session " << s;
    }
    EXPECT_EQ(engine.SessionHistory(s), histories[kTurns - 1][s]) << "session " << s;
  }
}

}  // namespace
}  // namespace ca
