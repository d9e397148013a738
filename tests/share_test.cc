// Cross-session KV prefix sharing tests (DESIGN.md §17).
//
//  * Put with dedup tokens deduplicates identical token prefixes across
//    sessions into
//    refcounted shared chunk records (≥ 64 sessions over a ≥ 512-token
//    common prefix must shrink stored payload bytes ≥ 4x vs sharing-off)
//    while every session reads back its exact payload bytes;
//  * copy-on-write at save granularity: a session diverging mid-chunk
//    writes only its divergent chunks, shared ancestors keep one copy;
//  * refcount lifecycle: no chunk is freed while referenced, none leaks
//    once the last referrer is gone (CheckInvariants audits every
//    mutation), under re-puts, eviction cascades and seeded fault
//    injection;
//  * durable stores recover shared state across kill-restart: chunk
//    registry and prefix index rebuilt, refcounts re-derived from the
//    recovered block tables — zero double-frees, zero leaks;
//  * access checkpoints (the S1 bugfix): post-recovery eviction order
//    follows real recency, not journal-upsert order;
//  * engine-level differential soak: replies are bitwise-identical with
//    sharing on vs off (with and without KV compression), caches tainted by
//    KV truncation fall back to private records (an empty block table),
//    async saves are fenced by ExportSession (S2), and a durable sharing
//    engine resumes identically after a kill-restart.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/cached_attention.h"
#include "src/model/compression.h"
#include "src/model/transformer.h"
#include "src/store/attention_store.h"
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
  const std::string path = testing::TempDir() + "/ca_share_" + name + ".blocks";
  RemoveStoreFiles(path);
  return path;
}

// --- store level ----------------------------------------------------------

constexpr std::uint64_t kBpt = 256;  // synthetic token-major bytes per token

// Deterministic token-major payload: token i's bytes are a pure function of
// (position, token value), mirroring the engine's determinism oracle —
// identical prefixes produce identical KV rows, so byte equality across
// sessions holds exactly on the shared prefix.
std::vector<std::uint8_t> TokenMajorPayload(std::span<const std::uint32_t> tokens) {
  std::vector<std::uint8_t> out(tokens.size() * kBpt);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    Rng rng(static_cast<std::uint64_t>(tokens[i]) * 1000003 + i);
    for (std::uint64_t b = 0; b < kBpt; ++b) {
      out[i * kBpt + b] = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
  }
  return out;
}

std::vector<std::uint32_t> TokenSeq(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> out(n);
  for (auto& t : out) {
    t = static_cast<std::uint32_t>(rng.NextBounded(50000));
  }
  return out;
}

StoreConfig ShareConfig() {
  StoreConfig c;
  c.hbm_capacity = 0;
  c.dram_capacity = MiB(64);
  c.disk_capacity = MiB(64);
  c.block_bytes = KiB(4);
  c.real_payloads = true;
  c.share_prefixes = true;
  c.share_chunk_tokens = 64;
  c.audit = true;  // CheckInvariants after every mutation
  c.io_retry_backoff_us = 0;
  return c;
}

Status PutSharedTokens(AttentionStore& store, SessionId s,
                       std::span<const std::uint32_t> tokens, SimTime now) {
  const std::vector<std::uint8_t> payload = TokenMajorPayload(tokens);
  SpanChunkSource source(payload, kBpt);
  return store.Put(s, source, tokens, now, kNoHints);
}

// The tentpole acceptance bar: 64 sessions sharing a 512-token prefix must
// store ≥ 4x fewer payload bytes than the sharing-off baseline, while every
// session still reads back its exact bytes.
TEST(SharedPrefix, DedupShrinksStoredBytesAtLeast4x) {
  constexpr std::size_t kSessions = 64;
  constexpr std::size_t kPrefix = 512;
  constexpr std::size_t kTail = 16;
  const std::vector<std::uint32_t> prefix = TokenSeq(kPrefix, 42);

  AttentionStore shared(ShareConfig());
  StoreConfig off = ShareConfig();
  off.share_prefixes = false;
  AttentionStore baseline(off);

  std::unordered_map<SessionId, std::vector<std::uint32_t>> token_seqs;
  for (SessionId s = 1; s <= kSessions; ++s) {
    std::vector<std::uint32_t> tokens = prefix;
    const auto tail = TokenSeq(kTail, 9000 + s);
    tokens.insert(tokens.end(), tail.begin(), tail.end());
    ASSERT_TRUE(PutSharedTokens(shared, s, tokens, static_cast<SimTime>(s)).ok());
    ASSERT_TRUE(PutSharedTokens(baseline, s, tokens, static_cast<SimTime>(s)).ok());
    token_seqs.emplace(s, std::move(tokens));
  }

  const std::uint64_t shared_bytes = shared.UsedBytes(Tier::kDram) + shared.UsedBytes(Tier::kDisk);
  const std::uint64_t baseline_bytes =
      baseline.UsedBytes(Tier::kDram) + baseline.UsedBytes(Tier::kDisk);
  ASSERT_GT(shared_bytes, 0ULL);
  EXPECT_GE(static_cast<double>(baseline_bytes) / static_cast<double>(shared_bytes), 4.0)
      << "baseline " << baseline_bytes << " vs shared " << shared_bytes;

  // 8 full chunks per session; session 1 creates them, 63 sessions hit.
  const StoreStats& st = shared.stats();
  EXPECT_EQ(st.shared_puts, kSessions);
  EXPECT_EQ(st.chunks_created, kPrefix / 64);
  EXPECT_EQ(st.prefix_hits, (kSessions - 1) * (kPrefix / 64));
  EXPECT_GT(st.shared_bytes_saved, (kSessions - 1) * kPrefix * kBpt / 2);
  EXPECT_GT(st.prefix_hit_rate(), 0.9);
  EXPECT_EQ(shared.RecordCount(), kSessions);
  EXPECT_EQ(shared.ChunkCount(), kPrefix / 64);

  // GetInfo reports the full logical payload; the record itself holds only
  // the private tail.
  const auto info = shared.GetInfo(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->payload_bytes, (kPrefix + kTail) * kBpt);
  EXPECT_EQ(info->bytes, kTail * kBpt);
  EXPECT_EQ(info->token_count, kPrefix + kTail);

  // Bitwise read-back for every session despite the shared storage.
  for (SessionId s = 1; s <= kSessions; ++s) {
    auto read = shared.ReadPayload(s);
    ASSERT_TRUE(read.ok()) << "session " << s << ": " << read.status();
    EXPECT_EQ(*read, TokenMajorPayload(token_seqs.at(s))) << "session " << s;
  }
}

TEST(SharedPrefix, CopyOnWriteAtDivergence) {
  AttentionStore store(ShareConfig());
  // a and b agree for 2 chunks, diverge inside the 3rd, both carry a tail.
  std::vector<std::uint32_t> a = TokenSeq(208, 7);  // 3 full chunks + 16 tail
  std::vector<std::uint32_t> b = a;
  b[130] ^= 1;  // inside chunk 3 (tokens 128..191)
  for (std::size_t i = 192; i < b.size(); ++i) {
    b[i] += 17;
  }
  ASSERT_TRUE(PutSharedTokens(store, 1, a, 1).ok());
  ASSERT_TRUE(PutSharedTokens(store, 2, b, 2).ok());

  // Chunks 1, 2 shared; chunk 3 exists twice (copy-on-write).
  EXPECT_EQ(store.ChunkCount(), 4U);
  EXPECT_EQ(store.stats().prefix_hits, 2ULL);
  EXPECT_EQ(store.stats().chunks_created, 4ULL);

  auto ra = store.ReadPayload(1);
  auto rb = store.ReadPayload(2);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*ra, TokenMajorPayload(a));
  EXPECT_EQ(*rb, TokenMajorPayload(b));
  EXPECT_NE(*ra, *rb);
}

// The chain key includes the parent chunk: equal token *contents* at a
// different position in the chain must not dedup (a hit proves exact
// whole-prefix equality, which is what makes sharing reply-preserving).
TEST(SharedPrefix, SameChunkContentsUnderDifferentParentDoesNotDedup) {
  AttentionStore store(ShareConfig());
  const auto common = TokenSeq(64, 11);
  std::vector<std::uint32_t> a = TokenSeq(64, 12);
  a.insert(a.end(), common.begin(), common.end());
  a.push_back(1);
  std::vector<std::uint32_t> b = TokenSeq(64, 13);  // different first chunk
  b.insert(b.end(), common.begin(), common.end());
  b.push_back(2);
  ASSERT_TRUE(PutSharedTokens(store, 1, a, 1).ok());
  ASSERT_TRUE(PutSharedTokens(store, 2, b, 2).ok());
  EXPECT_EQ(store.stats().prefix_hits, 0ULL);
  EXPECT_EQ(store.ChunkCount(), 4U);
  auto ra = store.ReadPayload(1);
  auto rb = store.ReadPayload(2);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*ra, TokenMajorPayload(a));
  EXPECT_EQ(*rb, TokenMajorPayload(b));
}

// A payload of exactly N full chunks keeps its last chunk as the private
// tail (records must stay non-empty), so only N-1 chunks are shareable.
TEST(SharedPrefix, ExactChunkMultipleKeepsTailPrivate) {
  AttentionStore store(ShareConfig());
  const auto tokens = TokenSeq(128, 21);  // exactly 2 chunks
  ASSERT_TRUE(PutSharedTokens(store, 1, tokens, 1).ok());
  EXPECT_EQ(store.ChunkCount(), 1U);
  const auto info = store.GetInfo(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->bytes, 64 * kBpt);  // the second chunk is the tail
  EXPECT_EQ(info->payload_bytes, 128 * kBpt);
  auto read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, TokenMajorPayload(tokens));

  // Shorter than one chunk: purely private, no chunks at all.
  const auto small = TokenSeq(63, 22);
  ASSERT_TRUE(PutSharedTokens(store, 2, small, 2).ok());
  EXPECT_EQ(store.ChunkCount(), 1U);
  auto small_read = store.ReadPayload(2);
  ASSERT_TRUE(small_read.ok());
  EXPECT_EQ(*small_read, TokenMajorPayload(small));
}

TEST(SharedPrefix, RemoveFreesChunksExactlyOnce) {
  AttentionStore store(ShareConfig());
  constexpr std::size_t kSessions = 8;
  const auto prefix = TokenSeq(192, 33);
  for (SessionId s = 1; s <= kSessions; ++s) {
    std::vector<std::uint32_t> tokens = prefix;
    tokens.push_back(static_cast<std::uint32_t>(s));
    ASSERT_TRUE(PutSharedTokens(store, s, tokens, static_cast<SimTime>(s)).ok());
  }
  EXPECT_EQ(store.ChunkCount(), 3U);
  // Removing all but one referrer must keep every chunk alive (audit mode
  // verifies refcounts after each Remove).
  for (SessionId s = 1; s < kSessions; ++s) {
    store.Remove(s);
    EXPECT_EQ(store.ChunkCount(), 3U) << "after removing session " << s;
  }
  auto read = store.ReadPayload(kSessions);
  ASSERT_TRUE(read.ok());
  // The last referrer takes the chunks with it: no leak.
  store.Remove(kSessions);
  EXPECT_EQ(store.ChunkCount(), 0U);
  EXPECT_EQ(store.RecordCount(), 0U);
  EXPECT_EQ(store.UsedBytes(Tier::kDram) + store.UsedBytes(Tier::kDisk), 0ULL);
  EXPECT_EQ(store.stats().chunks_freed, store.stats().chunks_created);
  store.CheckInvariants();
}

// Re-putting a session (the per-turn update) extends its block table
// in-place: the old table's references are released, the grown prefix
// re-hits the same chunks, and refcounts end exactly where they started.
TEST(SharedPrefix, RePutUpdatesBlockTableWithoutLeaking) {
  AttentionStore store(ShareConfig());
  std::vector<std::uint32_t> tokens = TokenSeq(100, 55);
  ASSERT_TRUE(PutSharedTokens(store, 1, tokens, 1).ok());
  EXPECT_EQ(store.ChunkCount(), 1U);
  // Turn 2: history grows; the first chunk dedups against itself.
  const auto more = TokenSeq(100, 56);
  tokens.insert(tokens.end(), more.begin(), more.end());
  ASSERT_TRUE(PutSharedTokens(store, 1, tokens, 2).ok());
  EXPECT_EQ(store.ChunkCount(), 3U);
  EXPECT_EQ(store.stats().prefix_hits, 1ULL);  // chunk 1 re-hit on the re-put
  // A second session over the same history shares all three chunks.
  ASSERT_TRUE(PutSharedTokens(store, 2, tokens, 3).ok());
  EXPECT_EQ(store.ChunkCount(), 3U);
  auto r1 = store.ReadPayload(1);
  auto r2 = store.ReadPayload(2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, TokenMajorPayload(tokens));
  EXPECT_EQ(*r2, *r1);
  store.Remove(1);
  store.Remove(2);
  EXPECT_EQ(store.ChunkCount(), 0U);
}

// Capacity pressure with shared chunks: evictions (including chunk
// cascades onto every referrer) must keep the refcount invariants — audit
// mode aborts on any double-free or leak — and surviving sessions must
// still read back bitwise.
TEST(SharedPrefix, EvictionCascadeKeepsInvariants) {
  StoreConfig c = ShareConfig();
  c.dram_capacity = KiB(128);
  c.disk_capacity = KiB(128);
  c.eviction_policy = "dedup-aware";
  AttentionStore store(c);

  std::unordered_map<SessionId, std::vector<std::uint32_t>> token_seqs;
  SimTime now = 1;
  for (std::uint64_t group = 0; group < 8; ++group) {
    const auto prefix = TokenSeq(128, 700 + group);
    for (std::uint64_t member = 0; member < 2; ++member) {
      const SessionId s = static_cast<SessionId>(group * 2 + member + 1);
      std::vector<std::uint32_t> tokens = prefix;
      const auto tail = TokenSeq(16, 800 + s);
      tokens.insert(tokens.end(), tail.begin(), tail.end());
      ASSERT_TRUE(PutSharedTokens(store, s, tokens, now++).ok());
      token_seqs.emplace(s, std::move(tokens));
    }
  }
  // The working set (~320 KiB of chunk + tail payload) exceeds both tiers
  // combined (256 KiB), so something must have been evicted along the way.
  EXPECT_GT(store.stats().evictions_out, 0ULL);
  std::size_t survivors = 0;
  for (const auto& [s, tokens] : token_seqs) {
    if (!store.GetInfo(s).has_value()) {
      continue;
    }
    auto read = store.ReadPayload(s);
    ASSERT_TRUE(read.ok()) << "session " << s << ": " << read.status();
    EXPECT_EQ(*read, TokenMajorPayload(tokens)) << "session " << s;
    ++survivors;
  }
  EXPECT_GT(survivors, 0U);
  store.CheckInvariants();
}

// Seeded fault injection on the shared-block path (S4): every operation
// either succeeds bitwise or degrades to a clean miss; the refcount
// invariants hold after every mutation (audit mode) and at the end.
TEST(SharedPrefix, SeededFaultSoakKeepsRefcountInvariants) {
  StoreConfig c = ShareConfig();
  c.dram_capacity = MiB(1);
  c.disk_capacity = MiB(1);
  c.dram_fault.seed = 99;
  c.dram_fault.write_transient_p = 0.15;
  c.dram_fault.read_transient_p = 0.15;
  c.disk_fault.seed = 100;
  c.disk_fault.write_transient_p = 0.1;
  c.disk_fault.read_permanent_p = 0.05;
  c.io_retries = 1;
  AttentionStore store(c);

  Rng rng(1234);
  std::unordered_map<SessionId, std::vector<std::uint32_t>> live;
  const auto prefix_a = TokenSeq(128, 1);
  const auto prefix_b = TokenSeq(128, 2);
  SimTime now = 1;
  for (std::uint64_t round = 0; round < 200; ++round) {
    const SessionId s = static_cast<SessionId>(1 + rng.NextBounded(12));
    const std::uint64_t op = rng.NextBounded(10);
    if (op < 5) {
      std::vector<std::uint32_t> tokens = (s % 2 == 0) ? prefix_a : prefix_b;
      const auto tail = TokenSeq(1 + rng.NextBounded(80), 5000 + round);
      tokens.insert(tokens.end(), tail.begin(), tail.end());
      if (PutSharedTokens(store, s, tokens, now++).ok()) {
        live[s] = std::move(tokens);
      } else {
        live.erase(s);  // failed puts drop the record
      }
    } else if (op < 8) {
      const auto it = live.find(s);
      auto read = store.ReadPayload(s);
      if (read.ok()) {
        ASSERT_NE(it, live.end()) << "read served a session that was never stored";
        EXPECT_EQ(*read, TokenMajorPayload(it->second)) << "round " << round;
      } else if (!store.GetInfo(s).has_value()) {
        live.erase(s);  // permanent failure dropped the record: clean miss
      }
    } else {
      store.Remove(s);
      live.erase(s);
    }
  }
  store.CheckInvariants();
  // The schedule above must actually have exercised the fault paths.
  EXPECT_GT(store.stats().io_faults() + store.stats().io_retries, 0ULL);
  // Drain everything: no chunk may survive its last referrer.
  for (SessionId s = 1; s <= 12; ++s) {
    store.Remove(s);
  }
  EXPECT_EQ(store.ChunkCount(), 0U);
  EXPECT_EQ(store.RecordCount(), 0U);
  store.CheckInvariants();
}

// --- durable recovery -----------------------------------------------------

StoreConfig DurableShareConfig(const std::string& path) {
  StoreConfig c = ShareConfig();
  c.hbm_capacity = 0;
  c.dram_capacity = 0;  // disk-only: everything is durable state
  c.disk_capacity = MiB(8);
  c.durable = true;
  c.disk_path = path;
  return c;
}

// Kill-restart over shared blocks: the chunk registry, prefix index and
// refcounts are rebuilt from the journaled block tables. CheckInvariants
// (audit mode) proves zero double-frees and zero leaks; the post-recovery
// drain proves every chunk is freed exactly once.
TEST(SharedRecovery, KillRestartRecoversChunksAndRefcounts) {
  const std::string path = StorePath("recover_chunks");
  constexpr std::size_t kSessions = 6;
  const auto prefix = TokenSeq(192, 77);
  std::unordered_map<SessionId, std::vector<std::uint32_t>> token_seqs;
  {
    auto opened = AttentionStore::Open(DurableShareConfig(path));
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (SessionId s = 1; s <= kSessions; ++s) {
      std::vector<std::uint32_t> tokens = prefix;
      const auto tail = TokenSeq(8, 6000 + s);
      tokens.insert(tokens.end(), tail.begin(), tail.end());
      ASSERT_TRUE(PutSharedTokens(*opened, s, tokens, static_cast<SimTime>(s)).ok());
      token_seqs.emplace(s, std::move(tokens));
    }
    EXPECT_EQ(opened->ChunkCount(), 3U);
  }  // dropped without any shutdown handshake: the journal is all that survives

  auto reopened = AttentionStore::Open(DurableShareConfig(path));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  AttentionStore& store = *reopened;
  store.CheckInvariants();
  EXPECT_EQ(store.RecordCount(), kSessions);
  EXPECT_EQ(store.ChunkCount(), 3U);
  for (SessionId s = 1; s <= kSessions; ++s) {
    const auto info = store.GetInfo(s);
    ASSERT_TRUE(info.has_value()) << "session " << s;
    EXPECT_GT(info->payload_bytes, info->bytes) << "session " << s << " lost its block table";
    auto read = store.ReadPayload(s);
    ASSERT_TRUE(read.ok()) << "session " << s << ": " << read.status();
    EXPECT_EQ(*read, TokenMajorPayload(token_seqs.at(s))) << "session " << s;
  }
  // Refcounts were re-derived, not journaled: removing all but one session
  // must keep the chunks, the last removal must free them exactly once
  // (a double-free aborts in the allocator, a leak aborts in the audit).
  for (SessionId s = 1; s < kSessions; ++s) {
    store.Remove(s);
    EXPECT_EQ(store.ChunkCount(), 3U);
  }
  store.Remove(kSessions);
  EXPECT_EQ(store.ChunkCount(), 0U);
  EXPECT_EQ(store.UsedBytes(Tier::kDisk), 0ULL);
  store.CheckInvariants();
}

// Crash mid-save: whatever the journal replay resurrects must satisfy the
// sharing invariants and serve bitwise payloads or clean misses.
TEST(SharedRecovery, CrashScheduleNeverDoubleFreesSharedBlocks) {
  const std::string path = StorePath("recover_crash");
  auto crash = std::make_shared<CrashSwitch>();
  const auto prefix = TokenSeq(192, 88);
  std::unordered_map<SessionId, std::vector<std::uint32_t>> token_seqs;
  {
    StoreConfig c = DurableShareConfig(path);
    c.meta_fault.crash = crash;
    // Dedup means few writes land at all: 3 chunks (12 blocks) + 8 tails.
    // Freeze partway through so some sessions' tables survive and some die.
    c.disk_crash_after_block_writes = 14;
    auto opened = AttentionStore::Open(c);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (SessionId s = 1; s <= 8; ++s) {
      std::vector<std::uint32_t> tokens = prefix;
      const auto tail = TokenSeq(8, 7000 + s);
      tokens.insert(tokens.end(), tail.begin(), tail.end());
      // Saves may fail once the device freezes; both outcomes are legal.
      (void)PutSharedTokens(*opened, s, tokens, static_cast<SimTime>(s));
      token_seqs.emplace(s, std::move(tokens));
    }
    EXPECT_TRUE(crash->frozen.load()) << "crash schedule never fired";
  }

  auto reopened = AttentionStore::Open(DurableShareConfig(path));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  AttentionStore& store = *reopened;
  store.CheckInvariants();
  for (SessionId s = 1; s <= 8; ++s) {
    if (!store.GetInfo(s).has_value()) {
      continue;  // lost in the crash: a clean miss
    }
    auto read = store.ReadPayload(s);
    if (read.ok()) {
      EXPECT_EQ(*read, TokenMajorPayload(token_seqs.at(s))) << "session " << s;
    }
  }
  // Full drain: every surviving chunk must free exactly once.
  for (SessionId s = 1; s <= 8; ++s) {
    store.Remove(s);
  }
  EXPECT_EQ(store.ChunkCount(), 0U);
  EXPECT_EQ(store.RecordCount(), 0U);
  store.CheckInvariants();
}

// S1 bugfix: without access checkpoints, a record's journaled last_access
// is its *put* time, so post-recovery LRU evicts by insertion order — the
// hot record dies first. With checkpoints the recovered order follows real
// recency.
TEST(SharedRecovery, AccessCheckpointsPreserveLruOrderAcrossRestart) {
  for (const bool checkpoints : {true, false}) {
    const std::string path =
        StorePath(checkpoints ? "access_journal_on" : "access_journal_off");
    StoreConfig c = DurableShareConfig(path);
    c.share_prefixes = false;  // isolate the access-journal behaviour
    c.disk_capacity = KiB(64);
    c.block_bytes = KiB(4);
    c.eviction_policy = "lru";
    c.access_journal_every_n = checkpoints ? 1 : 0;

    const std::vector<std::uint8_t> payload(KiB(24), 0x5A);
    {
      auto opened = AttentionStore::Open(c);
      ASSERT_TRUE(opened.ok()) << opened.status();
      // A inserted first (older upsert), B second — then A is touched at
      // t=100, making B the genuinely-cold record.
      ASSERT_TRUE(PutBytes(*opened, 1, payload, 1, kNoHints).ok());
      ASSERT_TRUE(PutBytes(*opened, 2, payload, 2, kNoHints).ok());
      ASSERT_TRUE(opened->Access(1, 100).has_value());
    }
    auto reopened = AttentionStore::Open(c);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    // A third record forces one eviction from the 64 KiB tier.
    ASSERT_TRUE(PutBytes(*reopened, 3, payload, 200, kNoHints).ok());
    if (checkpoints) {
      // Recovered recency is real: the LRU victim is B, the hot A survives.
      EXPECT_TRUE(reopened->GetInfo(1).has_value()) << "hot record evicted after recovery";
      EXPECT_FALSE(reopened->GetInfo(2).has_value());
    } else {
      // The pre-fix behaviour this knob exists to repair: the access never
      // reached the journal, so recovery believes A is the coldest.
      EXPECT_FALSE(reopened->GetInfo(1).has_value());
      EXPECT_TRUE(reopened->GetInfo(2).has_value());
    }
  }
}

// --- engine level ----------------------------------------------------------

std::vector<TokenId> MakeTokens(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  std::vector<TokenId> out(n);
  for (auto& t : out) {
    t = static_cast<TokenId>(rng.NextBounded(vocab));
  }
  return out;
}

EngineOptions ShareEngineOptions() {
  EngineOptions options;
  options.store.dram_capacity = MiB(64);
  options.store.disk_capacity = MiB(256);
  options.store.block_bytes = KiB(16);
  options.store.share_prefixes = true;
  options.store.share_chunk_tokens = 8;  // small chunks: short tests still share
  options.store.audit = true;
  return options;
}

// The determinism bar: with many sessions opening on a common prompt,
// replies must be bitwise-identical with sharing on vs off — sharing
// changes where bytes live, never what the model computes. The
// compression-enabled engine flips purity turn to turn (the first turn's
// save fits under the TDL budget and dedups; later turns discard tokens and
// are stored whole), so one session's saves switch between a block table
// and an empty one.
TEST(ShareEngine, RepliesBitwiseIdenticalSharingOnVsOff) {
  Transformer model(ModelConfig::Mini(), 51);
  for (const CompressionPolicy policy :
       {CompressionPolicy::kNone, CompressionPolicy::kAttentionSink}) {
    SCOPED_TRACE(policy == CompressionPolicy::kNone ? "no compression" : "attention-sink TDL");
    EngineOptions on_opts = ShareEngineOptions();
    on_opts.compression.policy = policy;
    CachedAttentionEngine on(&model, on_opts);
    EngineOptions off_opts = on_opts;
    off_opts.store.share_prefixes = false;
    CachedAttentionEngine off(&model, off_opts);

    constexpr std::size_t kSessions = 6;
    constexpr std::size_t kTurns = 3;
    // Every session opens with the same system prompt (the shared prefix),
    // then diverges onto its own turns.
    const auto prompt = MakeTokens(24, 4242, model.config().vocab_size);
    std::uint64_t compressed = 0;
    for (std::size_t t = 0; t < kTurns; ++t) {
      for (SessionId s = 1; s <= kSessions; ++s) {
        const auto input =
            t == 0 ? prompt : MakeTokens(5 + t, 1000 * s + t, model.config().vocab_size);
        auto ron = on.Converse(s, input, 6);
        auto roff = off.Converse(s, input, 6);
        ASSERT_TRUE(ron.ok()) << ron.status();
        ASSERT_TRUE(roff.ok()) << roff.status();
        EXPECT_EQ(ron->reply, roff->reply) << "turn " << t << " session " << s;
        EXPECT_EQ(on.SessionHistory(s), off.SessionHistory(s));
        compressed += ron->compressed_tokens;
      }
    }
    EXPECT_EQ(compressed > 0, policy != CompressionPolicy::kNone);
    // Sharing must actually have engaged: turn-1 saves dedup the prompt.
    const StoreStats& st = on.store().stats();
    EXPECT_GT(st.shared_puts, 0ULL);
    EXPECT_GT(st.prefix_hits, 0ULL);
    EXPECT_GT(st.shared_bytes_saved, 0ULL);
    EXPECT_EQ(off.store().stats().shared_puts, 0ULL);
    on.store().CheckInvariants();

    // All sessions ending must leave no chunk behind (the refcount
    // invariant's terminal case).
    for (SessionId s = 1; s <= kSessions; ++s) {
      on.EndSession(s);
    }
    EXPECT_EQ(on.store().ChunkCount(), 0U);
    on.store().CheckInvariants();
  }
}

// KV-truncated caches are impure: the rows kept attended over the dropped
// context, so the engine must keep them out of the prefix index and fall
// back to a private record — and recover purity on the next full recompute.
TEST(ShareEngine, TruncatedCachesFallBackToPrivateRecords) {
  Transformer model(ModelConfig::Mini(), 51);
  EngineOptions options = ShareEngineOptions();
  options.overflow_policy = OverflowPolicy::kKvTruncate;
  CachedAttentionEngine engine(&model, options);
  const std::size_t window = model.config().context_window;

  // Fill most of the window; the save is pure and shared.
  const auto big = MakeTokens(window - 40, 3, model.config().vocab_size);
  ASSERT_TRUE(engine.Converse(7, big, 4).ok());
  auto info = engine.store().GetInfo(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->payload_bytes, info->bytes) << "pure cache kept no block table";

  // Overflow: the engine truncates the loaded cache's front — tainted.
  const auto more = MakeTokens(60, 4, model.config().vocab_size);
  auto r = engine.Converse(7, more, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  info = engine.store().GetInfo(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->payload_bytes, info->bytes) << "tainted cache entered the prefix index";

  engine.store().CheckInvariants();
}

// S2 bugfix companion: ExportSession must fence the in-flight async save so
// the exported record matches the exported history (same turn), and the
// migrated session must continue bitwise-identically on the target shard.
TEST(ShareEngine, ExportDrainsAsyncSharedSaveMidFlight) {
  Transformer model(ModelConfig::Mini(), 51);
  EngineOptions async_opts = ShareEngineOptions();
  async_opts.async_save = true;
  EngineOptions ref_opts = ShareEngineOptions();

  CachedAttentionEngine source(&model, async_opts);
  CachedAttentionEngine target(&model, async_opts);
  CachedAttentionEngine reference(&model, ref_opts);

  const auto turn_input = [&](SessionId s, std::size_t t) {
    return MakeTokens(6 + t, 31 * s + t, model.config().vocab_size);
  };
  for (SessionId s = 1; s <= 3; ++s) {
    auto r = source.Converse(s, turn_input(s, 0), 5);
    auto ref = reference.Converse(s, turn_input(s, 0), 5);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(r->reply, ref->reply);
    // Export immediately, without Flush: the save for this turn is (or may
    // be) still in flight on the write stream. The export must drain it —
    // a record snapshotted from the previous turn would disagree with the
    // history and be rejected by the importer.
    auto snap = source.ExportSession(s);
    ASSERT_TRUE(snap.ok()) << snap.status();
    ASSERT_TRUE(snap->record.has_value())
        << "export raced the async save and found no record";
    EXPECT_EQ(snap->record->token_count, snap->history.size());
    // The export is the materialized full payload, not the own piece.
    EXPECT_EQ(snap->record->bytes,
              snap->history.size() * KvCache::TokenMajorBytesPerToken(model.config()));
    source.EndSession(s);
    ASSERT_TRUE(target.ImportSession(*std::move(snap)).ok());
  }
  // The migrated sessions resume on the target with reference replies, KV
  // intact (no recompute fallback: the import carried the payload).
  for (SessionId s = 1; s <= 3; ++s) {
    auto r = target.Converse(s, turn_input(s, 1), 5);
    auto ref = reference.Converse(s, turn_input(s, 1), 5);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(r->reply, ref->reply) << "session " << s;
    EXPECT_TRUE(r->cache_hit);
  }
  target.Flush();
  target.store().CheckInvariants();
}

EngineOptions DurableShareEngineOptions(const std::string& path) {
  EngineOptions options;
  options.store = DurableShareConfig(path);
  options.store.disk_capacity = MiB(32);
  options.store.block_bytes = KiB(16);
  options.store.share_chunk_tokens = 8;
  return options;
}

// A durable sharing engine killed without a shutdown handshake must come
// back serving bitwise-identical replies over the recovered shared blocks
// (the v2 user-meta blob restores history + purity).
TEST(ShareEngine, DurableKillRestartResumesBitwiseIdentical) {
  Transformer model(ModelConfig::Mini(), 51);
  const std::string ref_path = StorePath("engine_ref");
  const std::string kill_path = StorePath("engine_kill");
  const auto turn_input = [&](std::size_t t) {
    return MakeTokens(7 + t, 500 + t, model.config().vocab_size);
  };
  constexpr std::size_t kSessions = 3;

  std::unordered_map<SessionId, std::vector<TokenId>> turn3_replies;
  {
    auto ref = CachedAttentionEngine::Create(&model, DurableShareEngineOptions(ref_path));
    ASSERT_TRUE(ref.ok()) << ref.status();
    auto killed = CachedAttentionEngine::Create(&model, DurableShareEngineOptions(kill_path));
    ASSERT_TRUE(killed.ok()) << killed.status();
    for (std::size_t t = 0; t < 2; ++t) {
      for (SessionId s = 1; s <= kSessions; ++s) {
        auto a = (*ref)->Converse(s, turn_input(t), 5);
        auto b = (*killed)->Converse(s, turn_input(t), 5);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_EQ(a->reply, b->reply);
      }
    }
    for (SessionId s = 1; s <= kSessions; ++s) {
      auto a = (*ref)->Converse(s, turn_input(2), 5);
      ASSERT_TRUE(a.ok());
      turn3_replies[s] = a->reply;
    }
    // `killed` is dropped here without EndSession: a simulated SIGKILL as
    // far as the journal is concerned (the page cache survives).
  }

  auto restarted = CachedAttentionEngine::Create(&model, DurableShareEngineOptions(kill_path));
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  CachedAttentionEngine& engine = **restarted;
  engine.store().CheckInvariants();
  for (SessionId s = 1; s <= kSessions; ++s) {
    ASSERT_FALSE(engine.SessionHistory(s).empty()) << "session " << s << " not restored";
    auto r = engine.Converse(s, turn_input(2), 5);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->reply, turn3_replies.at(s)) << "session " << s;
  }
  engine.store().CheckInvariants();
}

// Durable stores journal the same history blob (history + purity bit)
// whether or not they share prefixes, so sessions saved by a non-sharing
// engine restore under a sharing one with their purity intact: replies stay
// identical, and the next save already dedups through a block table.
TEST(ShareEngine, RestoresHistoriesFromNonSharingEngine) {
  Transformer model(ModelConfig::Mini(), 51);
  const std::string path = StorePath("non_sharing_restore");
  const auto input = MakeTokens(20, 9, model.config().vocab_size);
  std::vector<TokenId> reply2;
  {
    EngineOptions plain = DurableShareEngineOptions(path);
    plain.store.share_prefixes = false;
    auto engine = CachedAttentionEngine::Create(&model, plain);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE((*engine)->Converse(1, input, 5).ok());
  }
  {
    // Reference for the second turn, no restarts involved.
    EngineOptions plain = DurableShareEngineOptions(StorePath("non_sharing_restore_ref"));
    plain.store.share_prefixes = false;
    auto engine = CachedAttentionEngine::Create(&model, plain);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Converse(1, input, 5).ok());
    auto r = (*engine)->Converse(1, MakeTokens(6, 10, model.config().vocab_size), 5);
    ASSERT_TRUE(r.ok());
    reply2 = r->reply;
  }
  auto upgraded = CachedAttentionEngine::Create(&model, DurableShareEngineOptions(path));
  ASSERT_TRUE(upgraded.ok()) << upgraded.status();
  ASSERT_FALSE((*upgraded)->SessionHistory(1).empty());
  auto r = (*upgraded)->Converse(1, MakeTokens(6, 10, model.config().vocab_size), 5);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->reply, reply2);
  EXPECT_TRUE(r->cache_hit);
  const auto info = (*upgraded)->store().GetInfo(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->payload_bytes, info->bytes) << "restored purity did not reach the save";
  (*upgraded)->store().CheckInvariants();
}

}  // namespace
}  // namespace ca
