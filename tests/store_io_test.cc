// I/O-path tests for the block storage backends (DESIGN.md §14): the
// zero-copy write/read protocol must be byte-for-byte equivalent to the
// legacy copy path on every backend, and FileBlockStorage must round-trip
// identically under each DiskIoMode (io_uring, batched pwritev/preadv,
// per-block sync) with and without O_DIRECT staging.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/store/attention_store.h"
#include "src/store/block_storage.h"
#include "tests/store_test_util.h"

namespace ca {
namespace {

std::vector<std::uint8_t> Payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  return out;
}

// PayloadSink that appends every chunk (the read-side collector used to
// compare streamed bytes against the legacy Read vector).
struct CollectSink final : PayloadSink {
  std::vector<std::uint8_t> data;
  std::size_t chunks = 0;
  void Reset() override {
    data.clear();
    chunks = 0;
  }
  void Consume(std::span<const std::uint8_t> chunk) override {
    data.insert(data.end(), chunk.begin(), chunk.end());
    ++chunks;
  }
};

// PayloadSource that produces a deterministic pattern without a backing
// buffer, counting Fill calls (proves the storage pulls rather than stages).
class PatternSource final : public PayloadSource {
 public:
  explicit PatternSource(std::uint64_t n) : n_(n) {}

  std::uint64_t size() const override { return n_; }
  void Reset() override { pos_ = 0; }
  void Fill(std::span<std::uint8_t> dest) override {
    ++fills_;
    for (auto& b : dest) {
      b = static_cast<std::uint8_t>((pos_++ * 131U) & 0xFFU);
    }
  }
  std::size_t fills() const { return fills_; }

  static std::vector<std::uint8_t> Expected(std::uint64_t n) {
    std::vector<std::uint8_t> out(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>((i * 131U) & 0xFFU);
    }
    return out;
  }

 private:
  std::uint64_t n_;
  std::uint64_t pos_ = 0;
  std::size_t fills_ = 0;
};

struct BackendParam {
  const char* name;
  bool file;
  DiskIoMode mode;
  bool direct;
};

// Prints the backend's name. gtest's default dump of an unprintable struct
// is its raw bytes, which here include the address of `name` and padding,
// so the test names that gtest_discover_tests records would differ between
// builds.
void PrintTo(const BackendParam& p, std::ostream* os) { *os << p.name; }

class IoBackendTest : public ::testing::TestWithParam<BackendParam> {
 protected:
  std::unique_ptr<BlockStorage> MakeStorage(std::uint64_t capacity, std::uint64_t block) {
    const BackendParam& p = GetParam();
    if (!p.file) {
      return std::make_unique<MemoryBlockStorage>(capacity, block);
    }
    DiskIoOptions io;
    io.mode = p.mode;
    io.direct_io = p.direct;
    auto opened = FileBlockStorage::Open(
        testing::TempDir() + "/ca_store_io_" + p.name + ".blocks", capacity, block, io);
    CA_CHECK(opened.ok()) << opened.status();
    return std::move(*opened);
  }
};

TEST_P(IoBackendTest, ZeroCopyWriteMatchesLegacyRead) {
  auto storage = MakeStorage(KiB(256), KiB(4));
  const std::uint64_t n = KiB(4) * 5 + 321;  // 6 blocks, partial tail
  PatternSource source(n);
  auto extent = storage->WriteZeroCopy(source);
  ASSERT_TRUE(extent.ok()) << extent.status();
  EXPECT_EQ(extent->byte_length, n);
  EXPECT_GE(source.fills(), 1U);
  auto read = storage->Read(*extent);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, PatternSource::Expected(n));
  storage->Free(*extent);
  EXPECT_EQ(storage->UsedBlocks(), 0U);
}

TEST_P(IoBackendTest, LegacyWriteMatchesZeroCopyRead) {
  auto storage = MakeStorage(KiB(256), KiB(4));
  const auto data = Payload(KiB(4) * 3 + 17, 5);
  auto extent = storage->Write(data);
  ASSERT_TRUE(extent.ok()) << extent.status();
  CollectSink sink;
  ASSERT_TRUE(storage->ReadZeroCopy(*extent, sink).ok());
  EXPECT_EQ(sink.data, data);
}

TEST_P(IoBackendTest, ReadIntoCallerBuffer) {
  auto storage = MakeStorage(KiB(64), KiB(4));
  const auto data = Payload(KiB(4) + 99, 7);
  auto extent = storage->Write(data);
  ASSERT_TRUE(extent.ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(storage->ReadInto(*extent, out).ok());
  EXPECT_EQ(out, data);
  // A buffer of the wrong size is a caller bug surfaced as a Status.
  std::vector<std::uint8_t> wrong(data.size() - 1);
  const Status bad = storage->ReadInto(*extent, wrong);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST_P(IoBackendTest, MalformedExtentIsInternalNotAbort) {
  auto storage = MakeStorage(KiB(64), KiB(4));
  BlockExtent bogus;
  bogus.blocks = {0, 1};
  bogus.byte_length = KiB(4) * 3;  // 3 blocks of bytes, 2 block ids
  std::vector<std::uint8_t> out(bogus.byte_length);
  EXPECT_EQ(storage->ReadInto(bogus, out).code(), StatusCode::kInternal);
  CollectSink sink;
  EXPECT_EQ(storage->ReadZeroCopy(bogus, sink).code(), StatusCode::kInternal);
}

TEST_P(IoBackendTest, SingleByteAndFullBlockEdges) {
  auto storage = MakeStorage(KiB(64), KiB(4));
  for (const std::uint64_t n : {std::uint64_t{1}, KiB(4), KiB(4) * 2}) {
    PatternSource source(n);
    auto extent = storage->WriteZeroCopy(source);
    ASSERT_TRUE(extent.ok()) << "n=" << n << ": " << extent.status();
    auto read = storage->Read(*extent);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, PatternSource::Expected(n)) << "n=" << n;
    storage->Free(*extent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, IoBackendTest,
    ::testing::Values(BackendParam{"mem", false, DiskIoMode::kAuto, false},
                      BackendParam{"auto", true, DiskIoMode::kAuto, false},
                      BackendParam{"uring", true, DiskIoMode::kUring, false},
                      BackendParam{"batched", true, DiskIoMode::kBatched, false},
                      BackendParam{"sync", true, DiskIoMode::kSync, false},
                      BackendParam{"direct", true, DiskIoMode::kAuto, true}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// --- FileBlockStorage mode resolution ------------------------------------

TEST(FileIoModeTest, AutoResolvesToUringOrBatched) {
  auto opened = FileBlockStorage::Open(testing::TempDir() + "/ca_io_mode_auto.blocks", KiB(64),
                                       KiB(4), DiskIoOptions{});
  ASSERT_TRUE(opened.ok());
  const DiskIoMode mode = (*opened)->io_mode();
  EXPECT_TRUE(mode == DiskIoMode::kUring || mode == DiskIoMode::kBatched)
      << static_cast<int>(mode);
}

TEST(FileIoModeTest, UringRequestFallsBackCleanly) {
  DiskIoOptions io;
  io.mode = DiskIoMode::kUring;
  auto opened =
      FileBlockStorage::Open(testing::TempDir() + "/ca_io_mode_uring.blocks", KiB(64), KiB(4), io);
  ASSERT_TRUE(opened.ok());
  // Sandboxed kernels refuse io_uring_setup; either outcome must round-trip.
  const DiskIoMode mode = (*opened)->io_mode();
  EXPECT_TRUE(mode == DiskIoMode::kUring || mode == DiskIoMode::kBatched);
  const auto data = Payload(KiB(4) * 2 + 5, 11);
  auto extent = (*opened)->Write(data);
  ASSERT_TRUE(extent.ok());
  auto read = (*opened)->Read(*extent);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(FileIoModeTest, DirectIoUnalignedBlockFallsBackToBuffered) {
  DiskIoOptions io;
  io.direct_io = true;
  auto opened = FileBlockStorage::Open(testing::TempDir() + "/ca_io_mode_direct.blocks", 10000,
                                       1000, io);  // block size not 4 KiB aligned
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE((*opened)->direct_io());
  const auto data = Payload(2500, 13);
  auto extent = (*opened)->Write(data);
  ASSERT_TRUE(extent.ok());
  auto read = (*opened)->Read(*extent);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(FileIoModeTest, CrossModeReadback) {
  // Bytes written under one submission strategy must read back under
  // another: the wire layout (block placement) is mode-invariant.
  const std::string path = testing::TempDir() + "/ca_io_cross_mode.blocks";
  const auto data = Payload(KiB(4) * 3 + 77, 17);
  BlockExtent extent;
  {
    DiskIoOptions io;
    io.mode = DiskIoMode::kBatched;
    auto writer = FileBlockStorage::Open(path + ".w", KiB(64), KiB(4), io);
    ASSERT_TRUE(writer.ok());
    auto written = (*writer)->Write(data);
    ASSERT_TRUE(written.ok());
    auto read = (*writer)->Read(*written);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, data);
  }
  {
    DiskIoOptions io;
    io.mode = DiskIoMode::kSync;
    auto writer = FileBlockStorage::Open(path + ".s", KiB(64), KiB(4), io);
    ASSERT_TRUE(writer.ok());
    auto written = (*writer)->Write(data);
    ASSERT_TRUE(written.ok());
    CollectSink sink;
    ASSERT_TRUE((*writer)->ReadZeroCopy(*written, sink).ok());
    EXPECT_EQ(sink.data, data);
  }
}

// --- AttentionStore zero-copy spine --------------------------------------

StoreConfig PayloadConfig() {
  StoreConfig config;
  config.dram_capacity = MiB(64);
  config.disk_capacity = MiB(64);
  config.block_bytes = KiB(64);
  config.real_payloads = true;
  config.audit = true;
  return config;
}

// ChunkedPayloadSource that generates PatternSource's bytes per token range
// on demand, with no backing buffer — the shape of the engine's
// cache-backed source, next to the SpanChunkSource its async saves use.
class PatternChunkSource final : public ChunkedPayloadSource, private PayloadSource {
 public:
  PatternChunkSource(std::uint64_t tokens, std::uint64_t bytes_per_token)
      : tokens_(tokens), bytes_per_token_(bytes_per_token) {}

  std::uint64_t total_tokens() const override { return tokens_; }
  std::uint64_t bytes_per_token() const override { return bytes_per_token_; }
  PayloadSource& Range(std::uint64_t token_begin, std::uint64_t token_end) override {
    begin_ = token_begin * bytes_per_token_;
    end_ = token_end * bytes_per_token_;
    pos_ = begin_;
    return *this;
  }

 private:
  std::uint64_t size() const override { return end_ - begin_; }
  void Reset() override { pos_ = begin_; }
  void Fill(std::span<std::uint8_t> dest) override {
    for (auto& b : dest) {
      b = static_cast<std::uint8_t>((pos_++ * 131U) & 0xFFU);
    }
  }

  std::uint64_t tokens_;
  std::uint64_t bytes_per_token_;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = 0;
  std::uint64_t pos_ = 0;
};

TEST(StoreZeroCopyTest, SourcePutMatchesSpanPut) {
  // 7 tokens, deduplicated in 2-token chunks: Put pulls both sources range
  // by range, and both must land the same bytes.
  constexpr std::uint64_t kTokens = 7;
  constexpr std::uint64_t kBpt = KiB(16) + 9;
  const auto data = PatternSource::Expected(kTokens * kBpt);
  const std::vector<std::uint32_t> tokens = {3, 1, 4, 1, 5, 9, 2};
  StoreConfig config = PayloadConfig();
  config.share_prefixes = true;
  config.share_chunk_tokens = 2;
  AttentionStore span_store(config);
  AttentionStore source_store(config);
  const SchedulerHints hints;
  SpanChunkSource span(data, kBpt);
  ASSERT_TRUE(span_store.Put(1, span, tokens, 1, hints).ok());
  PatternChunkSource source(kTokens, kBpt);
  ASSERT_TRUE(source_store.Put(1, source, tokens, 1, hints).ok());
  EXPECT_EQ(source_store.ChunkCount(), 3U);

  auto via_span = span_store.ReadPayload(1);
  ASSERT_TRUE(via_span.ok());
  CollectSink sink;
  ASSERT_TRUE(source_store.ReadPayloadInto(1, sink).ok());
  EXPECT_EQ(*via_span, data);
  EXPECT_EQ(sink.data, data);
}

TEST(StoreZeroCopyTest, ChecksumVerifiesAcrossPaths) {
  // The checksum folded in while Put streams the bytes must verify on both
  // read paths: the collected ReadPayload and the streaming ReadPayloadInto.
  const auto data = Payload(KiB(64) + 1234, 29);
  AttentionStore store(PayloadConfig());
  const SchedulerHints hints;
  ASSERT_TRUE(PutBytes(store, 7, data, 1, hints).ok());
  auto read = store.ReadPayload(7);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  CollectSink sink;
  ASSERT_TRUE(store.ReadPayloadInto(7, sink).ok());
  EXPECT_EQ(sink.data, data);
  EXPECT_EQ(store.stats().corrupt_payloads, 0U);
}

TEST(StoreZeroCopyTest, TierIoCountersAccumulate) {
  const auto data = Payload(KiB(64) * 2, 31);
  AttentionStore store(PayloadConfig());
  const SchedulerHints hints;
  ASSERT_TRUE(PutBytes(store, 1, data, 1, hints).ok());
  auto read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  const auto& io = store.stats().tier_io[static_cast<std::size_t>(Tier::kDram)];
  EXPECT_EQ(io.write_bytes, data.size());
  EXPECT_EQ(io.read_bytes, data.size());
  EXPECT_GT(io.write_ns, 0U);
  EXPECT_GT(io.read_ns, 0U);
  EXPECT_GT(io.write_bytes_per_sec(), 0.0);
}

TEST(StoreZeroCopyTest, ReadPayloadIntoMissingSessionIsNotFound) {
  AttentionStore store(PayloadConfig());
  CollectSink sink;
  EXPECT_EQ(store.ReadPayloadInto(99, sink).code(), StatusCode::kNotFound);
  EXPECT_TRUE(sink.data.empty());
}

TEST(StoreZeroCopyTest, ChecksumsOffStillRoundTrips) {
  StoreConfig config = PayloadConfig();
  config.verify_checksums = false;
  const auto data = Payload(KiB(64) + 5, 37);
  AttentionStore store(config);
  const SchedulerHints hints;
  ASSERT_TRUE(PutBytes(store, 1, data, 1, hints).ok());
  auto read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

}  // namespace
}  // namespace ca
