// I/O-path tests for the block storage backends (DESIGN.md §14): every
// backend — the memory arena, the buffered disk file and the O_DIRECT disk
// file — must stream a record through its one Write and one Read
// byte-for-byte, from a generated source and from a caller buffer, into one
// buffer and chunk by chunk, on fresh blocks and on recycled ones, and must
// report a malformed extent as a Status rather than abort. A persistent disk
// file must read back whichever of buffered and O_DIRECT I/O wrote it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
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

// PayloadSink that appends every chunk.
struct CollectSink final : PayloadSink {
  std::vector<std::uint8_t> data;
  void Reset() override { data.clear(); }
  void Consume(std::span<const std::uint8_t> chunk) override {
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
};

// PayloadSink that copies into a fixed caller buffer, recording each chunk's
// size; a chunk that would run past the buffer is dropped and flagged.
class BufferSink final : public PayloadSink {
 public:
  explicit BufferSink(std::span<std::uint8_t> out) : out_(out) {}

  void Reset() override {
    pos_ = 0;
    chunk_sizes_.clear();
    overflowed_ = false;
  }
  void Consume(std::span<const std::uint8_t> chunk) override {
    chunk_sizes_.push_back(chunk.size());
    if (chunk.size() > out_.size() - pos_) {
      overflowed_ = true;
      return;
    }
    std::memcpy(out_.data() + pos_, chunk.data(), chunk.size());
    pos_ += chunk.size();
  }
  const std::vector<std::size_t>& chunk_sizes() const { return chunk_sizes_; }
  bool overflowed() const { return overflowed_; }

 private:
  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> chunk_sizes_;
  bool overflowed_ = false;
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
    io.direct_io = p.direct;
    // One file per process: ctest runs the cases of one backend in parallel.
    auto opened = FileBlockStorage::Open(testing::TempDir() + "/ca_store_io_" + p.name + "." +
                                             std::to_string(::getpid()) + ".blocks",
                                         capacity, block, io);
    CA_CHECK(opened.ok()) << opened.status();
    return std::move(*opened);
  }
};

// ZeroCopyWriteMatchesLegacyRead and LegacyWriteMatchesZeroCopyRead are
// named for the span Write and vector Read that were once a second, copying
// path. They now pair the one Write and one Read with the two payload shapes
// callers hand them: a generated source read back into one buffer, and a
// caller buffer streamed back chunk by chunk.
TEST_P(IoBackendTest, ZeroCopyWriteMatchesLegacyRead) {
  auto storage = MakeStorage(KiB(256), KiB(4));
  const std::uint64_t n = KiB(4) * 5 + 321;  // 6 blocks, partial tail
  PatternSource source(n);
  auto extent = storage->Write(source);
  ASSERT_TRUE(extent.ok()) << extent.status();
  EXPECT_EQ(extent->byte_length, n);
  EXPECT_GE(source.fills(), 1U);
  auto read = ReadBytes(*storage, *extent);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, PatternSource::Expected(n));
  storage->Free(*extent);
  EXPECT_EQ(storage->UsedBlocks(), 0U);
}

TEST_P(IoBackendTest, LegacyWriteMatchesZeroCopyRead) {
  auto storage = MakeStorage(KiB(256), KiB(4));
  const auto data = Payload(KiB(4) * 3 + 17, 5);
  auto extent = WriteBytes(*storage, data);
  ASSERT_TRUE(extent.ok()) << extent.status();
  CollectSink sink;
  ASSERT_TRUE(storage->Read(*extent, sink).ok());
  EXPECT_EQ(sink.data, data);
}

TEST_P(IoBackendTest, ReadIntoCallerBuffer) {
  // A sink that owns its destination (the engine's cache sink writes
  // straight into KV memory) is handed the record one block per chunk, in
  // extent order, and never more bytes than the record holds.
  auto storage = MakeStorage(KiB(64), KiB(4));
  const auto data = Payload(KiB(4) + 99, 7);
  auto extent = WriteBytes(*storage, data);
  ASSERT_TRUE(extent.ok());
  std::vector<std::uint8_t> out(data.size());
  BufferSink sink(out);
  ASSERT_TRUE(storage->Read(*extent, sink).ok());
  EXPECT_FALSE(sink.overflowed());
  EXPECT_EQ(sink.chunk_sizes(), (std::vector<std::size_t>{KiB(4), 99}));
  EXPECT_EQ(out, data);
}

TEST_P(IoBackendTest, RecycledBlocksReadBackByteEqual) {
  // The allocator's free list is LIFO, so a record written after a free
  // takes the freed blocks in descending order — the order the served path
  // produces once the pool has churned.
  auto storage = MakeStorage(KiB(64), KiB(4));
  const auto first = Payload(KiB(4) * 3, 41);
  const auto second = Payload(KiB(4) * 2 + 9, 43);
  const auto third = Payload(KiB(4) * 2 + 555, 47);
  auto a = WriteBytes(*storage, first);
  auto b = WriteBytes(*storage, second);
  ASSERT_TRUE(a.ok() && b.ok());
  storage->Free(*a);
  auto c = WriteBytes(*storage, third);
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_EQ(c->blocks, (std::vector<BlockId>{2, 1, 0}));
  auto read_c = ReadBytes(*storage, *c);
  ASSERT_TRUE(read_c.ok()) << read_c.status();
  EXPECT_EQ(*read_c, third);
  auto read_b = ReadBytes(*storage, *b);
  ASSERT_TRUE(read_b.ok()) << read_b.status();
  EXPECT_EQ(*read_b, second);
}

TEST_P(IoBackendTest, MalformedExtentIsInternalNotAbort) {
  auto storage = MakeStorage(KiB(64), KiB(4));
  BlockExtent bogus;
  bogus.blocks = {0, 1};
  bogus.byte_length = KiB(4) * 3;  // 3 blocks of bytes, 2 block ids
  CollectSink sink;
  EXPECT_EQ(storage->Read(bogus, sink).code(), StatusCode::kInternal);
  EXPECT_TRUE(sink.data.empty());
}

TEST_P(IoBackendTest, SingleByteAndFullBlockEdges) {
  auto storage = MakeStorage(KiB(64), KiB(4));
  for (const std::uint64_t n : {std::uint64_t{1}, KiB(4), KiB(4) * 2}) {
    PatternSource source(n);
    auto extent = storage->Write(source);
    ASSERT_TRUE(extent.ok()) << "n=" << n << ": " << extent.status();
    auto read = ReadBytes(*storage, *extent);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, PatternSource::Expected(n)) << "n=" << n;
    storage->Free(*extent);
  }
}

// The memory arena, four buffered disk files and one O_DIRECT disk file.
// auto, uring, batched and sync are the case names of the disk submission
// modes this matrix was written for. One per-block path replaced them all
// (DESIGN.md §14); the four cases keep their names, so the tracked test list
// stays comparable, and each runs that path on its own file.
INSTANTIATE_TEST_SUITE_P(Backends, IoBackendTest,
                         ::testing::Values(BackendParam{"mem", false, false},
                                           BackendParam{"auto", true, false},
                                           BackendParam{"uring", true, false},
                                           BackendParam{"batched", true, false},
                                           BackendParam{"sync", true, false},
                                           BackendParam{"direct", true, true}),
                         [](const auto& param_info) { return std::string(param_info.param.name); });

// --- FileBlockStorage buffered and O_DIRECT modes ------------------------

TEST(FileIoModeTest, DirectIoUnalignedBlockFallsBackToBuffered) {
  DiskIoOptions io;
  io.direct_io = true;
  auto opened = FileBlockStorage::Open(testing::TempDir() + "/ca_io_mode_direct.blocks", 10000,
                                       1000, io);  // block size not 4 KiB aligned
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE((*opened)->direct_io());
  const auto data = Payload(2500, 13);
  auto extent = WriteBytes(**opened, data);
  ASSERT_TRUE(extent.ok());
  auto read = ReadBytes(**opened, *extent);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(FileIoModeTest, CrossModeReadback) {
  // A persistent file written through one I/O mode reads back through the
  // other after a reopen: the block layout does not depend on O_DIRECT, so
  // a restart may flip StoreConfig::disk_direct_io.
  const auto data = Payload(KiB(4) * 3 + 77, 17);
  for (const bool write_direct : {false, true}) {
    const std::string path = testing::TempDir() + "/ca_io_cross_mode_" +
                             (write_direct ? "direct" : "buffered") + ".blocks";
    DiskIoOptions io;
    io.persist = true;
    io.store_id = 17;
    io.direct_io = write_direct;
    BlockExtent extent;
    {
      auto writer = FileBlockStorage::Open(path, KiB(64), KiB(4), io);
      ASSERT_TRUE(writer.ok()) << writer.status();
      auto written = WriteBytes(**writer, data);
      ASSERT_TRUE(written.ok()) << written.status();
      extent = *written;
    }
    io.reuse_existing = true;
    io.direct_io = !write_direct;
    auto reader = FileBlockStorage::Open(path, KiB(64), KiB(4), io);
    ASSERT_TRUE(reader.ok()) << reader.status();
    ASSERT_TRUE((*reader)->AdoptExtent(extent).ok());
    auto read = ReadBytes(**reader, extent);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, data) << "written with direct_io=" << write_direct;
    reader->reset();
    std::remove(path.c_str());  // persistent files outlive their storage
  }
}

// --- AttentionStore streaming spine --------------------------------------

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
// on demand, with no backing buffer. It checks that Put pulls a source range
// by range and never needs the whole payload as one buffer, which the
// SpanChunkSource the engine saves through always has.
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
