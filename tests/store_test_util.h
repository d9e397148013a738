// Helpers shared by the AttentionStore test suites.
#ifndef CA_TESTS_STORE_TEST_UTIL_H_
#define CA_TESTS_STORE_TEST_UTIL_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/store/attention_store.h"
#include "src/store/block_storage.h"

namespace ca {

// Stores `payload` through the store's one payload Put as a single opaque
// token: suites that test placement, I/O and recovery do not care where
// token boundaries fall. No dedup tokens, so the whole payload is the
// session's own piece.
inline Status PutBytes(AttentionStore& store, SessionId session,
                       std::span<const std::uint8_t> payload, SimTime now,
                       const SchedulerHints& hints, std::span<const std::uint8_t> user_meta = {}) {
  SpanChunkSource source(payload, payload.size());
  return store.Put(session, source, /*dedup_tokens=*/{}, now, hints, user_meta);
}

// Writes `bytes` through a tier storage's one Write (suites that test
// allocation, faults and concurrency start from plain byte buffers).
inline Result<BlockExtent> WriteBytes(BlockStorage& storage, std::span<const std::uint8_t> bytes) {
  SpanSource source(bytes);
  return storage.Write(source);
}

// Reads an extent back through a tier storage's one Read, collected into a
// vector.
inline Result<std::vector<std::uint8_t>> ReadBytes(BlockStorage& storage,
                                                   const BlockExtent& extent) {
  struct Collect final : PayloadSink {
    std::vector<std::uint8_t> data;
    void Reset() override { data.clear(); }
    void Consume(std::span<const std::uint8_t> chunk) override {
      data.insert(data.end(), chunk.begin(), chunk.end());
    }
  } sink;
  sink.data.reserve(extent.byte_length);
  CA_RETURN_IF_ERROR(storage.Read(extent, sink));
  return std::move(sink.data);
}

}  // namespace ca

#endif  // CA_TESTS_STORE_TEST_UTIL_H_
