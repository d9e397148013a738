// Helpers shared by the AttentionStore test suites.
#ifndef CA_TESTS_STORE_TEST_UTIL_H_
#define CA_TESTS_STORE_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
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

// Removes a durable store's block file and its journal (.meta, .meta.tmp).
inline void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
  std::remove((path + ".meta.tmp").c_str());
}

// Block-file path for a durable store under testing::TempDir():
// ca_<suite>_<name>.<pid>.blocks, so suites running at the same time never
// share files. Removes stale files of that name now, and the block file
// and its journal again when the process exits, so a test run leaves
// nothing behind.
inline std::string TempStorePath(const std::string& suite, const std::string& name) {
  struct RemoveAtExit {
    std::vector<std::string> paths;
    ~RemoveAtExit() {
      for (const std::string& path : paths) {
        RemoveStoreFiles(path);
      }
    }
  };
  static RemoveAtExit created;
  std::string path = testing::TempDir() + "/ca_" + suite + "_" + name + "." +
                     std::to_string(::getpid()) + ".blocks";
  RemoveStoreFiles(path);
  created.paths.push_back(path);
  return path;
}

}  // namespace ca

#endif  // CA_TESTS_STORE_TEST_UTIL_H_
