// Non-cryptographic content hashing.
//
// Two hashes live here, both for the store's fault-tolerance layer
// (DESIGN.md §10, §14): AttentionStore stamps every saved payload and
// verifies it on read, so a torn write or short read is detected and
// degraded to a cache miss instead of being fed into attention. Neither is
// collision-proof against an adversary; they only need to catch accidental
// corruption.
//
//  * Fnv1a64 — the original byte-serial FNV-1a. Kept as the reference
//    implementation and for small keys, but its xor-multiply chain is a
//    strict serial dependency (~1 byte per multiply latency, <1 GB/s), which
//    is what collapsed BM_StorePayloadRoundTrip after PR3.
//  * ChunkedHash64 / Checksum64 — the store's payload checksum: eight
//    independent 64-bit FNV-1a lanes over interleaved 8-byte words, so the
//    multiplies of one 64-byte group pipeline instead of serializing. The
//    bulk loop is runtime-dispatched like the matmul kernels in
//    src/tensor/ops.cc, but by measurement rather than by ISA flag: AVX2
//    has no 64-bit vector multiply, so on cores with strong scalar imul
//    throughput the 8 pipelined scalar chains beat the decomposed vector
//    multiply — the first use runs a one-shot shootout over a scratch
//    buffer and keeps the faster kernel (same digest either way).
//
// ChunkedHash64 is chunk-boundary invariant: splitting the input into any
// sequence of Update() calls yields the digest of the concatenation. That is
// what lets the store hash per-block during the write loop (cache-hot bytes)
// and verify with one-shot Checksum64 on read.
#ifndef CA_COMMON_HASH_H_
#define CA_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ca {

inline std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Incremental, instruction-parallel 64-bit content hash (see file comment).
class ChunkedHash64 {
 public:
  // Bytes per lane group: 8 lanes x 8-byte words.
  static constexpr std::size_t kGroupBytes = 64;
  static constexpr std::size_t kLanes = 8;

  ChunkedHash64() { Reset(); }

  void Reset();

  // Feeds the next `chunk` of the message. Group boundaries are global byte
  // positions, so any split into Update calls digests identically.
  void Update(std::span<const std::uint8_t> chunk);

  // Digest of everything fed so far. Does not mutate state: more Update
  // calls may follow and Finalize may be called again.
  std::uint64_t Finalize() const;

  std::uint64_t total_bytes() const { return total_len_; }

 private:
  std::array<std::uint64_t, kLanes> lanes_;
  std::array<std::uint8_t, kGroupBytes> pending_;
  std::size_t pending_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// One-shot convenience over ChunkedHash64 (the read-side verifier).
std::uint64_t Checksum64(std::span<const std::uint8_t> bytes);

// True when this CPU can run the AVX2 bulk kernel at all, regardless of
// which kernel the shootout picked. Gates the forced-AVX2 test/bench rows.
bool ChunkedHashAvx2Available();

namespace internal {
// Test seam: digest `bytes` forcing the scalar (use_avx2=false) or AVX2
// bulk kernel. The two must be bitwise identical wherever AVX2 exists;
// requesting AVX2 on a CPU without it falls back to scalar.
std::uint64_t ChecksumWithKernel(std::span<const std::uint8_t> bytes, bool use_avx2);
}  // namespace internal

}  // namespace ca

#endif  // CA_COMMON_HASH_H_
