// Helpers shared by the AttentionStore test suites.
#ifndef CA_TESTS_STORE_TEST_UTIL_H_
#define CA_TESTS_STORE_TEST_UTIL_H_

#include <cstdint>
#include <span>

#include "src/store/attention_store.h"

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

}  // namespace ca

#endif  // CA_TESTS_STORE_TEST_UTIL_H_
