// Inference job: one conversation turn submitted to the serving system.
#ifndef CA_SCHED_JOB_H_
#define CA_SCHED_JOB_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/store/types.h"

namespace ca {

using JobId = std::uint64_t;

struct Job {
  JobId id = 0;
  SessionId session = kInvalidSession;
  SimTime arrival = 0;
  // 1-based turn number within the conversation session.
  std::uint32_t turn_index = 0;
  // Tokens the user typed this turn (q_j).
  std::uint32_t new_tokens = 0;
  // Historical tokens of the session before this turn (sum of q_1 a_1 ...).
  // This is the text the *recompute* baseline must re-prefill, and the KV
  // length CachedAttention hopes to find in AttentionStore.
  std::uint32_t history_tokens = 0;
  // Response length to decode this turn (a_j).
  std::uint32_t decode_tokens = 0;
};

}  // namespace ca

#endif  // CA_SCHED_JOB_H_
