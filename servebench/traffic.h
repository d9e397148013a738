// Generated multi-turn traffic for the serving benchmark.
//
// Session shapes (turn count, question and answer lengths) come from a deck
// of ShareGptGenerator sessions drawn once from a fixed seed, so every run
// seed serves the same mix of conversations: with a few hundred sessions per
// run, drawing shapes per seed would make the load itself (turns/s, share of
// long sessions) differ by 10-20% between seeds. The run seed shuffles the
// deck (a fresh order for every pass through it), places open-loop arrivals
// (a Poisson process conditioned on its session count), and draws every
// think time and every token from an Rng keyed by (seed, session, turn). The
// traffic therefore depends only on the seed, never on timing: a turn's
// input is the same however fast the server answered the turns before it.
#ifndef SERVEBENCH_TRAFFIC_H_
#define SERVEBENCH_TRAFFIC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/model/transformer.h"
#include "src/workload/sharegpt.h"

namespace servebench {

enum class LoopKind {
  // Sessions arrive on a Poisson schedule; each later turn is due one think
  // time after the previous reply, whether or not the server keeps up.
  kOpen,
  // A fixed number of conversations is always in flight; each next turn is
  // due as soon as the previous reply arrives, and a finished conversation
  // is replaced by the next session.
  kClosed,
};

struct WorkloadSpec {
  std::string name;
  LoopKind loop = LoopKind::kOpen;
  double sessions_per_s = 0.0;  // open loop: Poisson session arrival rate
  std::size_t in_flight = 0;    // closed loop: conversations kept in flight
  // Every session opens on one common prompt followed by 1-2 short turns,
  // and the store dedups the prompt's KV across sessions (share_prefixes).
  bool shared_prompt = false;
};

// The benchmark's workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// Mean user think time between turns on the open-loop workloads. A Mini turn
// takes ~20 ms instead of seconds, so ShareGPT's think time is scaled down
// to keep sessions idle for about ten service times between turns.
inline constexpr double kThinkTimeMeanS = 0.3;
// Common prompt of the shared_prompt workload: with two short turns the
// session still fits the 256-token window, so no truncation taints its KV.
inline constexpr std::size_t kSharedPromptTokens = 96;

struct PlannedTurn {
  std::vector<ca::TokenId> input;
  std::size_t max_reply_tokens = 0;
  // Open loop: seconds between the previous reply and this turn's due time.
  double think_s = 0.0;
};

struct PlannedSession {
  ca::SessionId id = ca::kInvalidSession;
  double arrival_s = 0.0;  // open loop: offset of turn 1 from the run start
  std::vector<PlannedTurn> turns;
};

// Sessions of one workload, generated lazily in index order (the closed loop
// draws as many as it gets through). References stay valid for the plan's
// lifetime.
class TrafficPlan {
 public:
  // Open-loop sessions arrive over [0, horizon_s); the closed loop ignores
  // the horizon.
  TrafficPlan(const WorkloadSpec& spec, std::uint64_t seed, std::size_t vocab,
              double horizon_s);

  const PlannedSession& Session(std::size_t index);
  // Open loop: sessions 0..open_sessions()-1 arrive inside the horizon.
  std::size_t open_sessions() const { return arrivals_s_.size(); }

 private:
  PlannedSession Build(std::size_t index);

  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::size_t vocab_;
  std::vector<ca::SessionTrace> deck_;
  std::vector<std::vector<std::size_t>> deck_orders_;  // one shuffle per pass
  std::vector<double> arrivals_s_;
  std::vector<ca::TokenId> prompt_;
  std::vector<std::unique_ptr<PlannedSession>> sessions_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRAFFIC_H_
