#include "servebench/traffic.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace servebench {

namespace {

// ShareGPT marginals clamped to what a Mini turn can hold: long questions
// are pasted documents the 256-token window cannot take in one turn.
constexpr std::uint32_t kMinQuestion = 4;
constexpr std::uint32_t kMaxQuestion = 48;
constexpr std::uint32_t kMinAnswer = 2;
constexpr std::uint32_t kMaxAnswer = 24;
// The shape deck: drawn once, from a fixed seed, for every run seed.
constexpr std::size_t kDeckSize = 256;
constexpr std::uint64_t kDeckSeed = 42;

// Independent streams from one workload seed.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "sharegpt_chat", .loop = LoopKind::kOpen, .sessions_per_s = 10.0},
      {.name = "shared_prompt",
       .loop = LoopKind::kOpen,
       .sessions_per_s = 30.0,
       .shared_prompt = true},
      {.name = "offline_backlog", .loop = LoopKind::kClosed, .in_flight = 32},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

TrafficPlan::TrafficPlan(const WorkloadSpec& spec, std::uint64_t seed, std::size_t vocab,
                         double horizon_s)
    : spec_(spec), seed_(seed), vocab_(vocab) {
  ca::ShareGptGenerator shapes(ca::ShareGptConfig{}, kDeckSeed);
  deck_ = shapes.Generate(kDeckSize);
  if (spec_.shared_prompt) {
    prompt_ = ca::SharedPrefixPrompt(kSharedPromptTokens, vocab_, StreamSeed(seed, 1));
  }
  if (spec_.loop == LoopKind::kOpen) {
    // Poisson arrivals conditioned on exactly rate * horizon sessions: the
    // cumulative sums of n + 1 exponential gaps, scaled onto the horizon.
    const auto n = static_cast<std::size_t>(spec_.sessions_per_s * horizon_s);
    ca::Rng rng(StreamSeed(seed, 2));
    std::vector<double> sums(n + 1);
    double total = 0.0;
    for (double& sum : sums) {
      total += rng.NextExponential(1.0);
      sum = total;
    }
    arrivals_s_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      arrivals_s_[i] = sums[i] / total * horizon_s;
    }
  }
}

const PlannedSession& TrafficPlan::Session(std::size_t index) {
  while (sessions_.size() <= index) {
    sessions_.push_back(std::make_unique<PlannedSession>(Build(sessions_.size())));
  }
  return *sessions_[index];
}

PlannedSession TrafficPlan::Build(std::size_t index) {
  const std::size_t pass = index / kDeckSize;
  while (deck_orders_.size() <= pass) {
    std::vector<std::size_t> order(kDeckSize);
    std::iota(order.begin(), order.end(), 0);
    ca::Rng rng(StreamSeed(seed_, 3) ^ (0xC2B2AE3D27D4EB4FULL * (deck_orders_.size() + 1)));
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    deck_orders_.push_back(std::move(order));
  }
  const ca::SessionTrace& shape = deck_[deck_orders_[pass][index % kDeckSize]];

  PlannedSession session;
  session.id = static_cast<ca::SessionId>(index);
  session.arrival_s = index < arrivals_s_.size() ? arrivals_s_[index] : 0.0;
  const std::size_t turns = spec_.shared_prompt ? std::min<std::size_t>(shape.turns.size(), 2)
                                                : shape.turns.size();
  CA_CHECK_GT(turns, 0U);
  for (std::size_t t = 0; t < turns; ++t) {
    ca::Rng rng(StreamSeed(seed_, 4) ^ (0xC2B2AE3D27D4EB4FULL * (session.id + 1)) ^
                (0x165667B19E3779F9ULL * (t + 1)));
    PlannedTurn turn;
    turn.input.resize(std::clamp(shape.turns[t].q_tokens, kMinQuestion, kMaxQuestion));
    for (ca::TokenId& token : turn.input) {
      token = static_cast<ca::TokenId>(rng.NextBounded(vocab_));
    }
    if (t == 0 && !prompt_.empty()) {
      turn.input.insert(turn.input.begin(), prompt_.begin(), prompt_.end());
    }
    turn.max_reply_tokens = std::clamp(shape.turns[t].a_tokens, kMinAnswer, kMaxAnswer);
    if (t > 0 && spec_.loop == LoopKind::kOpen) {
      turn.think_s = rng.NextExponential(1.0 / kThinkTimeMeanS);
    }
    session.turns.push_back(std::move(turn));
  }
  return session;
}

}  // namespace servebench
