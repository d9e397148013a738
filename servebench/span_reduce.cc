#include "servebench/span_reduce.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace servebench {

namespace {

enum Layer : std::size_t { kServe, kCore, kStore, kModel, kOther, kNumLayers };

Layer LayerOf(std::string_view name) {
  const std::string_view prefix = name.substr(0, name.find('.'));
  if (prefix == "serve") {
    return kServe;
  }
  if (prefix == "engine") {
    return kCore;
  }
  if (prefix == "store" || prefix == "io" || prefix == "prefetch" || prefix == "meta") {
    return kStore;
  }
  if (prefix == "model" || prefix == "parallel_for") {
    return kModel;
  }
  return kOther;
}

// Integer arg `key` of a pre-rendered args string ("k":v,...).
std::optional<std::uint64_t> ArgU64(const std::string& args, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = args.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  const char* begin = args.data() + pos + needle.size();
  const auto [ptr, ec] = std::from_chars(begin, args.data() + args.size(), value);
  if (ec != std::errc() || ptr == begin) {
    return std::nullopt;
  }
  return value;
}

// String arg `key` ("k":"v"); empty when absent.
std::string_view ArgStr(const std::string& args, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t pos = args.find(needle);
  if (pos == std::string::npos) {
    return {};
  }
  const std::size_t begin = pos + needle.size();
  const std::size_t end = args.find('"', begin);
  return end == std::string::npos ? std::string_view{}
                                  : std::string_view(args).substr(begin, end - begin);
}

std::uint64_t TurnKey(std::uint64_t session, std::uint64_t turn) { return (session << 16) | turn; }

bool Named(const ca::TraceEvent& e, std::string_view name) {
  return e.name != nullptr && name == e.name;
}

// One complete ('X') span and where it sits in its thread's nesting.
struct Span {
  const ca::TraceEvent* event = nullptr;
  std::uint64_t end_ns = 0;
  std::ptrdiff_t parent = -1;
  std::uint64_t child_ns = 0;        // time covered by directly nested spans
  std::ptrdiff_t turn_root = -1;     // nearest enclosing-or-self serve.turn
};

std::vector<Span> NestSpans(const std::vector<ca::TraceEvent>& events) {
  std::vector<Span> spans;
  for (const ca::TraceEvent& e : events) {
    // bench.turn runs from due time to observed reply and overlaps the
    // generator's other spans, so it takes no part in the nesting.
    if (e.ph == 'X' && !Named(e, "bench.turn")) {
      spans.push_back(Span{.event = &e, .end_ns = e.ts_ns + e.dur_ns});
    }
  }
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ca::TraceEvent& x = *spans[a].event;
    const ca::TraceEvent& y = *spans[b].event;
    if (x.tid != y.tid) {
      return x.tid < y.tid;
    }
    if (x.ts_ns != y.ts_ns) {
      return x.ts_ns < y.ts_ns;
    }
    return x.dur_ns > y.dur_ns;  // an enclosing span first
  });
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    Span& span = spans[i];
    if (stack.empty() || span.event->tid != tid) {
      stack.clear();
      tid = span.event->tid;
    }
    while (!stack.empty() && spans[stack.back()].end_ns <= span.event->ts_ns) {
      stack.pop_back();
    }
    if (!stack.empty() && span.end_ns <= spans[stack.back()].end_ns) {
      Span& parent = spans[stack.back()];
      span.parent = static_cast<std::ptrdiff_t>(stack.back());
      parent.child_ns += span.event->dur_ns;
      span.turn_root = parent.turn_root;
    }
    if (Named(*span.event, "serve.turn")) {
      span.turn_root = static_cast<std::ptrdiff_t>(i);
    }
    stack.push_back(i);
  }
  return spans;
}

}  // namespace

SpanSummary ReduceSpans(const std::vector<ca::TraceEvent>& events, const DriveRecord& run) {
  SpanSummary out;
  const std::vector<Span> spans = NestSpans(events);
  const auto in_window = [&](const ca::TraceEvent& e) {
    return e.ts_ns >= run.window_begin_ns && e.ts_ns < run.window_end_ns;
  };
  const double window_ns = static_cast<double>(run.window_end_ns - run.window_begin_ns);

  // Per serve.turn: self time of everything nested in it, by layer.
  std::unordered_map<std::ptrdiff_t, std::array<double, kNumLayers>> turn_self_ns;
  std::unordered_map<std::uint64_t, std::ptrdiff_t> serve_turn_by_key;
  std::vector<double> prepare_ms, prefill_ms, decode_ms, save_ms, read_ms, put_ms, step_us;
  double refresh_ns = 0.0;
  double move_ns = 0.0;
  double prefill_tokens = 0.0;
  double prefill_ns = 0.0;
  const auto is_move = [](const ca::TraceEvent& e) {
    return Named(e, "store.promote") || Named(e, "store.demote") || Named(e, "store.move");
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const ca::TraceEvent& e = *span.event;
    if (span.turn_root >= 0) {
      auto& self = turn_self_ns.try_emplace(span.turn_root).first->second;
      self[LayerOf(e.name)] += static_cast<double>(e.dur_ns - span.child_ns);
    }
    if (Named(e, "serve.turn")) {
      const auto session = ArgU64(e.args, "session");
      const auto turn = ArgU64(e.args, "turn");
      if (session.has_value() && turn.has_value()) {
        serve_turn_by_key[TurnKey(*session, *turn)] = static_cast<std::ptrdiff_t>(i);
      }
    }
    if (!in_window(e)) {
      continue;
    }
    const double ms = static_cast<double>(e.dur_ns) * 1e-6;
    if (Named(e, "engine.prepare_cache")) {
      prepare_ms.push_back(ms);
    } else if (Named(e, "engine.prefill")) {
      prefill_ms.push_back(ms);
    } else if (Named(e, "engine.decode")) {
      decode_ms.push_back(ms);
    } else if (Named(e, "engine.save.async")) {
      save_ms.push_back(ms);
    } else if (Named(e, "store.read_payload")) {
      read_ms.push_back(ms);
    } else if (Named(e, "store.put") || Named(e, "store.put_shared")) {
      put_ms.push_back(ms);
    } else if (Named(e, "serve.refresh")) {
      refresh_ns += static_cast<double>(e.dur_ns);
    } else if (Named(e, "model.forward")) {
      const std::uint64_t tokens = ArgU64(e.args, "tokens").value_or(0);
      if (tokens > 1) {
        prefill_tokens += static_cast<double>(tokens);
        prefill_ns += static_cast<double>(e.dur_ns);
      } else if (tokens == 1) {
        step_us.push_back(static_cast<double>(e.dur_ns) * 1e-3);
      }
    }
    if (is_move(e) && (span.parent < 0 || !is_move(*spans[span.parent].event))) {
      move_ns += static_cast<double>(e.dur_ns);
    }
  }
  out.prepare_ms_p50 = Quantile(prepare_ms, 0.5);
  out.prefill_ms_p50 = Quantile(prefill_ms, 0.5);
  out.decode_ms_p50 = Quantile(decode_ms, 0.5);
  out.save_ms_p50 = Quantile(save_ms, 0.5);
  out.read_ms_p50 = Quantile(read_ms, 0.5);
  out.put_ms_p50 = Quantile(put_ms, 0.5);
  out.model_decode_step_us_p50 = Quantile(step_us, 0.5);
  out.model_prefill_tok_per_s = prefill_ns > 0.0 ? prefill_tokens / (prefill_ns * 1e-9) : 0.0;
  out.refresh_busy_frac = refresh_ns / window_ns;
  out.move_busy_frac = move_ns / window_ns;

  // Prefetch effectiveness: a preload is useful when its session's next
  // lookup hits DRAM before anything moves the session out of DRAM.
  std::unordered_set<std::uint64_t> pending;
  for (const ca::TraceEvent& e : events) {
    const auto session = ArgU64(e.args, "session");
    if (!session.has_value()) {
      continue;
    }
    if (e.ph == 'X' && Named(e, "prefetch.preload")) {
      if (in_window(e)) {
        ++out.preloads;
        pending.insert(*session);
      }
    } else if (e.ph == 'X' && Named(e, "store.move") && ArgStr(e.args, "from") == "DRAM") {
      pending.erase(*session);
    } else if (e.ph == 'i' && Named(e, "store.hit")) {
      if (pending.erase(*session) > 0 && ArgStr(e.args, "tier") == "DRAM") {
        ++out.useful_preloads;
      }
    }
  }

  // The per-turn split over measured OK turns.
  TurnSplit& split = out.split;
  for (const TurnRecord& turn : run.turns) {
    if (turn.phase != Phase::kMeasure || !turn.ok) {
      continue;
    }
    const auto found = serve_turn_by_key.find(TurnKey(turn.session, turn.turn));
    if (found == serve_turn_by_key.end()) {
      continue;
    }
    const ca::TraceEvent& serve_turn = *spans[found->second].event;
    const std::array<double, kNumLayers>& self = turn_self_ns[found->second];
    const double total = static_cast<double>(turn.observed_ns - turn.due_ns);
    const double queue =
        static_cast<double>(serve_turn.ts_ns) - static_cast<double>(turn.submit_end_ns);
    ++split.turns;
    split.turn_ms += total;
    split.queue_ms += queue;
    split.serve_self_ms += self[kServe];
    split.core_self_ms += self[kCore];
    split.store_self_ms += self[kStore];
    split.model_self_ms += self[kModel];
    split.unattributed_ms +=
        total - queue - self[kServe] - self[kCore] - self[kStore] - self[kModel];
  }
  if (split.turns > 0) {
    const double scale = 1e-6 / static_cast<double>(split.turns);
    for (double* v : {&split.turn_ms, &split.queue_ms, &split.serve_self_ms, &split.core_self_ms,
                      &split.store_self_ms, &split.model_self_ms, &split.unattributed_ms}) {
      *v *= scale;
    }
  }
  return out;
}

}  // namespace servebench
