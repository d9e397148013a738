// Reduces a traced run's spans (Tracer::SnapshotEvents) to per-layer
// numbers and to a per-turn split of the benchmark's bench.turn latency.
//
// Layers are named after modules by span-name prefix: serve.* -> serve,
// engine.* -> core, store.*/io.*/prefetch.*/meta.* -> store,
// model.*/parallel_for* -> model. A span's self time is its duration minus
// the spans nested in it on the same thread; a serve.turn span is matched to
// its turn by its session/turn args, and everything nested in it belongs to
// that turn.
#ifndef SERVEBENCH_SPAN_REDUCE_H_
#define SERVEBENCH_SPAN_REDUCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "servebench/harness.h"
#include "src/obs/trace.h"

namespace servebench {

// Mean per measured turn, in ms. The parts sum to turn_ms exactly:
// unattributed_ms is bench.turn minus everything the spans account for
// (generator lag, the router submit, the reply hand-off back to the
// generator, and self time of spans outside the named layers).
struct TurnSplit {
  std::size_t turns = 0;  // measured OK turns whose serve.turn span was found
  double turn_ms = 0.0;   // bench.turn: due -> reply observed
  double queue_ms = 0.0;  // submit returned -> serve.turn began
  double serve_self_ms = 0.0;
  double core_self_ms = 0.0;
  double store_self_ms = 0.0;
  double model_self_ms = 0.0;
  double unattributed_ms = 0.0;
};

struct SpanSummary {
  // p50 durations (ms) of spans that began inside the measured window.
  double prepare_ms_p50 = 0.0;  // engine.prepare_cache
  double prefill_ms_p50 = 0.0;  // engine.prefill
  double decode_ms_p50 = 0.0;   // engine.decode
  double save_ms_p50 = 0.0;     // engine.save.async
  double read_ms_p50 = 0.0;     // store.read_payload
  double put_ms_p50 = 0.0;      // store.put + store.put_shared
  // Busy time over the measured window's wall time.
  double refresh_busy_frac = 0.0;  // serve.refresh
  double move_busy_frac = 0.0;     // outermost store.promote/demote/move
  // prefetch.preload spans in the window, and those whose session's next
  // store.hit was in DRAM before any move of it out of DRAM.
  std::uint64_t preloads = 0;
  std::uint64_t useful_preloads = 0;
  // model.forward: prefill = spans with tokens > 1, decode = tokens == 1.
  double model_prefill_tok_per_s = 0.0;
  double model_decode_step_us_p50 = 0.0;
  TurnSplit split;
};

SpanSummary ReduceSpans(const std::vector<ca::TraceEvent>& events, const DriveRecord& run);

}  // namespace servebench

#endif  // SERVEBENCH_SPAN_REDUCE_H_
