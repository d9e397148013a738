// End-to-end serving simulation (§4.2's testbed as a discrete-event model).
//
// One inference instance (the model sharded over its num_gpus GPUs) serves
// conversation turns with continuous batching (max_batch slots, prefill
// priority: a newly admitted job prefills before decode iterations resume,
// matching the paper's observation that prefilling blocks decoding).
// AttentionStore holds inactive sessions' KV caches in DRAM/disk;
// scheduler-aware fetching and eviction use the live job queue.
//
// Modes:
//  * kRecompute       — the RE baseline: discard KV at turn end, re-prefill
//                       the whole history next turn.
//  * kCachedAttention — save KV to AttentionStore, reuse on hit. The
//                       decoupled_pe flag selects §3.4 behaviour (true) or
//                       the OF baseline (false: context-window overflow
//                       invalidates the stored KV cache).
#ifndef CA_SIM_CLUSTER_SIM_H_
#define CA_SIM_CLUSTER_SIM_H_

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/model/config.h"
#include "src/sched/job_queue.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/hardware.h"
#include "src/sim/timing_model.h"
#include "src/store/attention_store.h"
#include "src/store/prefetcher.h"
#include "src/workload/sharegpt.h"

namespace ca {

enum class EngineMode { kRecompute, kCachedAttention };

struct SimOptions {
  EngineMode mode = EngineMode::kCachedAttention;
  ModelDescriptor model = ModelDescriptor::Llama13B();
  HardwareConfig hw = HardwareConfig::A100Node();
  StoreConfig store;  // tiers, capacities, policy, TTL

  // §3.2 overlap schemes.
  bool layerwise_preload = true;
  std::size_t read_buffer_layers = 16;
  bool async_save = true;
  std::uint64_t write_buffer_bytes = GiB(1);

  // §3.4: decoupled positional encoding. False = OF baseline (overflow
  // invalidates saved KV). Ignored in kRecompute mode.
  bool decoupled_pe = true;

  // Scheduler-aware prefetching only exists with the scheduler-aware
  // policy; LRU/FIFO have no future knowledge (§4.3.3).
  bool prefetch_enabled = true;

  // Turns completed before measurement starts (paper: first 10K of 52K).
  std::size_t warmup_turns = 0;

  // Interval of TTL expiration sweeps (when store.ttl > 0).
  SimTime ttl_sweep_interval = kMinute;

  // Cost model.
  PricingConfig pricing;
};

struct SimMetrics {
  // Post-warmup ("measured") turns.
  std::uint64_t turns = 0;
  std::uint64_t truncation_events = 0;

  Samples ttft_s;                       // time to first token, seconds
  std::uint64_t prompt_tokens = 0;      // full prompts served (hist + new)
  std::uint64_t computed_tokens = 0;    // prompt tokens actually prefilled
  std::uint64_t decoded_tokens = 0;

  SimTime prefill_busy = 0;             // GPU time in prefill (incl. load gaps)
  SimTime decode_busy = 0;              // GPU time in decode iterations
  SimTime save_stall = 0;               // GPU time stalled on KV write-back
  SimTime makespan = 0;                 // wall time of the measured window

  StoreStats store;

  // Prefetch pipeline observability.
  std::uint64_t prefetch_plans = 0;           // Plan() invocations
  std::uint64_t prefetch_planned = 0;         // sessions planned in total
  std::uint64_t prefetch_promoted = 0;        // fetches that promoted in time
  std::uint64_t prefetch_stale = 0;           // fetch completed after dispatch/move

  SimTime gpu_time() const { return prefill_busy + decode_busy + save_stall; }
  double mean_ttft_s() const { return ttft_s.mean(); }
  // Prompt-token prefilling throughput (tokens/s): full prompt tokens
  // delivered per second of prefill GPU time. CachedAttention "serves"
  // historical tokens from the cache, so the same formula rewards it
  // exactly as the paper's Fig. 15 does.
  double prefill_throughput() const {
    const double t = ToSeconds(prefill_busy);
    return t == 0.0 ? 0.0 : static_cast<double>(prompt_tokens) / t;
  }
  // End-to-end token throughput over the measured window.
  double token_throughput() const {
    const double t = ToSeconds(makespan);
    return t == 0.0 ? 0.0
                    : static_cast<double>(prompt_tokens + decoded_tokens) / t;
  }

  CostBreakdown cost;
};

class ClusterSim {
 public:
  // `workload` must have arrival times assigned (AssignArrivals).
  ClusterSim(SimOptions options, std::vector<SessionTrace> workload);

  // Runs the full workload to completion and returns measured metrics.
  SimMetrics Run();

 private:
  struct SessionState {
    const SessionTrace* trace = nullptr;
    std::uint32_t next_turn = 0;
    // Logical conversation history (token text), already truncation-clamped.
    std::uint64_t history_tokens = 0;
  };

  struct ActiveJob {
    Job job;
    std::uint64_t context_tokens = 0;   // current tokens in HBM for this job
    std::uint32_t remaining_decode = 0;
    SimTime prefill_done = 0;
    std::uint64_t session_kv_tokens = 0;  // KV length at turn end (for save)
  };

  // --- event handlers ----------------------------------------------------
  void OnTurnArrival(SessionId session);
  void WorkerWake();
  void StartPrefill(Job job);
  void FinishPrefill(const Job& job, SimTime start, SimTime duration,
                     std::uint64_t computed_tokens);
  void RunDecodeIteration();
  void FinishTurn(const ActiveJob& done);
  void SweepTtl();
  void SchedulePrefetch();

  // --- helpers ------------------------------------------------------------
  SchedulerHints CurrentHints();
  std::uint64_t AvgSessionKvBytes() const;
  // Applies context-window truncation to the session for an incoming turn
  // with `new_tokens`; returns effective history and whether truncation
  // happened.
  std::pair<std::uint64_t, bool> ClampHistory(SessionState& state, std::uint32_t new_tokens);
  void ResetMeasurement();

  SimOptions options_;
  std::vector<SessionTrace> workload_;
  std::vector<SessionState> sessions_;

  EventQueue events_;
  TimingModel timing_;
  AttentionStore store_;
  Prefetcher prefetcher_;
  JobQueue queue_;

  // Worker (one inference instance).
  bool worker_busy_ = false;
  std::vector<ActiveJob> batch_;
  std::uint64_t batch_ctx_sum_ = 0;

  // Disk fetch channel (serialised SSD reads for prefetching).
  SimTime disk_busy_until_ = 0;
  std::size_t outstanding_fetches_ = 0;
  std::unordered_set<SessionId> fetch_in_flight_;

  // PCIe write channel for KV save stalls (serialised; §3.2.2).
  SimTime pcie_write_busy_until_ = 0;
  std::size_t worker_blocks_ = 0;

  JobId next_job_id_ = 1;
  std::size_t completed_turns_ = 0;
  std::size_t total_turns_ = 0;
  bool measuring_ = false;
  SimTime measure_start_ = 0;
  bool ttl_sweep_scheduled_ = false;

  SimMetrics metrics_;
};

// Convenience: build workload + options, run both CA and RE, used by several
// benches. Implemented in harness code (bench/harness).

}  // namespace ca

#endif  // CA_SIM_CLUSTER_SIM_H_
