// The server under test and the traffic generator that drives it.
//
// The generator is one thread that submits every turn when it is due and
// observes replies by polling ShardRouter::TakeReplies; a second thread
// retires finished sessions with ShardRouter::EndSession, which blocks on the
// session's pending save and the engine mutex and so must stay off the
// arrival path. Every turn is timed from when it was due to when the
// generator observed its reply.
#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "servebench/traffic.h"
#include "src/cluster/shard_router.h"
#include "src/model/transformer.h"

namespace servebench {

// Seed of the Mini model's weights.
inline constexpr std::uint64_t kModelSeed = 7;

// The router points at the model: reset `router` before `model`.
struct Server {
  std::unique_ptr<ca::Transformer> model;
  std::unique_ptr<ca::ShardRouter> router;
};

// One ShardRouter shard with 4 workers over ModelConfig::Mini (one compute
// thread per forward), async saves in 32 KiB blocks, a 2 MiB DRAM tier with
// a 512 KiB fetch buffer and a 512 MiB disk tier backed by `disk_path`.
// `share_prefixes` follows the workload; `reuse_kv` = false is the RE
// (recompute) baseline of the paper-direction check.
Server StartServer(const WorkloadSpec& spec, bool reuse_kv, const std::string& disk_path);

enum class Phase { kWarmup, kMeasure };

struct TurnRecord {
  ca::SessionId session = ca::kInvalidSession;
  std::uint32_t turn = 0;  // 1-based, as the router numbers it
  Phase phase = Phase::kWarmup;
  std::uint64_t due_ns = 0;
  std::uint64_t submit_begin_ns = 0;
  std::uint64_t submit_end_ns = 0;
  std::uint64_t observed_ns = 0;  // 0 while unanswered
  bool ok = false;
  ca::TurnResult result;

  bool answered() const { return observed_ns != 0; }
  double latency_ms() const { return static_cast<double>(observed_ns - due_ns) * 1e-6; }
};

struct DriveConfig {
  double warmup_s = 2.0;
  double measure_s = 10.0;
};

struct DriveRecord {
  std::vector<TurnRecord> turns;  // in submission order
  std::uint64_t start_ns = 0;
  std::uint64_t window_begin_ns = 0;
  std::uint64_t window_end_ns = 0;
  // Process CPU time and OK replies observed inside the measured window.
  double window_cpu_s = 0.0;
  std::size_t window_ok_replies = 0;
  std::vector<double> queue_depth_samples;  // shard 0, measured window
  std::vector<double> end_session_ms;       // every EndSession call
  // Replies the router returned that match no outstanding turn, or carry
  // another turn index than the one submitted (answered-once/in-order
  // violations).
  std::vector<std::string> order_errors;
};

// Runs the workload against `router` for warmup + measured window, then
// waits up to 10 s for outstanding replies (later ones count as failed).
// When the tracer is enabled, adds the bench.submit / bench.take_replies /
// bench.end_session / bench.turn spans.
DriveRecord DriveTraffic(ca::ShardRouter& router, TrafficPlan& plan, const WorkloadSpec& spec,
                         const DriveConfig& config);

// Interpolated quantile q in [0, 1] of `values`; 0 when empty.
double Quantile(const std::vector<double>& values, double q);
// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();
// Peak resident set size of the process in MiB.
double PeakRssMib();

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
