// serve_bench: the serving benchmark on the real path.
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//   serve_bench --paper-check --seed N --seconds S [--work-dir DIR]
//
// Drives generated multi-turn traffic through ShardRouter -> ServingLoop ->
// CachedAttentionEngine -> AttentionStore -> Transformer, checks the replies,
// and prints a report whose last line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1 runs
// once with the Tracer on, reduces its spans to the per-layer metrics, writes
// a Chrome trace to DIR/<workload>.trace.json and reruns untraced to measure
// the tracing overhead. --paper-check replays sharegpt_chat and
// offline_backlog with KV reuse off (the RE baseline) and prints CA/RE
// ratios; it is report-only. See README.md for every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "servebench/harness.h"
#include "servebench/span_reduce.h"
#include "servebench/traffic.h"
#include "src/common/logging.h"
#include "src/core/cached_attention.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace servebench {
namespace {

// slo_ok_ratio's latency limit: about ten times the unloaded follow-up turn.
constexpr double kSloMs = 250.0;
// A run whose generator sent turns later than this (p99) did not apply the
// schedule it claims, and is reported invalid instead of pooled.
constexpr double kMaxLagP99Ms = 100.0;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
constexpr double kWarmupS = 2.0;
// Reference replay sample: sessions 0, 8, 16, ... up to this many.
constexpr std::size_t kReferenceStride = 8;
constexpr std::size_t kReferenceSessions = 12;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".";
  bool paper_check = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--paper-check") {
      args.paper_check = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]);
    } else if (flag == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else {
      return false;
    }
  }
  return args.seconds > 0.0 && (args.trace == 0 || args.trace == 1);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count / base, for the human-readable report
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string Count(std::size_t n) { return "n=" + std::to_string(n); }

// One finished run: what the generator saw plus the server's public stats,
// read after Shutdown.
struct RunOutcome {
  DriveRecord drive;
  ca::StoreStats store;
  ca::EngineStats engine;
  ca::HistogramMetric::View queue_wait;  // sched.queue_wait_seconds
  ca::HistogramMetric::View serve_turn;  // serve.turn_seconds
};

RunOutcome RunTraffic(Server& server, TrafficPlan& plan, const WorkloadSpec& spec,
                      double seconds) {
  RunOutcome out;
  DriveConfig config;
  config.warmup_s = kWarmupS;
  config.measure_s = seconds;
  out.drive = DriveTraffic(*server.router, plan, spec, config);
  server.router->Shutdown();
  const ca::CachedAttentionEngine& engine = server.router->shard_engine(0);
  out.store = engine.store().stats();
  out.engine = engine.stats();
  const ca::MetricsSnapshot snapshot = ca::MetricsRegistry::Global().Snapshot();
  for (const auto& h : snapshot.histograms) {
    if (h.key == "sched.queue_wait_seconds") {
      out.queue_wait = h.view;
    } else if (h.key == "serve.turn_seconds") {
      out.serve_turn = h.view;
    }
  }
  return out;
}

// End-to-end view of one run's measured window.
struct EndToEnd {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t first_turns = 0;
  std::size_t followups = 0;
  double turn_p50_ms = 0.0;
  double turn_p99_ms = 0.0;
  double first_turn_p50_ms = 0.0;
  double followup_turn_p50_ms = 0.0;
  double turns_per_s = 0.0;
  double slo_ok_ratio = 0.0;
  double cpu_ms_per_turn = 0.0;
  double lag_p99_ms = 0.0;
  std::size_t failed() const { return attempted - ok; }
};

EndToEnd Summarize(const DriveRecord& drive, double seconds) {
  EndToEnd e;
  std::vector<double> all, first, followup, lag;
  std::size_t within_slo = 0;
  for (const TurnRecord& turn : drive.turns) {
    if (turn.phase != Phase::kMeasure) {
      continue;
    }
    ++e.attempted;
    lag.push_back(static_cast<double>(turn.submit_begin_ns - turn.due_ns) * 1e-6);
    if (!turn.answered() || !turn.ok) {
      continue;
    }
    ++e.ok;
    const double ms = turn.latency_ms();
    all.push_back(ms);
    (turn.turn == 1 ? first : followup).push_back(ms);
    within_slo += ms <= kSloMs ? 1 : 0;
  }
  e.first_turns = first.size();
  e.followups = followup.size();
  e.turn_p50_ms = Quantile(all, 0.5);
  e.turn_p99_ms = Quantile(all, 0.99);
  e.first_turn_p50_ms = Quantile(first, 0.5);
  e.followup_turn_p50_ms = Quantile(followup, 0.5);
  e.turns_per_s = static_cast<double>(drive.window_ok_replies) / seconds;
  e.slo_ok_ratio = Ratio(static_cast<double>(within_slo), static_cast<double>(e.attempted));
  e.cpu_ms_per_turn =
      Ratio(drive.window_cpu_s * 1e3, static_cast<double>(drive.window_ok_replies));
  e.lag_p99_ms = Quantile(lag, 0.99);
  return e;
}

// The output check: answered-once/in-order, no evictions or load faults, and
// a bitwise replay of a fixed session sample through a serial reference
// engine (one caller, DRAM for everything, no prefetch, no sharing).
std::vector<std::string> CheckOutputs(const RunOutcome& run, TrafficPlan& plan,
                                      const ca::Transformer& model, std::size_t* replayed) {
  std::vector<std::string> problems = run.drive.order_errors;
  std::size_t unanswered = 0;
  std::map<ca::SessionId, std::vector<const TurnRecord*>> by_session;
  for (const TurnRecord& turn : run.drive.turns) {
    if (!turn.answered()) {
      ++unanswered;
    } else if (turn.ok) {
      by_session[turn.session].push_back(&turn);
    }
  }
  if (unanswered > 0) {
    problems.push_back(std::to_string(unanswered) + " turn(s) never answered");
  }
  if (run.store.evictions_out != 0) {
    problems.push_back("store evicted " + std::to_string(run.store.evictions_out) +
                       " record(s) out of the system");
  }
  if (run.engine.cache_load_faults != 0) {
    problems.push_back(std::to_string(run.engine.cache_load_faults) + " KV load fault(s)");
  }

  ca::EngineOptions options;
  options.store.block_bytes = ca::KiB(32);
  options.store.dram_capacity = ca::MiB(16);
  options.store.disk_capacity = 0;
  ca::CachedAttentionEngine reference(&model, options);
  *replayed = 0;
  const ca::SessionId last = by_session.empty() ? 0 : by_session.rbegin()->first;
  for (ca::SessionId id = 0; *replayed < kReferenceSessions && id <= last;
       id += kReferenceStride) {
    const auto it = by_session.find(id);
    if (it == by_session.end()) {
      continue;
    }
    const PlannedSession& planned = plan.Session(static_cast<std::size_t>(id));
    for (std::size_t k = 0; k < it->second.size(); ++k) {
      const TurnRecord& served = *it->second[k];
      if (served.turn != k + 1) {
        break;  // a turn before this one failed: the rest ran on another history
      }
      const PlannedTurn& input = planned.turns[k];
      const auto expected = reference.Converse(id, input.input, input.max_reply_tokens);
      if (!expected.ok() || expected->reply != served.result.reply) {
        problems.push_back("session " + std::to_string(id) + " turn " +
                           std::to_string(served.turn) +
                           " reply differs from the serial reference");
        break;
      }
    }
    reference.EndSession(id);
    ++*replayed;
  }
  return problems;
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.4f %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct PhaseCount {
  std::size_t attempted = 0;
  std::size_t ok = 0;
};

PhaseCount CountPhase(const DriveRecord& drive, Phase phase) {
  PhaseCount count;
  for (const TurnRecord& turn : drive.turns) {
    if (turn.phase == phase) {
      ++count.attempted;
      count.ok += turn.answered() && turn.ok ? 1 : 0;
    }
  }
  return count;
}

void PrintPhases(const DriveRecord& drive) {
  for (const Phase phase : {Phase::kWarmup, Phase::kMeasure}) {
    const PhaseCount count = CountPhase(drive, phase);
    std::printf("  phase %-8s attempted %6zu  ok %6zu  failed %4zu\n",
                phase == Phase::kWarmup ? "warmup" : "measure", count.attempted, count.ok,
                count.attempted - count.ok);
  }
}

std::string StorePath(const Args& args, const WorkloadSpec& spec) {
  return args.work_dir + "/" + spec.name + ".blocks";
}

TrafficPlan PlanFor(const Args& args, const WorkloadSpec& spec, const Server& server) {
  return TrafficPlan(spec, args.seed, server.model->config().vocab_size, kWarmupS + args.seconds);
}

// Reports the run as invalid (no result line) when the generator lagged.
bool LagValid(const EndToEnd& e) {
  if (e.lag_p99_ms <= kMaxLagP99Ms) {
    return true;
  }
  std::fprintf(stderr,
               "invalid run: generator lag p99 %.3f ms exceeds %.1f ms; not reporting it\n",
               e.lag_p99_ms, kMaxLagP99Ms);
  return false;
}

int RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  // Set up several times and keep the last server; setup_s is the median.
  std::vector<double> setup_s;
  Server server;
  for (int i = 0; i < kSetups; ++i) {
    server.router.reset();  // before the model it points at
    const std::uint64_t begin = ca::TraceNowNs();
    server = StartServer(spec, /*reuse_kv=*/true, StorePath(args, spec));
    setup_s.push_back(static_cast<double>(ca::TraceNowNs() - begin) * 1e-9);
  }
  TrafficPlan plan = PlanFor(args, spec, server);
  const RunOutcome run = RunTraffic(server, plan, spec, args.seconds);
  const double rss_mib = PeakRssMib();
  const EndToEnd e = Summarize(run.drive, args.seconds);
  std::size_t replayed = 0;
  const std::vector<std::string> problems = CheckOutputs(run, plan, *server.model, &replayed);

  std::printf("serve_bench %s seed %llu: %.0f s measured after %.0f s warmup\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              kWarmupS);
  PrintPhases(run.drive);
  std::printf("  generator lag p99 %.3f ms; reference replay of %zu session(s)\n",
              e.lag_p99_ms, replayed);
  std::printf("  failed_ratio %.6f (base: %zu measured turns attempted)\n",
              Ratio(static_cast<double>(e.failed()), static_cast<double>(e.attempted)),
              e.attempted);
  // Reported but not gated: host CPU steal moves it too much between runs
  // (see README.md).
  std::printf("  turn_p99_ms %.4f (n=%zu)\n", e.turn_p99_ms, e.ok);
  for (const std::string& p : problems) {
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  }
  if (!LagValid(e)) {
    return 3;
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(setup_s, 0.5), "s", "median of " + std::to_string(kSetups)},
      {"turn_p50_ms", e.turn_p50_ms, "ms", Count(e.ok)},
      {"first_turn_p50_ms", e.first_turn_p50_ms, "ms", Count(e.first_turns)},
      {"followup_turn_p50_ms", e.followup_turn_p50_ms, "ms", Count(e.followups)},
      {"turns_per_s", e.turns_per_s, "turns/s", Count(run.drive.window_ok_replies)},
      {"slo_ok_ratio", e.slo_ok_ratio, "ratio", "limit 250 ms, base " + Count(e.attempted)},
      {"cpu_ms_per_turn", e.cpu_ms_per_turn, "ms", Count(run.drive.window_ok_replies)},
      {"rss_peak_mib", rss_mib, "MiB", ""},
  };
  PrintResult(problems.empty(), e.attempted, e.failed(), metrics);
  return problems.empty() ? 0 : 1;
}

double PctDiff(std::uint64_t a, std::uint64_t b) {
  return Ratio(100.0 * std::abs(static_cast<double>(a) - static_cast<double>(b)),
               static_cast<double>(std::max(a, b)));
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  ca::Tracer& tracer = ca::Tracer::Get();
  Server server = StartServer(spec, /*reuse_kv=*/true, StorePath(args, spec));
  TrafficPlan plan = PlanFor(args, spec, server);
  tracer.Clear();
  tracer.Enable();
  const RunOutcome run = RunTraffic(server, plan, spec, args.seconds);
  tracer.Disable();
  const std::size_t dropped = tracer.dropped_count();
  const std::string trace_path = args.work_dir + "/" + spec.name + ".trace.json";
  const ca::Status written = tracer.ExportChromeJsonToFile(trace_path);
  std::size_t event_count = 0;
  SpanSummary spans;
  {
    const std::vector<ca::TraceEvent> events = tracer.SnapshotEvents();
    event_count = events.size();
    spans = ReduceSpans(events, run.drive);
  }
  tracer.Clear();
  const EndToEnd traced = Summarize(run.drive, args.seconds);
  std::size_t replayed = 0;
  std::vector<std::string> problems = CheckOutputs(run, plan, *server.model, &replayed);
  if (!written.ok()) {
    problems.push_back("trace export failed: " + written.ToString());
  }
  server.router.reset();  // before the model it points at
  server.model.reset();

  // The same traffic untraced: tracing overhead and a cross-check of the
  // store counters.
  Server plain_server = StartServer(spec, /*reuse_kv=*/true, StorePath(args, spec));
  TrafficPlan plain_plan = PlanFor(args, spec, plain_server);
  const RunOutcome plain = RunTraffic(plain_server, plain_plan, spec, args.seconds);
  const EndToEnd untraced = Summarize(plain.drive, args.seconds);

  std::printf("serve_bench %s seed %llu (traced): %.0f s measured after %.0f s warmup\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              kWarmupS);
  PrintPhases(run.drive);
  std::printf("  trace: %zu events, %zu dropped -> %s (open in https://ui.perfetto.dev)\n",
              event_count, dropped, trace_path.c_str());
  std::printf("  store counters traced vs untraced: lookups %llu/%llu, DRAM hits %llu/%llu, "
              "disk hits %llu/%llu, promotions %llu/%llu\n",
              static_cast<unsigned long long>(run.store.lookups),
              static_cast<unsigned long long>(plain.store.lookups),
              static_cast<unsigned long long>(run.store.dram_hits),
              static_cast<unsigned long long>(plain.store.dram_hits),
              static_cast<unsigned long long>(run.store.disk_hits),
              static_cast<unsigned long long>(plain.store.disk_hits),
              static_cast<unsigned long long>(run.store.promotions),
              static_cast<unsigned long long>(plain.store.promotions));
  for (const std::string& p : problems) {
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  }
  if (!LagValid(traced)) {
    return 3;
  }

  // Per-turn values (R) over the measured OK turns.
  std::vector<double> engine_prefill_ms;
  double prompt_tokens = 0.0, reused_tokens = 0.0;
  std::size_t truncated = 0, load_faults = 0, turns = 0;
  std::vector<double> submit_us;
  for (const TurnRecord& turn : run.drive.turns) {
    if (turn.phase != Phase::kMeasure) {
      continue;
    }
    submit_us.push_back(static_cast<double>(turn.submit_end_ns - turn.submit_begin_ns) * 1e-3);
    if (!turn.ok) {
      continue;
    }
    ++turns;
    engine_prefill_ms.push_back(turn.result.prefill_seconds * 1e3);
    prompt_tokens += static_cast<double>(turn.result.prompt_tokens);
    reused_tokens += static_cast<double>(turn.result.reused_tokens);
    truncated += turn.result.truncated ? 1 : 0;
    load_faults += turn.result.cache_load_fault ? 1 : 0;
  }
  double depth_sum = 0.0;
  for (const double d : run.drive.queue_depth_samples) {
    depth_sum += d;
  }

  const ca::StoreStats& s = run.store;
  const double served = static_cast<double>(run.engine.turns);
  const double lookups = static_cast<double>(s.lookups);
  std::uint64_t read_bytes = 0, write_bytes = 0;
  for (const auto& io : s.tier_io) {
    read_bytes += io.read_bytes;
    write_bytes += io.write_bytes;
  }
  // Bytes the saves wrote: tier writes minus the rewrites of tier moves.
  const double saved_bytes =
      static_cast<double>(write_bytes - s.bytes_demoted - s.bytes_promoted);
  const TurnSplit& split = spans.split;
  const double stats_diff = std::max(
      {PctDiff(s.lookups, plain.store.lookups), PctDiff(s.dram_hits, plain.store.dram_hits),
       PctDiff(s.disk_hits, plain.store.disk_hits), PctDiff(s.misses, plain.store.misses),
       PctDiff(s.inserts + s.updates, plain.store.inserts + plain.store.updates)});

  const PhaseCount warmup = CountPhase(run.drive, Phase::kWarmup);
  const PhaseCount measure = CountPhase(run.drive, Phase::kMeasure);
  const auto count = [](std::size_t n) { return static_cast<double>(n); };

  const std::vector<Metric> metrics = {
      {"cluster.submit_us_p50", Quantile(submit_us, 0.5), "us", Count(submit_us.size())},
      {"cluster.end_session_ms_p99", Quantile(run.drive.end_session_ms, 0.99), "ms",
       Count(run.drive.end_session_ms.size())},
      {"sched.queue_wait_ms_p50", run.queue_wait.p50 * 1e3, "ms", Count(run.queue_wait.count)},
      {"sched.queue_wait_ms_p99", run.queue_wait.p99 * 1e3, "ms", Count(run.queue_wait.count)},
      {"sched.queue_depth_mean",
       Ratio(depth_sum, count(run.drive.queue_depth_samples.size())), "jobs",
       Count(run.drive.queue_depth_samples.size())},
      {"serve.turn_ms_p50", run.serve_turn.p50 * 1e3, "ms", Count(run.serve_turn.count)},
      {"serve.turn_ms_p99", run.serve_turn.p99 * 1e3, "ms", Count(run.serve_turn.count)},
      {"serve.refresh_busy_frac", spans.refresh_busy_frac, "ratio", "base: window wall time"},
      {"core.engine_prefill_ms_p50", Quantile(engine_prefill_ms, 0.5), "ms",
       Count(engine_prefill_ms.size())},
      {"core.prepare_ms_p50", spans.prepare_ms_p50, "ms", ""},
      {"core.prefill_ms_p50", spans.prefill_ms_p50, "ms", ""},
      {"core.decode_ms_p50", spans.decode_ms_p50, "ms", ""},
      {"core.save_ms_p50", spans.save_ms_p50, "ms", ""},
      {"core.reuse_ratio", Ratio(reused_tokens, prompt_tokens), "ratio",
       "base: prompt tokens"},
      {"core.truncated_ratio", Ratio(count(truncated), count(turns)), "ratio",
       "base: " + Count(turns) + " turns"},
      {"core.load_faults", count(load_faults), "count", "must be 0"},
      {"store.hit_dram_ratio", Ratio(count(s.hbm_hits + s.dram_hits), lookups), "ratio",
       "base: lookups"},
      {"store.hit_disk_ratio", Ratio(count(s.disk_hits), lookups), "ratio", "base: lookups"},
      {"store.miss_ratio", Ratio(count(s.misses), lookups), "ratio", "base: lookups"},
      {"store.moves_per_turn", Ratio(count(s.promotions + s.demotions), served), "moves/turn",
       "base: turns served"},
      {"store.move_busy_frac", spans.move_busy_frac, "ratio", "base: window wall time"},
      {"store.prefetch_useful_ratio",
       Ratio(count(spans.useful_preloads), count(spans.preloads)), "ratio",
       "base: " + std::to_string(spans.preloads) + " preloads"},
      {"store.read_ms_p50", spans.read_ms_p50, "ms", ""},
      {"store.put_ms_p50", spans.put_ms_p50, "ms", ""},
      {"store.read_kib_per_turn", Ratio(count(read_bytes) / 1024.0, served), "KiB/turn",
       "tier reads incl. moves"},
      {"store.write_kib_per_turn", Ratio(count(write_bytes) / 1024.0, served), "KiB/turn",
       "tier writes incl. moves"},
      {"store.unread_save_ratio", 1.0 - Ratio(count(s.hits()), count(s.inserts + s.updates)),
       "ratio", "base: saves"},
      {"store.dedup_factor",
       Ratio(saved_bytes + static_cast<double>(s.shared_bytes_saved), saved_bytes), "x",
       "base: bytes saves wrote"},
      {"store.prefix_hit_rate", s.prefix_hit_rate(), "ratio", "base: prefix probes"},
      {"store.evictions_out", count(s.evictions_out), "count", "must be 0"},
      {"model.prefill_tok_per_s", spans.model_prefill_tok_per_s, "tok/s", ""},
      {"model.decode_step_us_p50", spans.model_decode_step_us_p50, "us", ""},
      {"bench.turn_ms_mean", split.turn_ms, "ms", Count(split.turns) + " turns split"},
      {"sched.queue_ms", split.queue_ms, "ms", "split"},
      {"serve.self_ms", split.serve_self_ms, "ms", "split"},
      {"core.self_ms", split.core_self_ms, "ms", "split"},
      {"store.self_ms", split.store_self_ms, "ms", "split"},
      {"model.self_ms", split.model_self_ms, "ms", "split"},
      {"obs.unattributed_ms", split.unattributed_ms, "ms", "split"},
      {"obs.trace_overhead_pct",
       100.0 * (Ratio(traced.turn_p50_ms, untraced.turn_p50_ms) - 1.0), "%",
       "turn_p50_ms traced vs untraced"},
      {"obs.trace_dropped", count(dropped), "count", "must be 0"},
      {"obs.store_stats_diff_pct", stats_diff, "%", "traced vs untraced store counters"},
      {"bench.turn_p99_ms", untraced.turn_p99_ms, "ms", "untraced rerun, " + Count(untraced.ok)},
      {"bench.lag_p99_ms", traced.lag_p99_ms, "ms", Count(traced.attempted)},
      {"bench.warmup_attempted", count(warmup.attempted), "count", ""},
      {"bench.warmup_ok", count(warmup.ok), "count", ""},
      {"bench.warmup_failed", count(warmup.attempted - warmup.ok), "count", ""},
      {"bench.measure_attempted", count(measure.attempted), "count", ""},
      {"bench.measure_ok", count(measure.ok), "count", ""},
      {"bench.measure_failed", count(measure.attempted - measure.ok), "count", ""},
  };
  if (dropped != 0) {
    problems.push_back(std::to_string(dropped) + " trace events dropped");
  }
  PrintResult(problems.empty(), traced.attempted, traced.failed(), metrics);
  return problems.empty() ? 0 : 1;
}

// Report-only: CachedAttention (CA) against recompute (RE) on the same
// traffic, for the direction of the paper's Figs 14-16 on real compute.
int RunPaperCheck(const Args& args) {
  struct Row {
    std::string workload;
    EndToEnd ca, re;
  };
  std::vector<Row> rows;
  for (const char* name : {"sharegpt_chat", "offline_backlog"}) {
    const WorkloadSpec& spec = *FindWorkload(name);
    Row row{.workload = name, .ca = {}, .re = {}};
    for (const bool reuse : {true, false}) {
      Server server = StartServer(spec, reuse, StorePath(args, spec));
      TrafficPlan plan = PlanFor(args, spec, server);
      const RunOutcome run = RunTraffic(server, plan, spec, args.seconds);
      (reuse ? row.ca : row.re) = Summarize(run.drive, args.seconds);
    }
    rows.push_back(row);
  }
  std::printf("paper-direction check (seed %llu, %.0f s per run): CA / RE\n",
              static_cast<unsigned long long>(args.seed), args.seconds);
  std::printf("  %-16s %-22s %10s %10s %8s\n", "workload", "metric", "CA", "RE", "CA/RE");
  for (const Row& row : rows) {
    const auto line = [&](const char* metric, double ca, double re) {
      std::printf("  %-16s %-22s %10.3f %10.3f %8.3f\n", row.workload.c_str(), metric, ca, re,
                  Ratio(ca, re));
    };
    line("followup_turn_p50_ms", row.ca.followup_turn_p50_ms, row.re.followup_turn_p50_ms);
    line("cpu_ms_per_turn", row.ca.cpu_ms_per_turn, row.re.cpu_ms_per_turn);
    line("turns_per_s", row.ca.turns_per_s, row.re.turns_per_s);
  }
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
                 "       %s --paper-check --seed N --seconds S [--work-dir DIR]\n",
                 argv[0], argv[0]);
    return 2;
  }
  ca::Logger::Get().set_min_level(ca::LogLevel::kWarn);
  if (args.paper_check) {
    return RunPaperCheck(args);
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace == 1 ? RunTraced(args, *spec) : RunEndToEnd(args, *spec);
}
