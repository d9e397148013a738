#include "servebench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/mutex.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/obs/trace.h"

namespace servebench {

namespace {

// How often the generator polls for replies while turns are outstanding; it
// bounds how late a reply is observed.
constexpr std::uint64_t kPollNs = 500'000;
// Queue-depth sampling cadence (shard_status takes the engine mutex).
constexpr std::uint64_t kDepthSampleNs = 20'000'000;
// Turns still unanswered this long after the measured window count as failed.
constexpr double kDrainLimitS = 10.0;

std::uint64_t SecondsToNs(double s) { return static_cast<std::uint64_t>(s * 1e9); }

// Second generator thread: ends finished sessions so the blocking
// EndSession never delays a due submission.
class SessionRetirer {
 public:
  explicit SessionRetirer(ca::ShardRouter* router)
      : router_(router), thread_([this] { Loop(); }) {}
  ~SessionRetirer() { Stop(); }

  SessionRetirer(const SessionRetirer&) = delete;
  SessionRetirer& operator=(const SessionRetirer&) = delete;

  void Push(ca::SessionId session) CA_EXCLUDES(mu_) {
    {
      ca::MutexLock lock(mu_);
      queue_.push_back(session);
    }
    cv_.NotifyOne();
  }

  // Retires everything queued, then joins. Idempotent.
  void Stop() CA_EXCLUDES(mu_) {
    {
      ca::MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyOne();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Valid after Stop().
  const std::vector<double>& durations_ms() const { return durations_ms_; }

 private:
  void Loop() CA_EXCLUDES(mu_) {
    ca::Tracer::Get().SetThreadName("bench-retire");
    for (;;) {
      ca::SessionId session;
      {
        ca::MutexLock lock(mu_);
        cv_.Wait(mu_, [this] {
          mu_.AssertHeld();
          return stop_ || !queue_.empty();
        });
        if (queue_.empty()) {
          return;
        }
        session = queue_.front();
        queue_.pop_front();
      }
      const std::uint64_t begin = ca::TraceNowNs();
      {
        CA_TRACE_SPAN("bench.end_session", "session", session);
        router_->EndSession(session);
      }
      durations_ms_.push_back(static_cast<double>(ca::TraceNowNs() - begin) * 1e-6);
    }
  }

  ca::ShardRouter* router_;
  ca::Mutex mu_{"bench.SessionRetirer"};
  ca::CondVar cv_;
  std::deque<ca::SessionId> queue_ CA_GUARDED_BY(mu_);
  bool stop_ CA_GUARDED_BY(mu_) = false;
  std::vector<double> durations_ms_;  // retire thread only until joined
  std::thread thread_;                // last: starts after the members it uses
};

// A turn waiting for its due time.
struct DueTurn {
  std::uint64_t due_ns = 0;
  std::size_t session_index = 0;
  std::size_t turn_index = 0;  // 0-based into PlannedSession::turns

  bool operator>(const DueTurn& other) const {
    return due_ns != other.due_ns ? due_ns > other.due_ns
                                  : session_index > other.session_index;
  }
};

void RecordTurnSpan(const TurnRecord& turn) {
  ca::TraceEvent event;
  event.ph = 'X';
  event.name = "bench.turn";
  event.ts_ns = turn.due_ns;
  event.dur_ns = turn.observed_ns - turn.due_ns;
  event.args = "\"session\":" + std::to_string(turn.session) +
               ",\"turn\":" + std::to_string(turn.turn);
  ca::Tracer::Get().Record(std::move(event));
}

}  // namespace

Server StartServer(const WorkloadSpec& spec, bool reuse_kv, const std::string& disk_path) {
  Server server;
  server.model = std::make_unique<ca::Transformer>(ca::ModelConfig::Mini(), kModelSeed);
  ca::ClusterOptions options;
  options.num_shards = 1;
  options.server.num_workers = 4;
  options.engine.reuse_kv = reuse_kv;
  options.engine.async_save = true;
  options.engine.store.block_bytes = ca::KiB(32);
  options.engine.store.dram_capacity = ca::MiB(2);
  options.engine.store.dram_buffer = ca::KiB(512);
  options.engine.store.disk_capacity = ca::MiB(512);
  options.engine.store.disk_path = disk_path;
  options.engine.store.share_prefixes = spec.shared_prompt;
  // A 32-token chunk is two whole 32 KiB blocks at Mini's 2 KiB/token, and
  // the 96-token shared prompt dedups as three whole chunks.
  options.engine.store.share_chunk_tokens = 32;
  server.router = std::make_unique<ca::ShardRouter>(server.model.get(), std::move(options));
  return server;
}

DriveRecord DriveTraffic(ca::ShardRouter& router, TrafficPlan& plan, const WorkloadSpec& spec,
                         const DriveConfig& config) {
  ca::Tracer::Get().SetThreadName("bench-generator");
  DriveRecord record;
  SessionRetirer retirer(&router);

  record.start_ns = ca::TraceNowNs();
  record.window_begin_ns = record.start_ns + SecondsToNs(config.warmup_s);
  record.window_end_ns = record.window_begin_ns + SecondsToNs(config.measure_s);
  const std::uint64_t give_up_ns = record.window_end_ns + SecondsToNs(kDrainLimitS);

  std::priority_queue<DueTurn, std::vector<DueTurn>, std::greater<>> due;
  std::size_t next_session = 0;
  const auto start_session = [&](std::uint64_t due_ns) {
    due.push(DueTurn{.due_ns = due_ns, .session_index = next_session++, .turn_index = 0});
  };
  // Open loop: the next arrival is queued as soon as the previous one is
  // submitted, so the heap never holds more than one future arrival.
  const auto queue_arrival = [&] {
    if (next_session < plan.open_sessions()) {
      start_session(record.start_ns + SecondsToNs(plan.Session(next_session).arrival_s));
    }
  };
  if (spec.loop == LoopKind::kOpen) {
    queue_arrival();
  } else {
    for (std::size_t i = 0; i < spec.in_flight; ++i) {
      start_session(record.start_ns);
    }
  }

  // Session id -> index of its outstanding turn in record.turns (a session
  // has at most one turn in flight).
  std::unordered_map<ca::SessionId, std::size_t> outstanding;
  bool window_open = false;
  bool window_closed = false;
  double cpu_at_window_begin = 0.0;
  std::uint64_t next_depth_sample_ns = record.window_begin_ns;

  for (;;) {
    std::uint64_t now = ca::TraceNowNs();

    // Due-submission pass. Turns due after the window are never sent.
    while (!due.empty() && due.top().due_ns <= now && due.top().due_ns < record.window_end_ns) {
      const DueTurn next = due.top();
      due.pop();
      const PlannedSession& session = plan.Session(next.session_index);
      const PlannedTurn& planned = session.turns[next.turn_index];
      TurnRecord turn;
      turn.session = session.id;
      turn.turn = static_cast<std::uint32_t>(next.turn_index + 1);
      turn.phase = next.due_ns < record.window_begin_ns ? Phase::kWarmup : Phase::kMeasure;
      turn.due_ns = next.due_ns;
      ca::ServeRequest request;
      request.session = session.id;
      request.input = planned.input;
      request.max_reply_tokens = planned.max_reply_tokens;
      turn.submit_begin_ns = ca::TraceNowNs();
      {
        CA_TRACE_SPAN("bench.submit", "session", turn.session, "turn", turn.turn);
        router.Submit(std::move(request));
      }
      turn.submit_end_ns = ca::TraceNowNs();
      outstanding.emplace(session.id, record.turns.size());
      record.turns.push_back(std::move(turn));
      if (spec.loop == LoopKind::kOpen && next.turn_index == 0) {
        queue_arrival();
      }
    }

    if (!outstanding.empty()) {
      std::vector<ca::ServeReply> replies;
      {
        CA_TRACE_SPAN("bench.take_replies");
        replies = router.TakeReplies();
      }
      const std::uint64_t observed = ca::TraceNowNs();
      for (ca::ServeReply& reply : replies) {
        const auto it = outstanding.find(reply.session);
        if (it == outstanding.end()) {
          record.order_errors.push_back("reply for session " + std::to_string(reply.session) +
                                        " turn " + std::to_string(reply.turn_index) +
                                        " with no turn outstanding");
          continue;
        }
        TurnRecord& turn = record.turns[it->second];
        outstanding.erase(it);
        if (reply.turn_index != turn.turn) {
          record.order_errors.push_back("session " + std::to_string(turn.session) +
                                        " answered turn " + std::to_string(reply.turn_index) +
                                        " for submitted turn " + std::to_string(turn.turn));
        }
        turn.observed_ns = observed;
        turn.ok = reply.status.ok();
        turn.result = std::move(reply.turn);
        if (turn.ok && observed >= record.window_begin_ns && observed < record.window_end_ns) {
          ++record.window_ok_replies;
        }
        if (ca::Tracer::Get().enabled()) {
          RecordTurnSpan(turn);
        }
        const std::size_t session_index = static_cast<std::size_t>(turn.session);
        const PlannedSession& session = plan.Session(session_index);
        if (turn.ok && turn.turn < session.turns.size()) {
          const double think_s = session.turns[turn.turn].think_s;
          due.push(DueTurn{.due_ns = observed + SecondsToNs(think_s),
                           .session_index = session_index,
                           .turn_index = turn.turn});
        } else {
          retirer.Push(turn.session);
          if (spec.loop == LoopKind::kClosed) {
            start_session(observed);
          }
        }
      }
    }

    now = ca::TraceNowNs();
    if (!window_open && now >= record.window_begin_ns) {
      window_open = true;
      cpu_at_window_begin = ProcessCpuSeconds();
    }
    if (window_open && !window_closed && now >= record.window_end_ns) {
      window_closed = true;
      record.window_cpu_s = ProcessCpuSeconds() - cpu_at_window_begin;
    }
    if (window_open && !window_closed && now >= next_depth_sample_ns) {
      record.queue_depth_samples.push_back(
          static_cast<double>(router.shard_status(0).queue_depth));
      next_depth_sample_ns += kDepthSampleNs;
    }
    if (window_closed && (outstanding.empty() || now >= give_up_ns)) {
      break;
    }

    // Sleep until the next due turn, window edge or reply poll.
    std::uint64_t wake = !window_open    ? record.window_begin_ns
                         : !window_closed ? record.window_end_ns
                                          : give_up_ns;
    if (!due.empty() && due.top().due_ns < record.window_end_ns) {
      wake = std::min(wake, due.top().due_ns);
    }
    if (!outstanding.empty()) {
      wake = std::min(wake, now + kPollNs);
    }
    if (window_open && !window_closed) {
      wake = std::min(wake, next_depth_sample_ns);
    }
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
    }
  }
  retirer.Stop();
  record.end_session_ms = retirer.durations_ms();
  return record;
}

double Quantile(const std::vector<double>& values, double q) {
  ca::Samples samples;
  for (const double v : values) {
    samples.Add(v);
  }
  return samples.Quantile(q);
}

double ProcessCpuSeconds() {
  rusage usage{};
  CA_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  CA_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace servebench
