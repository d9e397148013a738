#include "src/serve/serving_loop.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/trace.h"

namespace ca {

namespace {

// Look-ahead window (jobs) republished into the engine as scheduler hints
// and offered to the prefetcher.
constexpr std::size_t kHintWindow = 64;
// Pause after every refresh pass, so the thread never spins on the engine
// mutex the workers need.
constexpr std::chrono::microseconds kRefreshInterval{200};

}  // namespace

ServingLoop::ServingLoop(CachedAttentionEngine* engine, ServerOptions options)
    : engine_(engine), options_(options) {
  CA_CHECK(engine_ != nullptr);
  CA_CHECK_GT(options_.num_workers, 0U);
  auto& registry = MetricsRegistry::Global();
  accepted_counter_ = &registry.GetCounter("serve.jobs_accepted");
  rejected_counter_ = &registry.GetCounter("serve.jobs_rejected");
  completed_counter_ = &registry.GetCounter("serve.jobs_completed");
  failed_counter_ = &registry.GetCounter("serve.jobs_failed");
  turn_seconds_hist_ = &registry.GetHistogram("serve.turn_seconds");
  inflight_gauge_ = &registry.GetGauge("serve.sessions_in_flight");
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  refresh_thread_ = std::thread([this] { RefreshLoop(); });
}

ServingLoop::~ServingLoop() { Shutdown(); }

JobId ServingLoop::EnqueueLocked(ServeRequest&& request) {
  const JobId id = next_job_id_++;
  Job job;
  job.id = id;
  job.session = request.session;
  job.arrival = static_cast<SimTime>(TraceNowNs());
  job.turn_index = ++turns_submitted_[request.session];
  job.new_tokens = static_cast<std::uint32_t>(request.input.size());
  job.decode_tokens = static_cast<std::uint32_t>(request.max_reply_tokens);
  payloads_.emplace(id, std::move(request));
  queue_.Push(job);
  ++accepted_;
  accepted_counter_->Add();
  return id;
}

JobId ServingLoop::Submit(ServeRequest request) {
  CA_CHECK(!request.input.empty()) << "empty turn input";
  JobId id;
  {
    MutexLock lock(mutex_);
    CA_CHECK(accepting_) << "Submit after Shutdown";
    id = EnqueueLocked(std::move(request));
  }
  work_available_.NotifyOne();
  refresh_wanted_.NotifyOne();
  return id;
}

void ServingLoop::SubmitBehindRefreshForTesting(std::vector<ServeRequest> requests) {
  {
    MutexLock lock(mutex_);
    CA_CHECK(accepting_) << "Submit after Shutdown";
    for (ServeRequest& request : requests) {
      CA_CHECK(!request.input.empty()) << "empty turn input";
      EnqueueLocked(std::move(request));
    }
    // A pass in flight may have taken its snapshot before these jobs were
    // queued; the pass after it cannot have.
    admit_after_pass_ = refresh_passes_done_ + 2;
  }
  work_available_.NotifyAll();
  refresh_wanted_.NotifyOne();
}

std::optional<JobId> ServingLoop::TrySubmit(ServeRequest request) {
  if (request.input.empty()) {
    rejected_counter_->Add();
    return std::nullopt;
  }
  JobId id;
  {
    MutexLock lock(mutex_);
    const bool over_depth =
        options_.max_queue_depth > 0 && queue_.size() >= options_.max_queue_depth;
    if (!accepting_ || over_depth) {
      rejected_counter_->Add();
      CA_TRACE_INSTANT("serve.shed", "session", request.session, "depth",
                       queue_.size());
      return std::nullopt;
    }
    id = EnqueueLocked(std::move(request));
  }
  work_available_.NotifyOne();
  refresh_wanted_.NotifyOne();
  return id;
}

void ServingLoop::WorkerLoop(std::size_t worker_index) {
  Tracer::Get().SetThreadName("serve-worker-" + std::to_string(worker_index));
  const auto runnable = [this](const Job& j) {
    mutex_.AssertHeld();
    return in_flight_sessions_.count(j.session) == 0;
  };
  for (;;) {
    std::optional<Job> job;
    ServeRequest request;
    {
      MutexLock lock(mutex_);
      work_available_.Wait(mutex_, [&] {
        mutex_.AssertHeld();
        if (stopping_ && queue_.empty()) {
          return true;
        }
        if (refresh_passes_done_ < admit_after_pass_) {
          return false;  // held behind a refresh pass (test hook)
        }
        job = queue_.PopFirstRunnable(runnable);
        return job.has_value();
      });
      if (!job.has_value()) {
        return;  // stopping, and every accepted job has been taken
      }
      // Marking the session in flight before the lock drops makes its next
      // queued job non-runnable for every worker.
      in_flight_sessions_.insert(job->session);
      inflight_gauge_->Set(static_cast<double>(in_flight_sessions_.size()));
      auto payload_it = payloads_.find(job->id);
      CA_CHECK(payload_it != payloads_.end());
      request = std::move(payload_it->second);
      payloads_.erase(payload_it);
    }
    ServeJob(*job, std::move(request));
  }
}

void ServingLoop::ServeJob(const Job& job, ServeRequest request) {
  ServeReply reply;
  reply.job = job.id;
  reply.session = job.session;
  reply.turn_index = job.turn_index;
  const std::uint64_t start_ns = TraceNowNs();
  {
    CA_TRACE_SPAN("serve.turn", "job", job.id, "session", job.session, "turn",
                  job.turn_index);
    Result<TurnResult> result =
        engine_->Converse(job.session, request.input, request.max_reply_tokens);
    if (result.ok()) {
      reply.turn = std::move(*result);
    } else {
      reply.status = result.status();
      failed_counter_->Add();
    }
  }
  turn_seconds_hist_->Observe(static_cast<double>(TraceNowNs() - start_ns) * 1e-9);
  completed_counter_->Add();
  {
    MutexLock lock(mutex_);
    in_flight_sessions_.erase(job.session);
    inflight_gauge_->Set(static_cast<double>(in_flight_sessions_.size()));
    replies_.push_back(std::move(reply));
    ++completed_;
  }
  // Freeing the session may make its next queued turn runnable on any
  // worker; the last completion also releases WaitIdle/Shutdown waiters.
  work_available_.NotifyAll();
  idle_.NotifyAll();
}

void ServingLoop::RefreshLoop() {
  Tracer::Get().SetThreadName("serve-refresh");
  for (;;) {
    std::vector<SessionId> window;
    {
      MutexLock lock(mutex_);
      // Sleep while there is nothing to publish: no queued job and no
      // worker held behind a pass.
      refresh_wanted_.Wait(mutex_, [this] {
        mutex_.AssertHeld();
        return refresh_stop_ || !queue_.empty() || refresh_passes_done_ < admit_after_pass_;
      });
      if (refresh_stop_) {
        return;
      }
      window = queue_.WindowSnapshot(kHintWindow);
    }
    if (!window.empty()) {
      CA_TRACE_SPAN("serve.refresh", "window", window.size());
      // Republish the look-ahead window so the store's scheduler-aware
      // eviction sees the live queue, then drive §3.3.1 promotion over the
      // same window. The engine mutex is free during the workers'
      // prefill/decode, so this I/O overlaps their compute.
      engine_->SetQueueHint(window);
      if (options_.prefetch) {
        engine_->PrefetchSessions(window);
      }
    }
    bool release;
    {
      MutexLock lock(mutex_);
      release = ++refresh_passes_done_ == admit_after_pass_;
    }
    if (release) {
      work_available_.NotifyAll();
    }
    std::this_thread::sleep_for(kRefreshInterval);
  }
}

void ServingLoop::WaitIdle() {
  MutexLock lock(mutex_);
  idle_.Wait(mutex_, [this] {
    mutex_.AssertHeld();
    return completed_ == accepted_;
  });
}

void ServingLoop::EndSession(SessionId session) {
  {
    MutexLock lock(mutex_);
    turns_submitted_.erase(session);
  }
  engine_->EndSession(session);
}

void ServingLoop::Shutdown() {
  if (joined_) {
    return;
  }
  {
    MutexLock lock(mutex_);
    accepting_ = false;
    stopping_ = true;
  }
  work_available_.NotifyAll();
  {
    MutexLock lock(mutex_);
    idle_.Wait(mutex_, [this] {
      mutex_.AssertHeld();
      return completed_ == accepted_;
    });
  }
  // Every job is done and the queue is empty: wake any worker still parked
  // so it observes (stopping_ && empty) and exits.
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  {
    MutexLock lock(mutex_);
    refresh_stop_ = true;
  }
  refresh_wanted_.NotifyOne();
  refresh_thread_.join();
  engine_->Flush();
  joined_ = true;
}

std::vector<ServeReply> ServingLoop::TakeReplies() {
  MutexLock lock(mutex_);
  std::vector<ServeReply> out = std::move(replies_);
  replies_.clear();
  std::sort(out.begin(), out.end(),
            [](const ServeReply& a, const ServeReply& b) { return a.job < b.job; });
  return out;
}

std::size_t ServingLoop::queue_depth() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

bool ServingLoop::accepting() const {
  MutexLock lock(mutex_);
  return accepting_;
}

}  // namespace ca
