#include "src/sched/job_queue.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace ca {

void JobQueue::Push(Job job) {
  CA_TRACE_INSTANT("sched.enqueue", "job", job.id, "session", job.session);
  jobs_.push_back(job);
  enqueue_ns_.push_back(TraceNowNs());
  depth_gauge_->Set(static_cast<double>(jobs_.size()));
}

std::optional<Job> JobQueue::Pop() {
  if (jobs_.empty()) {
    return std::nullopt;
  }
  Job job = jobs_.front();
  jobs_.pop_front();
  const std::uint64_t queued_at = enqueue_ns_.front();
  enqueue_ns_.pop_front();
  const double waited = static_cast<double>(TraceNowNs() - queued_at) * 1e-9;
  wait_hist_->Observe(waited);
  depth_gauge_->Set(static_cast<double>(jobs_.size()));
  CA_TRACE_INSTANT("sched.dequeue", "job", job.id, "session", job.session);
  return job;
}

std::optional<Job> JobQueue::PopFirstRunnable(
    const std::function<bool(const Job&)>& runnable) {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (!runnable(jobs_[i])) {
      continue;
    }
    Job job = jobs_[i];
    jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(i));
    const std::uint64_t queued_at = enqueue_ns_[i];
    enqueue_ns_.erase(enqueue_ns_.begin() + static_cast<std::ptrdiff_t>(i));
    const double waited = static_cast<double>(TraceNowNs() - queued_at) * 1e-9;
    wait_hist_->Observe(waited);
    depth_gauge_->Set(static_cast<double>(jobs_.size()));
    CA_TRACE_INSTANT("sched.dequeue", "job", job.id, "session", job.session);
    return job;
  }
  return std::nullopt;
}

std::vector<SessionId> JobQueue::WindowSnapshot(std::size_t window_len) const {
  std::vector<SessionId> out;
  const std::size_t n = std::min(window_len, jobs_.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(jobs_[i].session);
  }
  return out;
}

}  // namespace ca
