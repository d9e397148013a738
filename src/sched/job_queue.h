// FIFO job queue with look-ahead snapshots.
//
// The queue is the source of the scheduler hints that drive AttentionStore's
// scheduler-aware fetching and eviction: "the job scheduler maintains a job
// queue, thus having the full knowledge of waiting jobs" (§3.3.1). A serving
// loop's workers pop from it one job at a time (PopFirstRunnable), and its
// refresh thread turns WindowSnapshot into hints with BuildHints
// (src/store/prefetcher.h).
#ifndef CA_SCHED_JOB_QUEUE_H_
#define CA_SCHED_JOB_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sched/job.h"
#include "src/store/types.h"

namespace ca {

class JobQueue {
 public:
  void Push(Job job);

  // Pops the head job (FIFO order).
  std::optional<Job> Pop();

  // Pops the first job (scanning from the head) for which `runnable` returns
  // true; the relative order of the remaining jobs is preserved. Because the
  // scan starts at the head, the popped job is always the *earliest* waiting
  // job of its session — which is what lets a multi-worker serving loop skip
  // sessions that are already being served without ever reordering two jobs
  // of the same session (per-session FIFO).
  std::optional<Job> PopFirstRunnable(const std::function<bool(const Job&)>& runnable);

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }

  // Sessions of the first `window_len` waiting jobs, head first — the
  // look-ahead window a serving loop republishes into the engine
  // (CachedAttentionEngine::SetQueueHint) and feeds to the §3.3.1
  // prefetcher.
  std::vector<SessionId> WindowSnapshot(std::size_t window_len) const;

 private:
  std::deque<Job> jobs_;
  // Enqueue timestamps parallel to jobs_ (Job itself stays a plain value
  // type); Pop() observes head wait time into the registry histogram.
  std::deque<std::uint64_t> enqueue_ns_;

  // Registry handles (DESIGN.md §11), interned once per queue.
  Gauge* depth_gauge_ = &MetricsRegistry::Global().GetGauge("sched.queue_depth");
  HistogramMetric* wait_hist_ =
      &MetricsRegistry::Global().GetHistogram("sched.queue_wait_seconds");
};

}  // namespace ca

#endif  // CA_SCHED_JOB_QUEUE_H_
