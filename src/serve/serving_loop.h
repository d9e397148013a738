// Multi-threaded serving runtime (§4.1): the layer that turns the engine +
// scheduler building blocks into a concurrent serving system.
//
//   JobQueue  ──►  N workers, one job each  ──►  CachedAttentionEngine
//
// A ServingLoop owns one FIFO JobQueue fed by Submit/TrySubmit. Each of N
// worker threads takes the earliest runnable job from the queue, serves its
// turn end to end through CachedAttentionEngine::Converse, and comes back
// for the next. Per-session ordering is enforced globally: a session with a
// turn in flight is skipped by every worker's head-first scan, so two
// queued jobs of the same session can never run concurrently or out of
// submission order — which is exactly the property that makes an N-worker
// run's replies bitwise identical to a 1-worker run.
//
// A background refresh thread republishes the queue's look-ahead window
// into the engine (SetQueueHint, feeding the §3.3.2 scheduler-aware
// eviction), drives PrefetchSessions over the same window, then sleeps a
// fixed interval before its next pass; while the queue is empty it waits
// for the next job instead. §3.3.1 disk→DRAM promotion thus
// overlaps the workers' compute (the engine mutex is free during
// prefill/decode) without spinning on the engine mutex.
//
// Shutdown protocol (graceful drain): close intake, serve every accepted
// job to completion (turns in flight finish, then the queue drains), flush
// the engine's async write stream, join all threads. Accepted work is never
// dropped; load shedding happens only at intake (TrySubmit).
#ifndef CA_SERVE_SERVING_LOOP_H_
#define CA_SERVE_SERVING_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/core/cached_attention.h"
#include "src/obs/metrics.h"
#include "src/sched/job.h"
#include "src/sched/job_queue.h"

namespace ca {

// One conversation turn submitted to the loop.
struct ServeRequest {
  SessionId session = kInvalidSession;
  std::vector<TokenId> input;          // user tokens this turn (non-empty)
  std::size_t max_reply_tokens = 16;   // greedy-decode budget
};

// Outcome of one served turn.
struct ServeReply {
  JobId job = 0;
  SessionId session = kInvalidSession;
  std::uint32_t turn_index = 0;  // 1-based per-session submission index
                                 // (back to 1 after EndSession)
  Status status = Status::Ok();  // non-OK: the engine rejected the turn
  TurnResult turn;               // reply tokens + per-turn accounting
};

struct ServerOptions {
  std::size_t num_workers = 4;
  // TrySubmit sheds load once this many jobs are waiting (0 = never shed;
  // Submit is always unbounded — the queue grows under overload).
  std::size_t max_queue_depth = 0;
  // Drive CachedAttentionEngine::PrefetchSessions off the live queue
  // snapshot (§3.3.1 look-ahead promotion overlapping serving).
  bool prefetch = true;
};

class ServingLoop {
 public:
  // `engine` must outlive the loop. Worker and refresh threads start
  // immediately.
  ServingLoop(CachedAttentionEngine* engine, ServerOptions options);
  ~ServingLoop();  // implies Shutdown()

  ServingLoop(const ServingLoop&) = delete;
  ServingLoop& operator=(const ServingLoop&) = delete;

  const ServerOptions& options() const { return options_; }

  // Enqueues one turn; always accepted while intake is open (the queue
  // grows under overload — an overloaded server sheds via TrySubmit, it
  // never aborts). Submission order per session is service order.
  // CA_CHECKs on empty input or Submit-after-Shutdown (programmer errors).
  JobId Submit(ServeRequest request) CA_EXCLUDES(mutex_);

  // Backpressure intake: returns nullopt (and counts serve.jobs_rejected)
  // when intake is closed, the input is empty, or max_queue_depth is set
  // and reached.
  std::optional<JobId> TrySubmit(ServeRequest request) CA_EXCLUDES(mutex_);

  // Blocks until every accepted job has been served. Intake stays open.
  void WaitIdle() CA_EXCLUDES(mutex_);

  // Ends a session in this loop and its engine: drops the loop's turn
  // counter and the engine's session state, so the next turn for the same
  // id starts a fresh session (turn_index 1). Per-session quiescent API
  // like CachedAttentionEngine::EndSession: must not race with a queued or
  // in-flight turn of the same session. Also valid after Shutdown.
  void EndSession(SessionId session) CA_EXCLUDES(mutex_);

  // Graceful drain: closes intake, serves every accepted job, flushes the
  // engine's async saves, joins all threads. Idempotent; called by the
  // destructor. Not thread-safe against itself.
  void Shutdown() CA_EXCLUDES(mutex_);

  // Test hook for deterministic prefetch tests: enqueues `requests` in one
  // step and holds every worker off the queue until the refresh thread
  // has completed a pass whose window snapshot saw them all. That pass's
  // hint publication and promotions then run ahead of the workers however
  // the threads are scheduled.
  void SubmitBehindRefreshForTesting(std::vector<ServeRequest> requests) CA_EXCLUDES(mutex_);

  // Completed turns in JobId (= submission) order; clears the internal
  // buffer. Call at a quiescent point (after WaitIdle or Shutdown) to see
  // every accepted job exactly once.
  std::vector<ServeReply> TakeReplies() CA_EXCLUDES(mutex_);

  std::size_t queue_depth() const CA_EXCLUDES(mutex_);
  bool accepting() const CA_EXCLUDES(mutex_);

 private:
  JobId EnqueueLocked(ServeRequest&& request) CA_REQUIRES(mutex_);
  void WorkerLoop(std::size_t worker_index) CA_EXCLUDES(mutex_);
  void RefreshLoop() CA_EXCLUDES(mutex_);
  // Serves one popped job end to end and records its reply.
  void ServeJob(const Job& job, ServeRequest request) CA_EXCLUDES(mutex_);

  CachedAttentionEngine* engine_;   // unguarded: set in ctor, immutable after
  ServerOptions options_;          // unguarded: set in ctor, immutable after

  mutable Mutex mutex_{"serve.ServingLoop"};
  CondVar work_available_;  // workers: new job / session freed / stopping
  CondVar idle_;            // WaitIdle/Shutdown: completed_ caught up
  CondVar refresh_wanted_;  // refresh thread: job queued / pass awaited / stop
  JobQueue queue_ CA_GUARDED_BY(mutex_);
  // Input payloads keyed by job id (Job itself stays the sched-layer value
  // type with token *counts*; the real tokens ride here).
  std::unordered_map<JobId, ServeRequest> payloads_ CA_GUARDED_BY(mutex_);
  // Sessions with a turn currently being served by some worker.
  std::unordered_set<SessionId> in_flight_sessions_ CA_GUARDED_BY(mutex_);
  std::unordered_map<SessionId, std::uint32_t> turns_submitted_ CA_GUARDED_BY(mutex_);
  std::vector<ServeReply> replies_ CA_GUARDED_BY(mutex_);
  JobId next_job_id_ CA_GUARDED_BY(mutex_) = 1;
  std::uint64_t accepted_ CA_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ CA_GUARDED_BY(mutex_) = 0;
  bool accepting_ CA_GUARDED_BY(mutex_) = true;
  bool stopping_ CA_GUARDED_BY(mutex_) = false;
  // Refresh passes completed, and the pass workers wait for before taking
  // a job (SubmitBehindRefreshForTesting; 0: no hold).
  std::uint64_t refresh_passes_done_ CA_GUARDED_BY(mutex_) = 0;
  std::uint64_t admit_after_pass_ CA_GUARDED_BY(mutex_) = 0;

  bool refresh_stop_ CA_GUARDED_BY(mutex_) = false;
  bool joined_ = false;  // unguarded: Shutdown idempotence, main thread only
  std::vector<std::thread> workers_;  // unguarded: written in ctor, joined in Shutdown
  std::thread refresh_thread_;        // unguarded: written in ctor, joined in Shutdown

  // Cached registry handles (DESIGN.md §11); the handles are set in the
  // ctor and immutable after, and the metrics they point at lock themselves.
  Counter* accepted_counter_;          // unguarded: set in ctor, immutable after
  Counter* rejected_counter_;          // unguarded: set in ctor, immutable after
  Counter* completed_counter_;         // unguarded: set in ctor, immutable after
  Counter* failed_counter_;            // unguarded: set in ctor, immutable after
  HistogramMetric* turn_seconds_hist_; // unguarded: set in ctor, immutable after
  Gauge* inflight_gauge_;              // unguarded: set in ctor, immutable after
};

}  // namespace ca

#endif  // CA_SERVE_SERVING_LOOP_H_
