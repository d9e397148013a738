// Annotated wrappers over the std synchronization primitives.
//
// Clang's thread-safety analysis only tracks lock operations whose types
// carry capability attributes; libstdc++'s std::mutex does not. These thin
// wrappers add the attributes (zero overhead: every method is an inline
// forward) so CA_GUARDED_BY / CA_REQUIRES contracts are machine-checked on
// Clang builds. See src/common/thread_annotations.h.
//
// Runtime lock-order (deadlock) detection (DESIGN.md §13): every Lock/Unlock
// additionally carries a branch-gated hook into a process-global lock-order
// graph. When detection is enabled (SetDeadlockDetectEnabled, the
// CA_DEADLOCK_DETECT cmake option, or the CA_DEADLOCK_DETECT=1 environment
// variable) each acquisition records "every lock currently held by this
// thread → the lock being acquired" edges, keyed by mutex instance and
// labeled with the acquiring call sites (std::source_location, so call sites
// need no changes). A cycle — the classic A→B on one thread, B→A on another
// — aborts immediately with a readable report naming both acquisition sites,
// *before* blocking, so an actual deadlock is reported instead of hung.
// When detection is disabled (the default) the cost per Lock is one relaxed
// atomic load and an untaken branch (benchmarked: BM_MutexLockDetectDisabled).
//
// Canonical lock order across the system (outermost first; acquiring
// leftward while holding rightward is a cycle waiting for its second thread):
//
//   ServingLoop::mutex_  →  CachedAttentionEngine::mutex_
//     →  PooledBlockStorage::mutex_ / FaultInjectingBlockStorage::mutex_
//   CachedAttentionEngine::mutex_  →  MetricsRegistry::mu_ (PublishMetrics)
//   Tracer::mu_  →  Tracer::ThreadBuffer::mu (registration/export)
//   any module lock  →  HistogramMetric::mu_ / trace ThreadBuffer::mu (leaves)
//
// ThreadPool::mutex_ is never held while a task body runs, so task bodies
// may take any lock above. New nesting must point down this list; the
// detector enforces it at runtime.
#ifndef CA_COMMON_MUTEX_H_
#define CA_COMMON_MUTEX_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <source_location>
#include <utility>

#include "src/common/thread_annotations.h"

// Thread-sanitizer detection (gcc defines __SANITIZE_THREAD__, clang goes
// through __has_feature). TSan builds over libstdc++ announce each Mutex's
// destruction (see ~Mutex).
#if defined(__SANITIZE_THREAD__)
#define CA_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CA_TSAN_BUILD 1
#endif
#endif
#if defined(CA_TSAN_BUILD) && defined(__GLIBCXX__)
#include <pthread.h>
#define CA_MUTEX_ANNOUNCE_DESTROY 1
#endif

namespace ca {

class Mutex;

namespace internal {

// Branch gate for the lock-order detector. `g_deadlock_detect` is the live
// on/off switch read on every Lock; `g_deadlock_seen` latches once detection
// has ever been on, keeping the release/destroy bookkeeping active so
// held-lock stacks and the graph never go stale across a disable.
extern std::atomic<bool> g_deadlock_detect;
extern std::atomic<bool> g_deadlock_seen;

// Records held→acquiring edges and aborts with a cycle report on inversion.
// Called before the underlying lock blocks.
void DeadlockOnAcquire(const Mutex* mu, const std::source_location& loc);
// Pops `mu` from the calling thread's held-lock stack (tolerates absence:
// detection may have been enabled mid-hold).
void DeadlockOnRelease(const Mutex* mu);
// Removes `mu`'s node and edges so a later allocation at the same address
// cannot inherit them.
void DeadlockOnDestroy(const Mutex* mu);
// True when the lock-order graph holds the edge `from` → `to`. Tests only.
bool LockOrderEdgeForTesting(const Mutex* from, const Mutex* to);

}  // namespace internal

// Runtime switch for lock-order detection. Enabling is sticky in one sense:
// release-side bookkeeping stays on for the process lifetime so the detector
// can be re-enabled without stale state. Thread-safe.
void SetDeadlockDetectEnabled(bool on);
bool DeadlockDetectEnabled();

// Annotated std::mutex.
class CA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  // Optional static name shown in lock-order cycle reports
  // ("CachedAttentionEngine::mutex_"). `name` must outlive the mutex.
  explicit Mutex(const char* name) : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  ~Mutex() {
    if (internal::g_deadlock_seen.load(std::memory_order_relaxed)) {
      internal::DeadlockOnDestroy(this);
    }
#ifdef CA_MUTEX_ANNOUNCE_DESTROY
    // libstdc++'s std::mutex has a trivial destructor, so TSan never sees it
    // die and blames the next mutex at the same address for this one's lock
    // order. Destroying the handle announces the death.
    pthread_mutex_destroy(mu_.native_handle());
#endif
  }

  void Lock(const std::source_location& loc = std::source_location::current()) CA_ACQUIRE() {
    if (internal::g_deadlock_detect.load(std::memory_order_relaxed)) [[unlikely]] {
      internal::DeadlockOnAcquire(this, loc);
    }
    mu_.lock();
  }
  void Unlock() CA_RELEASE() {
    mu_.unlock();
    if (internal::g_deadlock_seen.load(std::memory_order_relaxed)) [[unlikely]] {
      internal::DeadlockOnRelease(this);
    }
  }

  // Tells the analysis (not the runtime) that this mutex is held. Use inside
  // lambdas that are only ever invoked with the lock held, where the
  // analysis cannot see the acquisition across the call boundary.
  void AssertHeld() const CA_ASSERT_CAPABILITY(this) {}

  const char* name() const { return name_; }

 private:
  friend class CondVar;
  const char* const name_ = nullptr;
  std::mutex mu_;
};

// RAII lock for ca::Mutex (the annotated std::lock_guard). The implicit
// std::source_location parameter labels this acquisition in lock-order
// cycle reports.
class CA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu,
                     const std::source_location& loc = std::source_location::current())
      CA_ACQUIRE(mu)
      : mu_(&mu) {
    mu_->Lock(loc);
  }
  ~MutexLock() CA_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable usable with ca::Mutex. Wait() must be called with the
// mutex held (enforced by the analysis); it atomically releases the mutex
// while blocked and re-holds it on return, exactly like
// std::condition_variable::wait. The lock-order detector keeps the mutex on
// the waiter's held stack across the wait — correct for ordering purposes,
// since a blocked waiter acquires nothing and holds the mutex again the
// moment Wait returns.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) CA_REQUIRES(mu) {
    // Adopt the already-held mutex into a unique_lock for the wait, then
    // release the unique_lock's ownership so the caller's (annotated)
    // holding of `mu` stays accurate.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ca

#endif  // CA_COMMON_MUTEX_H_
