// Runtime lock-order (deadlock) detection for ca::Mutex (DESIGN.md §13).
//
// The detector maintains a process-global directed graph over live Mutex
// instances: an edge A→B means "some thread acquired B while holding A".
// Before an acquisition blocks, the acquiring thread adds the edges from
// every lock it currently holds to the lock it wants; if a new edge would
// close a cycle, the process aborts with a report naming every edge on the
// cycle and the source locations that created them. This is a lock-*order*
// checker, not a deadlock *finder*: it fires on the second inconsistent
// ordering even when the interleaving happened not to deadlock, which is
// exactly what makes ABBA bugs reproducible in tests.
//
// Internals deliberately use raw std::mutex (the detector cannot instrument
// itself) and a leaky singleton (mutexes with static storage duration may
// be locked during program teardown).
#include "src/common/mutex.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

namespace ca {

namespace internal {

std::atomic<bool> g_deadlock_detect{false};
std::atomic<bool> g_deadlock_seen{false};

namespace {

struct LockSite {
  const char* file = "?";
  unsigned line = 0;
};

struct HeldLock {
  const Mutex* mu = nullptr;
  LockSite site;
};

// Held-lock stack of the calling thread (outermost first). Trivially
// destructible contents; empty at thread exit in any correct program.
thread_local std::vector<HeldLock> t_held;  // NOLINT(cert-err58-cpp)

struct Edge {
  const Mutex* to = nullptr;
  LockSite holder_site;   // where `from` was acquired by the offending thread
  LockSite acquire_site;  // where `to` was acquired while holding `from`
};

struct LockOrderGraph {
  std::mutex mu;  // raw: the detector cannot instrument itself
  std::unordered_map<const Mutex*, std::vector<Edge>> edges;

  static LockOrderGraph& Get() {
    static LockOrderGraph* graph = new LockOrderGraph();  // NOLINT(naked-new): leaky singleton
    return *graph;
  }

  // True if a path to→…→target exists. Fills `path` with the edges walked.
  bool PathExists(const Mutex* from, const Mutex* target, std::vector<const Edge*>& path) {
    const auto it = edges.find(from);
    if (it == edges.end()) {
      return false;
    }
    for (const Edge& e : it->second) {
      path.push_back(&e);
      if (e.to == target || PathExists(e.to, target, path)) {
        return true;
      }
      path.pop_back();
    }
    return false;
  }
};

std::string Describe(const Mutex* mu) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%p", static_cast<const void*>(mu));
  std::string out = buf;
  if (mu->name() != nullptr) {
    out += " \"";
    out += mu->name();
    out += '"';
  }
  return out;
}

std::string Describe(const LockSite& site) {
  return std::string(site.file) + ":" + std::to_string(site.line);
}

[[noreturn]] void ReportCycle(const Mutex* held, const LockSite& held_site, const Mutex* acquiring,
                              const LockSite& acquire_site, const std::vector<const Edge*>& path) {
  std::string report =
      "CA deadlock detector: lock-order cycle detected (would deadlock under "
      "an adversarial interleaving)\n";
  report += "  acquiring " + Describe(acquiring) + " at " + Describe(acquire_site) +
            " while holding " + Describe(held) + " (locked at " + Describe(held_site) +
            ") — i.e. " + Describe(held) + " -> " + Describe(acquiring) + "\n";
  report += "  but the reverse order is already on record:\n";
  const Mutex* from = acquiring;
  for (const Edge* e : path) {
    report += "    " + Describe(from) + " (locked at " + Describe(e->holder_site) + ") -> " +
              Describe(e->to) + " (locked at " + Describe(e->acquire_site) + ")\n";
    from = e->to;
  }
  report +=
      "  fix: acquire these mutexes in one canonical order everywhere "
      "(see the lock-order list in src/common/mutex.h)\n";
  std::fputs(report.c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void DeadlockOnAcquire(const Mutex* mu, const std::source_location& loc) {
  const LockSite site{loc.file_name(), loc.line()};
  // Re-acquiring a lock this thread already holds is a guaranteed
  // self-deadlock on a non-recursive mutex: report it as a 1-cycle.
  for (const HeldLock& held : t_held) {
    if (held.mu == mu) {
      const Edge self{mu, held.site, site};
      ReportCycle(mu, held.site, mu, site, {&self});
    }
  }
  if (!t_held.empty()) {
    LockOrderGraph& graph = LockOrderGraph::Get();
    std::lock_guard<std::mutex> g(graph.mu);
    for (const HeldLock& held : t_held) {
      std::vector<Edge>& out = graph.edges[held.mu];
      bool known = false;
      for (const Edge& e : out) {
        if (e.to == mu) {
          known = true;
          break;
        }
      }
      if (known) {
        continue;
      }
      // New edge held.mu → mu: a path mu →…→ held.mu would now be a cycle.
      std::vector<const Edge*> path;
      if (graph.PathExists(mu, held.mu, path)) {
        ReportCycle(held.mu, held.site, mu, site, path);
      }
      out.push_back(Edge{mu, held.site, site});
    }
  }
  t_held.push_back(HeldLock{mu, site});
}

void DeadlockOnRelease(const Mutex* mu) {
  // Innermost-first scan: locks are overwhelmingly released LIFO.
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mu == mu) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

void DeadlockOnDestroy(const Mutex* mu) {
  LockOrderGraph& graph = LockOrderGraph::Get();
  std::lock_guard<std::mutex> g(graph.mu);
  graph.edges.erase(mu);
  for (auto& [from, out] : graph.edges) {
    for (std::size_t i = 0; i < out.size();) {
      if (out[i].to == mu) {
        out[i] = out.back();
        out.pop_back();
      } else {
        ++i;
      }
    }
  }
}

bool LockOrderEdgeForTesting(const Mutex* from, const Mutex* to) {
  LockOrderGraph& graph = LockOrderGraph::Get();
  std::lock_guard<std::mutex> g(graph.mu);
  const auto it = graph.edges.find(from);
  if (it == graph.edges.end()) {
    return false;
  }
  for (const Edge& e : it->second) {
    if (e.to == to) {
      return true;
    }
  }
  return false;
}

namespace {

// CA_DEADLOCK_DETECT=1 in the environment (or the CA_DEADLOCK_DETECT cmake
// option, which defines CA_DEADLOCK_DETECT_DEFAULT_ON) turns detection on
// from process start, so whole test suites run under it without code
// changes: CA_DEADLOCK_DETECT=1 ctest ...
const bool g_env_init = [] {
#if defined(CA_DEADLOCK_DETECT_DEFAULT_ON)
  SetDeadlockDetectEnabled(true);
#else
  const char* v = std::getenv("CA_DEADLOCK_DETECT");  // NOLINT(concurrency-mt-unsafe)
  if (v != nullptr && v[0] == '1') {
    SetDeadlockDetectEnabled(true);
  }
#endif
  return true;
}();

}  // namespace

}  // namespace internal

void SetDeadlockDetectEnabled(bool on) {
  if (on) {
    internal::g_deadlock_seen.store(true, std::memory_order_relaxed);
  }
  internal::g_deadlock_detect.store(on, std::memory_order_relaxed);
}

bool DeadlockDetectEnabled() {
  return internal::g_deadlock_detect.load(std::memory_order_relaxed);
}

}  // namespace ca
