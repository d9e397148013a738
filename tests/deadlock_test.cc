// Runtime lock-order (deadlock) detector tests (DESIGN.md §13):
//
//   * an ABBA acquisition pattern reliably aborts with the cycle report —
//     even single-threaded, because the detector checks lock *order*, not
//     an actual hang, which is what makes the bug reproducible in a test;
//   * consistent nesting (the canonical order), lock reuse across threads,
//     and mutex destruction/re-creation raise no report;
//   * with detection off, an acquisition records no edge in the graph;
//   * the 4-worker serving soak — workers, async save stream, refresh
//     thread, store tiers, tracer and metrics registry all live — runs
//     detection-enabled without a false positive, pinning down that the
//     canonical order in src/common/mutex.h is the order the system uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/cached_attention.h"
#include "src/model/transformer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/serving_loop.h"

namespace ca {
namespace {

// Every test that enables detection restores the disabled state so later
// tests in this binary measure/behave as configured.
class ScopedDeadlockDetect {
 public:
  ScopedDeadlockDetect() { SetDeadlockDetectEnabled(true); }
  ~ScopedDeadlockDetect() { SetDeadlockDetectEnabled(false); }
};

TEST(DeadlockDetectDeathTest, AbbaCycleAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // No acquisition in this sequence ever blocks (all locks are free when
  // taken), so the test is deterministic: the report fires on the *order*
  // inversion itself, on the final a.Lock below.
  EXPECT_DEATH(
      {
        SetDeadlockDetectEnabled(true);
        Mutex a("test.A");
        Mutex b("test.B");
        {
          MutexLock hold_a(a);
          MutexLock then_b(b);
        }
        {
          MutexLock hold_b(b);
          MutexLock then_a(a);  // B→A closes the A→B cycle
        }
      },
      "lock-order cycle");
}

TEST(DeadlockDetectDeathTest, ThreeLockCycleAbortsWithBothSites) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectEnabled(true);
        Mutex a("test.A");
        Mutex b("test.B");
        Mutex c("test.C");
        {
          MutexLock la(a);
          MutexLock lb(b);
        }
        {
          MutexLock lb(b);
          MutexLock lc(c);
        }
        {
          MutexLock lc(c);
          MutexLock la(a);  // C→A closes A→B→C
        }
      },
      "deadlock detector");
}

TEST(DeadlockDetectTest, ConsistentOrderIsClean) {
  ScopedDeadlockDetect detect;
  Mutex outer("test.outer");
  Mutex inner("test.inner");
  // Same nesting repeated, including from a second thread: no cycle, no
  // report (an abort here fails the test by killing the process).
  for (int i = 0; i < 100; ++i) {
    MutexLock lo(outer);
    MutexLock li(inner);
  }
  std::thread other([&] {
    for (int i = 0; i < 100; ++i) {
      MutexLock lo(outer);
      MutexLock li(inner);
    }
  });
  other.join();
}

TEST(DeadlockDetectTest, DestroyedMutexLeavesNoStaleEdges) {
  ScopedDeadlockDetect detect;
  Mutex anchor("test.anchor");
  // A→B recorded, then B destroyed. A fresh mutex (plausibly at the same
  // address) locked in the reverse direction must NOT inherit B's edges.
  auto first = std::make_unique<Mutex>("test.first");
  {
    MutexLock la(anchor);
    MutexLock lb(*first);
  }
  first.reset();
  Mutex second("test.second");
  {
    MutexLock lb(second);
    MutexLock la(anchor);  // would be a cycle iff `second` aliased `first`'s node
  }
}

TEST(DeadlockDetectTest, DisabledPathRecordsNothing) {
  const bool was_enabled = DeadlockDetectEnabled();
  Mutex a("test.A2");
  Mutex b("test.B2");
  SetDeadlockDetectEnabled(false);
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_FALSE(internal::LockOrderEdgeForTesting(&a, &b)) << "disabled detector recorded A->B";
  // The same nesting with detection on records the edge, so the check above
  // is not vacuous. No inversion is ever taken: it would also trip TSan's
  // own lock-order detector.
  SetDeadlockDetectEnabled(true);
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  SetDeadlockDetectEnabled(was_enabled);
  EXPECT_TRUE(internal::LockOrderEdgeForTesting(&a, &b)) << "enabled detector missed A->B";
}

// The no-false-positive soak: the full concurrent runtime under detection.
// Workers hold ServingLoop::mutex_ → engine mutex_ → storage mutex_ /
// registry mu_ / tracer buffer locks; the refresh thread prefetches; the
// async save stream writes back; tiny DRAM forces demote/promote traffic
// through both tier storages. Any lock-order inconsistency anywhere in that
// stack aborts the process and fails this test.
TEST(DeadlockDetectTest, ServeSoakFourWorkersNoFalsePositive) {
  ScopedDeadlockDetect detect;
  Tracer::Get().Enable();  // exercise tracer buffer locks under detection
  Transformer model(ModelConfig::Mini(), 51);

  EngineOptions eopts;
  eopts.store.dram_capacity = KiB(512);  // tight: forces demotions to disk
  eopts.store.disk_capacity = MiB(256);
  eopts.store.block_bytes = KiB(64);
  eopts.store.dram_buffer = KiB(128);
  eopts.store.audit = true;
  eopts.async_save = true;
  CachedAttentionEngine engine(&model, eopts);

  ServerOptions sopts;
  sopts.num_workers = 4;
  sopts.prefetch = true;
  {
    ServingLoop loop(&engine, sopts);
    const std::size_t vocab = model.config().vocab_size;
    Rng rng(7);
    for (std::uint32_t turn = 0; turn < 3; ++turn) {
      for (SessionId s = 0; s < 12; ++s) {
        ServeRequest req;
        req.session = s;
        req.input.resize(5 + (s + turn) % 4);
        for (auto& t : req.input) {
          t = static_cast<TokenId>(rng.NextBounded(vocab));
        }
        req.max_reply_tokens = 3;
        loop.Submit(std::move(req));
      }
    }
    loop.WaitIdle();
    engine.PublishMetrics();  // engine mutex_ → registry mu_ under detection
    const auto replies = loop.TakeReplies();
    EXPECT_EQ(replies.size(), 36U);
    for (const auto& r : replies) {
      EXPECT_TRUE(r.status.ok()) << r.status;
    }
  }
  (void)MetricsRegistry::Global().Snapshot();  // registry mu_ → histogram mu_
  (void)Tracer::Get().ExportChromeJson();      // tracer mu_ → buffer mu
  Tracer::Get().Disable();
  Tracer::Get().Clear();
}

}  // namespace
}  // namespace ca
