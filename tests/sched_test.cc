// Scheduler tests: the FIFO job queue, its head-first runnable pop (the
// per-session FIFO a serving loop relies on) and its look-ahead window.
// Hints built from that window are BuildHints' (tests/prefetcher_test.cc).
#include <gtest/gtest.h>

#include "src/sched/job.h"
#include "src/sched/job_queue.h"

namespace ca {
namespace {

Job MakeJob(JobId id, SessionId session) {
  Job j;
  j.id = id;
  j.session = session;
  j.new_tokens = 10;
  j.history_tokens = 90;
  j.decode_tokens = 5;
  return j;
}

TEST(JobQueueTest, FifoOrder) {
  JobQueue q;
  q.Push(MakeJob(1, 10));
  q.Push(MakeJob(2, 11));
  q.Push(MakeJob(3, 12));
  EXPECT_EQ(q.size(), 3U);
  EXPECT_EQ(q.Pop()->id, 1ULL);
  EXPECT_EQ(q.Pop()->id, 2ULL);
  EXPECT_EQ(q.Pop()->id, 3ULL);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.empty());
}

TEST(JobQueueTest, PopFirstRunnableSkipsBlockedSessions) {
  JobQueue q;
  q.Push(MakeJob(1, 5));  // session 5, earliest
  q.Push(MakeJob(2, 6));
  q.Push(MakeJob(3, 5));  // session 5 again
  // Session 5 "in flight": the earliest runnable job is job 2.
  const auto not5 = [](const Job& j) { return j.session != 5; };
  auto job = q.PopFirstRunnable(not5);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->id, 2ULL);
  // Remaining jobs keep queue order, so session 5's jobs pop FIFO.
  EXPECT_FALSE(q.PopFirstRunnable(not5).has_value());
  auto j1 = q.PopFirstRunnable([](const Job&) { return true; });
  auto j3 = q.PopFirstRunnable([](const Job&) { return true; });
  ASSERT_TRUE(j1.has_value());
  ASSERT_TRUE(j3.has_value());
  EXPECT_EQ(j1->id, 1ULL);
  EXPECT_EQ(j3->id, 3ULL);
  EXPECT_FALSE(q.PopFirstRunnable([](const Job&) { return true; }).has_value());
}

TEST(JobQueueTest, WindowSnapshotTruncatesHeadFirst) {
  JobQueue q;
  q.Push(MakeJob(1, 30));
  q.Push(MakeJob(2, 20));
  q.Push(MakeJob(3, 10));
  EXPECT_EQ(q.WindowSnapshot(2), (std::vector<SessionId>{30, 20}));
  EXPECT_EQ(q.WindowSnapshot(9), (std::vector<SessionId>{30, 20, 10}));
  EXPECT_TRUE(q.WindowSnapshot(0).empty());
}

}  // namespace
}  // namespace ca
