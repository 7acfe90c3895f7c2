#include "sim/priority_server.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/fcfs_ring.h"
#include "sim/inline_callback.h"
#include "sim/simulator.h"

namespace granulock::sim {
namespace {

class PriorityServerTest : public ::testing::Test {
 protected:
  Simulator sim_;
  PriorityServer server_{&sim_, "test"};
};

TEST_F(PriorityServerTest, SingleJobCompletesAfterItsServiceTime) {
  double done_at = -1.0;
  server_.Submit(ServiceClass::kTransaction, 2.5,
                 [&] { done_at = sim_.Now(); });
  sim_.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(done_at, 2.5);
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kTransaction), 2.5);
  EXPECT_EQ(server_.CompletedJobs(ServiceClass::kTransaction), 1u);
}

TEST_F(PriorityServerTest, FcfsWithinClass) {
  std::vector<int> order;
  server_.Submit(ServiceClass::kTransaction, 1.0, [&] { order.push_back(1); });
  server_.Submit(ServiceClass::kTransaction, 1.0, [&] { order.push_back(2); });
  server_.Submit(ServiceClass::kTransaction, 1.0, [&] { order.push_back(3); });
  sim_.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim_.Now(), 3.0);
}

TEST_F(PriorityServerTest, LockJobPreemptsTransactionJob) {
  double txn_done = -1.0, lock_done = -1.0;
  server_.Submit(ServiceClass::kTransaction, 4.0,
                 [&] { txn_done = sim_.Now(); });
  // Arrives at t=1 while the transaction job is in service.
  sim_.ScheduleAt(1.0, [&] {
    server_.Submit(ServiceClass::kLock, 2.0, [&] { lock_done = sim_.Now(); });
  });
  sim_.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(lock_done, 3.0);  // 1.0 arrival + 2.0 service
  // Preemptive-resume: the txn received 1.0 of 4.0 before preemption, so
  // it finishes 3.0 after the lock job: at t = 6.0.
  EXPECT_DOUBLE_EQ(txn_done, 6.0);
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kLock), 2.0);
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kTransaction), 4.0);
}

TEST_F(PriorityServerTest, PreemptedJobResumesAheadOfLaterJobs) {
  std::vector<std::pair<int, double>> done;
  server_.Submit(ServiceClass::kTransaction, 4.0,
                 [&] { done.emplace_back(1, sim_.Now()); });
  server_.Submit(ServiceClass::kTransaction, 1.0,
                 [&] { done.emplace_back(2, sim_.Now()); });
  sim_.ScheduleAt(1.0, [&] {
    server_.Submit(ServiceClass::kLock, 2.0, [] {});
  });
  sim_.RunUntilEmpty();
  // The preempted job keeps its place at the head of the queue: it
  // finishes its remaining 3.0 at t = 6, before the job queued behind it.
  EXPECT_EQ(done, (std::vector<std::pair<int, double>>{{1, 6.0}, {2, 7.0}}));
}

TEST_F(PriorityServerTest, LockJobsDoNotPreemptEachOther) {
  std::vector<double> done;
  server_.Submit(ServiceClass::kLock, 2.0, [&] { done.push_back(sim_.Now()); });
  sim_.ScheduleAt(1.0, [&] {
    server_.Submit(ServiceClass::kLock, 2.0,
                   [&] { done.push_back(sim_.Now()); });
  });
  sim_.RunUntilEmpty();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 4.0);
}

TEST_F(PriorityServerTest, TransactionWaitsForQueuedLockWork) {
  std::vector<int> order;
  server_.Submit(ServiceClass::kLock, 1.0, [&] { order.push_back(1); });
  server_.Submit(ServiceClass::kLock, 1.0, [&] { order.push_back(2); });
  server_.Submit(ServiceClass::kTransaction, 1.0, [&] { order.push_back(3); });
  sim_.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(PriorityServerTest, ZeroServiceJobCompletesImmediately) {
  double done_at = -1.0;
  sim_.ScheduleAt(2.0, [&] {
    server_.Submit(ServiceClass::kTransaction, 0.0,
                   [&] { done_at = sim_.Now(); });
  });
  sim_.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST_F(PriorityServerTest, RepeatedPreemptionAccumulatesCorrectly) {
  double txn_done = -1.0;
  server_.Submit(ServiceClass::kTransaction, 3.0,
                 [&] { txn_done = sim_.Now(); });
  // Three lock bursts at t=1, 3, 5, each of length 1.
  for (double t : {1.0, 3.0, 5.0}) {
    sim_.ScheduleAt(t, [&] {
      server_.Submit(ServiceClass::kLock, 1.0, [] {});
    });
  }
  sim_.RunUntilEmpty();
  // Txn receives: [0,1) + [2,3) + [4,5) = 3 units -> finishes at 6.
  EXPECT_DOUBLE_EQ(txn_done, 6.0);
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kLock), 3.0);
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kTransaction), 3.0);
}

TEST_F(PriorityServerTest, BusyTimeIncludesInProgressService) {
  server_.Submit(ServiceClass::kTransaction, 10.0, [] {});
  sim_.RunUntil(4.0);
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kTransaction), 4.0);
  EXPECT_TRUE(server_.busy());
}

TEST_F(PriorityServerTest, ResetStatsDropsHistoryButKeepsJob) {
  double done_at = -1.0;
  server_.Submit(ServiceClass::kTransaction, 10.0,
                 [&] { done_at = sim_.Now(); });
  sim_.RunUntil(4.0);
  server_.ResetStats();
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kTransaction), 0.0);
  sim_.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(done_at, 10.0);  // completion unaffected
  // Post-reset busy time covers only [4, 10].
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kTransaction), 6.0);
}

TEST_F(PriorityServerTest, ResetStatsKeepsTheJobsServiceBeforeTheReset) {
  double txn_done = -1.0;
  server_.Submit(ServiceClass::kTransaction, 4.0,
                 [&] { txn_done = sim_.Now(); });
  sim_.ScheduleAt(1.0, [&] { server_.ResetStats(); });
  sim_.ScheduleAt(2.0, [&] {
    server_.Submit(ServiceClass::kLock, 1.0, [] {});
  });
  sim_.RunUntilEmpty();
  // The job was served [0, 2) before the preemption, reset or not, so it
  // owes 2.0 units after the lock job ends at 3.
  EXPECT_DOUBLE_EQ(txn_done, 5.0);
  // The window counts only service after the reset: [1, 2) + [3, 5).
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kTransaction), 3.0);
  EXPECT_DOUBLE_EQ(server_.BusyTime(ServiceClass::kLock), 1.0);
}

TEST_F(PriorityServerTest, QueueLengthExcludesInService) {
  server_.Submit(ServiceClass::kTransaction, 5.0, [] {});
  server_.Submit(ServiceClass::kTransaction, 5.0, [] {});
  server_.Submit(ServiceClass::kLock, 5.0, [] {});
  // The lock job preempted the first txn job: it is in service, the two
  // txn jobs wait (the preempted one at the head).
  EXPECT_EQ(server_.QueueLength(ServiceClass::kTransaction), 2u);
  EXPECT_EQ(server_.QueueLength(ServiceClass::kLock), 0u);
}

TEST_F(PriorityServerTest, CompletionCallbackMaySubmitMoreWork) {
  std::vector<double> done;
  server_.Submit(ServiceClass::kTransaction, 1.0, [&] {
    done.push_back(sim_.Now());
    server_.Submit(ServiceClass::kTransaction, 2.0,
                   [&] { done.push_back(sim_.Now()); });
  });
  sim_.RunUntilEmpty();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 3.0);
}

TEST_F(PriorityServerTest, TotalBusyTimeSumsClasses) {
  server_.Submit(ServiceClass::kLock, 1.5, [] {});
  server_.Submit(ServiceClass::kTransaction, 2.5, [] {});
  sim_.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(server_.TotalBusyTime(), 4.0);
}

TEST(FcfsRingTest, KeepsFifoOrderAcrossWrapAndGrowth) {
  FcfsRing<std::pair<int, InlineCallback>> ring;
  std::vector<int> fired;
  int next = 0;
  auto push = [&](int n) {
    for (int i = 0; i < n; ++i, ++next) {
      ring.push_back({next, [&fired, id = next] { fired.push_back(id); }});
    }
  };
  auto pop = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ring.front().second();
      ring.pop_front();
    }
  };
  // Wrap the first four slots, then grow twice while the front is not
  // the first slot.
  push(3);
  pop(2);
  push(3);
  EXPECT_EQ(ring.size(), 4u);
  push(9);
  EXPECT_EQ(ring.size(), 13u);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].first, static_cast<int>(i) + 2);
  }
  pop(13);
  EXPECT_TRUE(ring.empty());
  std::vector<int> expected(15);
  for (int i = 0; i < 15; ++i) expected[static_cast<size_t>(i)] = i;
  EXPECT_EQ(fired, expected);
}

TEST(FcfsRingTest, EraseKeepsTheOrderOfTheRestAcrossWrap) {
  FcfsRing<int> ring;
  std::vector<int> model;
  // Wrap the front past the end of the array, then erase from the front,
  // the middle (across the wrap) and the back, growing in between.
  for (int i = 0; i < 6; ++i) ring.push_back(int{i});
  for (int i = 0; i < 5; ++i) ring.pop_front();
  model.push_back(5);
  for (int i = 6; i < 12; ++i) {
    ring.push_back(int{i});
    model.push_back(i);
  }
  for (const size_t at : {size_t{0}, size_t{3}, size_t{4}}) {
    ring.erase(at);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(at));
    for (int i = 0; i < 3; ++i) {
      ring.push_back(100 + static_cast<int>(model.size()));
      model.push_back(100 + static_cast<int>(model.size()));
    }
  }
  ring.erase(ring.size() - 1);
  model.pop_back();
  ASSERT_EQ(ring.size(), model.size());
  for (size_t i = 0; i < model.size(); ++i) EXPECT_EQ(ring[i], model[i]);
}

}  // namespace
}  // namespace granulock::sim
