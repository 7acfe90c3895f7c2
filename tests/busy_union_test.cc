#include "sim/busy_union.h"

#include <gtest/gtest.h>

#include "sim/priority_server.h"
#include "sim/simulator.h"
#include "util/strings.h"

namespace granulock::sim {
namespace {

TEST(BusyUnionTrackerTest, StartsIdle) {
  BusyUnionTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.AnyBusyTime(10.0), 0.0);
  EXPECT_DOUBLE_EQ(tracker.LockBusyTime(10.0), 0.0);
  EXPECT_EQ(tracker.busy_count(), 0);
}

TEST(BusyUnionTrackerTest, SingleServerInterval) {
  BusyUnionTracker tracker;
  tracker.Transition(1.0, +1, 0);
  tracker.Transition(4.0, -1, 0);
  EXPECT_DOUBLE_EQ(tracker.AnyBusyTime(10.0), 3.0);
  EXPECT_DOUBLE_EQ(tracker.LockBusyTime(10.0), 0.0);
}

TEST(BusyUnionTrackerTest, OverlappingIntervalsCountOnce) {
  BusyUnionTracker tracker;
  tracker.Transition(1.0, +1, 0);   // A busy [1, 5]
  tracker.Transition(2.0, +1, 0);   // B busy [2, 7]
  tracker.Transition(5.0, -1, 0);
  tracker.Transition(7.0, -1, 0);
  EXPECT_DOUBLE_EQ(tracker.AnyBusyTime(10.0), 6.0);  // union [1,7]
}

TEST(BusyUnionTrackerTest, DisjointIntervalsSum) {
  BusyUnionTracker tracker;
  tracker.Transition(1.0, +1, 0);
  tracker.Transition(2.0, -1, 0);
  tracker.Transition(5.0, +1, 0);
  tracker.Transition(8.0, -1, 0);
  EXPECT_DOUBLE_EQ(tracker.AnyBusyTime(10.0), 4.0);
}

TEST(BusyUnionTrackerTest, LockSubsetTracked) {
  BusyUnionTracker tracker;
  tracker.Transition(0.0, +1, 0);    // txn work [0, 10]
  tracker.Transition(2.0, +1, +1);   // lock work [2, 5]
  tracker.Transition(5.0, -1, -1);
  tracker.Transition(10.0, -1, 0);
  EXPECT_DOUBLE_EQ(tracker.AnyBusyTime(10.0), 10.0);
  EXPECT_DOUBLE_EQ(tracker.LockBusyTime(10.0), 3.0);
}

TEST(BusyUnionTrackerTest, InProgressIntervalCountsUpToNow) {
  BusyUnionTracker tracker;
  tracker.Transition(2.0, +1, +1);
  EXPECT_DOUBLE_EQ(tracker.AnyBusyTime(6.0), 4.0);
  EXPECT_DOUBLE_EQ(tracker.LockBusyTime(6.0), 4.0);
}

TEST(BusyUnionTrackerTest, ZeroWidthTransitionsContributeNothing) {
  BusyUnionTracker tracker;
  tracker.Transition(3.0, +1, 0);
  tracker.Transition(3.0, -1, 0);  // same timestamp
  EXPECT_DOUBLE_EQ(tracker.AnyBusyTime(10.0), 0.0);
}

TEST(BusyUnionTrackerTest, ResetWindowDiscardsHistoryKeepsState) {
  BusyUnionTracker tracker;
  tracker.Transition(0.0, +1, +1);
  tracker.ResetWindow(5.0);
  // Still busy after the reset: only post-reset time counts.
  EXPECT_DOUBLE_EQ(tracker.AnyBusyTime(8.0), 3.0);
  EXPECT_DOUBLE_EQ(tracker.LockBusyTime(8.0), 3.0);
  EXPECT_EQ(tracker.busy_count(), 1);
}

// --- End-to-end with PriorityServer pools -----------------------------

class ServerPoolUnionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      servers_.push_back(
          std::make_unique<PriorityServer>(&sim_, StrFormat("s%d", i)));
      servers_.back()->SetBusyUnion(&tracker_);
    }
  }
  Simulator sim_;
  BusyUnionTracker tracker_;
  std::vector<std::unique_ptr<PriorityServer>> servers_;
};

TEST_F(ServerPoolUnionTest, ParallelWorkCountsOnce) {
  // Both servers busy [0, 5]: union is 5, sum is 10.
  servers_[0]->Submit(ServiceClass::kTransaction, 5.0, [] {});
  servers_[1]->Submit(ServiceClass::kTransaction, 5.0, [] {});
  sim_.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(tracker_.AnyBusyTime(sim_.Now()), 5.0);
  EXPECT_DOUBLE_EQ(
      servers_[0]->TotalBusyTime() + servers_[1]->TotalBusyTime(), 10.0);
}

TEST_F(ServerPoolUnionTest, StaggeredWorkUnionsCorrectly) {
  servers_[0]->Submit(ServiceClass::kTransaction, 2.0, [] {});  // [0,2]
  sim_.ScheduleAt(1.0, [this] {
    servers_[1]->Submit(ServiceClass::kTransaction, 3.0, [] {});  // [1,4]
  });
  sim_.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(tracker_.AnyBusyTime(sim_.Now()), 4.0);  // union [0,4]
}

TEST_F(ServerPoolUnionTest, PreemptionTransitionsStayBalanced) {
  servers_[0]->Submit(ServiceClass::kTransaction, 4.0, [] {});
  sim_.ScheduleAt(1.0, [this] {
    servers_[0]->Submit(ServiceClass::kLock, 2.0, [] {});
  });
  sim_.RunUntilEmpty();
  // Busy continuously [0, 6]; lock portion [1, 3].
  EXPECT_DOUBLE_EQ(tracker_.AnyBusyTime(sim_.Now()), 6.0);
  EXPECT_DOUBLE_EQ(tracker_.LockBusyTime(sim_.Now()), 2.0);
  EXPECT_EQ(tracker_.busy_count(), 0);
  EXPECT_EQ(tracker_.lock_count(), 0);
}

}  // namespace
}  // namespace granulock::sim
