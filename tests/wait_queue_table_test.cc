#include "lockmgr/wait_queue_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "lockmgr/txn_id_map.h"
#include "util/random.h"

namespace granulock::lockmgr {
namespace {

using AR = WaitQueueLockTable::AcquireResult;

TEST(WaitQueueTableTest, GrantOnFreeGranule) {
  WaitQueueLockTable table(10);
  EXPECT_EQ(table.Acquire(1, 3, LockMode::kX), AR::kGranted);
  EXPECT_EQ(table.HeldMode(1, 3), LockMode::kX);
  EXPECT_EQ(table.WaitingCount(), 0);
}

TEST(WaitQueueTableTest, ConflictQueues) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 3, LockMode::kX), AR::kGranted);
  EXPECT_EQ(table.Acquire(2, 3, LockMode::kX), AR::kQueued);
  EXPECT_EQ(table.WaitingCount(), 1);
  EXPECT_EQ(table.HeldMode(2, 3), LockMode::kNL);
}

TEST(WaitQueueTableTest, ReleaseGrantsFifo) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 3, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(2, 3, LockMode::kX), AR::kQueued);
  ASSERT_EQ(table.Acquire(3, 3, LockMode::kX), AR::kQueued);
  const auto granted = table.ReleaseAll(1);
  // Only the first waiter gets the X lock.
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);
  EXPECT_EQ(table.HeldMode(2, 3), LockMode::kX);
  EXPECT_EQ(table.WaitingCount(), 1);
  const auto granted2 = table.ReleaseAll(2);
  ASSERT_EQ(granted2.size(), 1u);
  EXPECT_EQ(granted2[0], 3u);
}

TEST(WaitQueueTableTest, SharedHoldersCoexist) {
  WaitQueueLockTable table(10);
  EXPECT_EQ(table.Acquire(1, 5, LockMode::kS), AR::kGranted);
  EXPECT_EQ(table.Acquire(2, 5, LockMode::kS), AR::kGranted);
  EXPECT_EQ(table.Holders(5).size(), 2u);
}

TEST(WaitQueueTableTest, ReaderBehindQueuedWriterWaits) {
  // FIFO fairness: a reader must not overtake a queued writer.
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 5, LockMode::kS), AR::kGranted);
  ASSERT_EQ(table.Acquire(2, 5, LockMode::kX), AR::kQueued);
  EXPECT_EQ(table.Acquire(3, 5, LockMode::kS), AR::kQueued);
}

TEST(WaitQueueTableTest, BatchGrantOfCompatibleReaders) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 5, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(2, 5, LockMode::kS), AR::kQueued);
  ASSERT_EQ(table.Acquire(3, 5, LockMode::kS), AR::kQueued);
  ASSERT_EQ(table.Acquire(4, 5, LockMode::kX), AR::kQueued);
  const auto granted = table.ReleaseAll(1);
  // Both readers are granted together; the writer stays queued.
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(granted[0], 2u);
  EXPECT_EQ(granted[1], 3u);
  EXPECT_EQ(table.WaitingCount(), 1);
}

TEST(WaitQueueTableTest, MultiGranuleRelease) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 1, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(1, 2, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(2, 1, LockMode::kX), AR::kQueued);
  ASSERT_EQ(table.Acquire(3, 2, LockMode::kX), AR::kQueued);
  const auto granted = table.ReleaseAll(1);
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(table.HeldMode(2, 1), LockMode::kX);
  EXPECT_EQ(table.HeldMode(3, 2), LockMode::kX);
}

TEST(WaitQueueTableTest, AbortRemovesQueuedRequest) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 5, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(2, 5, LockMode::kX), AR::kQueued);
  const auto granted = table.Abort(2);
  EXPECT_TRUE(granted.empty());
  EXPECT_EQ(table.WaitingCount(), 0);
  // Releasing 1 grants nobody (queue empty).
  EXPECT_TRUE(table.ReleaseAll(1).empty());
  EXPECT_TRUE(table.Empty());
}

TEST(WaitQueueTableTest, AbortReleasesHeldLocksAndUnblocks) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 1, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(1, 2, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(2, 1, LockMode::kX), AR::kQueued);
  // Txn 1 aborts while also queued on a third granule held by 3.
  ASSERT_EQ(table.Acquire(3, 7, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(1, 7, LockMode::kX), AR::kQueued);
  const auto granted = table.Abort(1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);
  EXPECT_EQ(table.WaitingCount(), 0);
  EXPECT_EQ(table.HeldMode(1, 1), LockMode::kNL);
  EXPECT_EQ(table.HeldMode(1, 2), LockMode::kNL);
}

TEST(WaitQueueTableTest, AbortOfQueueHeadUnblocksThoseBehind) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 5, LockMode::kS), AR::kGranted);
  ASSERT_EQ(table.Acquire(2, 5, LockMode::kX), AR::kQueued);
  ASSERT_EQ(table.Acquire(3, 5, LockMode::kS), AR::kQueued);
  // Killing the queued writer lets the reader share immediately.
  const auto granted = table.Abort(2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 3u);
  EXPECT_EQ(table.HeldMode(3, 5), LockMode::kS);
}

TEST(WaitQueueTableTest, ReacquireCoveredLockIsTrivial) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 5, LockMode::kX), AR::kGranted);
  EXPECT_EQ(table.Acquire(1, 5, LockMode::kS), AR::kGranted);  // covered
  EXPECT_EQ(table.Acquire(1, 5, LockMode::kX), AR::kGranted);
  table.ReleaseAll(1);
  EXPECT_TRUE(table.Empty());
}

TEST(WaitQueueTableTest, WaitingRequestsReflectsQueues) {
  WaitQueueLockTable table(10);
  ASSERT_EQ(table.Acquire(1, 5, LockMode::kX), AR::kGranted);
  ASSERT_EQ(table.Acquire(2, 5, LockMode::kX), AR::kQueued);
  const auto waiting = table.WaitingRequests();
  ASSERT_EQ(waiting.size(), 1u);
  EXPECT_EQ(waiting[0].first, 2u);
  EXPECT_EQ(waiting[0].second, 5);
}

TEST(WaitQueueTableTest, HoldersOfFreeGranuleIsEmpty) {
  WaitQueueLockTable table(10);
  EXPECT_TRUE(table.Holders(4).empty());
}

TEST(WaitQueueTableTest, ReleaseUnknownTxnIsNoOp) {
  WaitQueueLockTable table(10);
  EXPECT_TRUE(table.ReleaseAll(99).empty());
  EXPECT_TRUE(table.Abort(99).empty());
}

TEST(TxnIdMapTest, MatchesAReferenceMapUnderChurn) {
  // Random inserts and erasures over a small id range, so probe runs
  // collide, wrap and shift back; every id's lookup agrees throughout.
  TxnIdMap<int64_t> map;
  std::unordered_map<TxnId, int64_t> reference;
  Rng rng(3);
  for (int step = 0; step < 20000; ++step) {
    const TxnId txn = static_cast<TxnId>(rng.UniformInt(0, 199));
    if (reference.count(txn) != 0) {
      map.Erase(txn);
      reference.erase(txn);
    } else {
      map.Insert(txn, step + 1);
      reference[txn] = step + 1;
    }
    ASSERT_EQ(map.size(), reference.size());
    if (step % 97 == 0) {
      for (TxnId id = 0; id < 200; ++id) {
        const auto it = reference.find(id);
        ASSERT_EQ(map.Find(id), it == reference.end() ? 0 : it->second)
            << "txn " << id << " at step " << step;
      }
    }
  }
  size_t visited = 0;
  map.ForEach([&](TxnId txn, int64_t value) {
    ++visited;
    EXPECT_EQ(reference.at(txn), value);
  });
  EXPECT_EQ(visited, reference.size());
}

}  // namespace
}  // namespace granulock::lockmgr
