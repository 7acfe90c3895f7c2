// Edge-case tests for the lock managers: the full Gray compatibility
// matrix (exhaustive, against the published table rather than the
// implementation's own constants), hierarchical conflicts exercised
// through the manager, wait-queue FIFO discipline under mass release, and
// the granularity boundaries the paper sweeps between — ltot == 1 (one
// lock for the whole database) and ltot == dbsize (one lock per entity).

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/granularity_simulator.h"
#include "lockmgr/hierarchical.h"
#include "lockmgr/lock_mode.h"
#include "lockmgr/lock_table.h"
#include "lockmgr/wait_queue_table.h"
#include "model/config.h"
#include "workload/workload.h"

namespace granulock {
namespace {

using lockmgr::Compatible;
using lockmgr::HierarchicalLockManager;
using lockmgr::LockMode;
using lockmgr::LockTable;
using lockmgr::ObjectId;
using lockmgr::TxnId;
using lockmgr::WaitQueueLockTable;

using AcquireResult = WaitQueueLockTable::AcquireResult;

// ---------------------------------------------------------------------------
// Compatibility matrix (Gray et al., "Granularity of Locks ...", Table 1).

TEST(CompatibilityMatrixTest, MatchesGrayTableExhaustively) {
  // Independent statement of the matrix: expected[held][requested],
  // mode order NL, IS, IX, S, SIX, X.
  const LockMode modes[] = {LockMode::kNL, LockMode::kIS, LockMode::kIX,
                            LockMode::kS,  LockMode::kSIX, LockMode::kX};
  const bool expected[6][6] = {
      /* NL  */ {true, true, true, true, true, true},
      /* IS  */ {true, true, true, true, true, false},
      /* IX  */ {true, true, true, false, false, false},
      /* S   */ {true, true, false, true, false, false},
      /* SIX */ {true, true, false, false, false, false},
      /* X   */ {true, false, false, false, false, false},
  };
  for (int held = 0; held < 6; ++held) {
    for (int req = 0; req < 6; ++req) {
      EXPECT_EQ(Compatible(modes[held], modes[req]), expected[held][req])
          << "held=" << lockmgr::LockModeToString(modes[held])
          << " requested=" << lockmgr::LockModeToString(modes[req]);
    }
  }
}

TEST(CompatibilityMatrixTest, CompatibilityIsSymmetric) {
  // Lock compatibility is symmetric even though the implementation stores
  // a full (held, requested) table.
  const LockMode modes[] = {LockMode::kNL, LockMode::kIS, LockMode::kIX,
                            LockMode::kS,  LockMode::kSIX, LockMode::kX};
  for (LockMode a : modes) {
    for (LockMode b : modes) {
      EXPECT_EQ(Compatible(a, b), Compatible(b, a))
          << lockmgr::LockModeToString(a) << " vs "
          << lockmgr::LockModeToString(b);
    }
  }
}

// ---------------------------------------------------------------------------
// Hierarchical conflicts through the manager (intention-lock semantics).

TEST(HierarchicalEdgeTest, IntentionLocksAdmitDisjointGranuleWriters) {
  // Two writers in the same file but on different granules coexist: their
  // IX locks on the file and root are compatible.
  HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  EXPECT_FALSE(mgr.TryAcquireAll(1, {{ObjectId::Granule(0), LockMode::kX}}));
  EXPECT_FALSE(mgr.TryAcquireAll(2, {{ObjectId::Granule(1), LockMode::kX}}));
  EXPECT_EQ(mgr.HeldMode(1, ObjectId::File(0)), LockMode::kIX);
  EXPECT_EQ(mgr.HeldMode(2, ObjectId::File(0)), LockMode::kIX);
}

TEST(HierarchicalEdgeTest, FileShareBlocksGranuleWriterInThatFileOnly) {
  HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  // Reader takes S on file 0 (granules [0, 25)).
  EXPECT_FALSE(mgr.TryAcquireAll(1, {{ObjectId::File(0), LockMode::kS}}));
  // A writer inside file 0 needs IX on the file: S vs IX conflicts.
  auto blocker = mgr.TryAcquireAll(2, {{ObjectId::Granule(3), LockMode::kX}});
  ASSERT_TRUE(blocker.has_value());
  EXPECT_EQ(*blocker, TxnId{1});
  // The same writer in file 1 is fine (root locks are IS vs IX).
  EXPECT_FALSE(mgr.TryAcquireAll(2, {{ObjectId::Granule(30), LockMode::kX}}));
}

TEST(HierarchicalEdgeTest, RootExclusiveBlocksEverything) {
  HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  EXPECT_FALSE(mgr.TryAcquireAll(1, {{ObjectId::Root(), LockMode::kX}}));
  EXPECT_TRUE(mgr.TryAcquireAll(2, {{ObjectId::Granule(99), LockMode::kS}}));
  EXPECT_TRUE(mgr.TryAcquireAll(3, {{ObjectId::File(2), LockMode::kS}}));
  EXPECT_TRUE(mgr.TryAcquireAll(4, {{ObjectId::Root(), LockMode::kS}}));
  mgr.ReleaseAll(1);
  EXPECT_FALSE(mgr.TryAcquireAll(2, {{ObjectId::Granule(99), LockMode::kS}}));
}

TEST(HierarchicalEdgeTest, FailedAcquisitionLeavesNoResidue) {
  // All-or-nothing: when the second object conflicts, the first must not
  // remain locked.
  HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  EXPECT_FALSE(mgr.TryAcquireAll(1, {{ObjectId::Granule(50), LockMode::kX}}));
  auto blocker = mgr.TryAcquireAll(2, {{ObjectId::Granule(0), LockMode::kX},
                                       {ObjectId::Granule(50), LockMode::kS}});
  ASSERT_TRUE(blocker.has_value());
  EXPECT_EQ(mgr.HeldMode(2, ObjectId::Granule(0)), LockMode::kNL);
  EXPECT_EQ(mgr.HeldMode(2, ObjectId::Root()), LockMode::kNL);
  mgr.ReleaseAll(1);
  EXPECT_FALSE(mgr.TryAcquireAll(2, {{ObjectId::Granule(0), LockMode::kX},
                                     {ObjectId::Granule(50), LockMode::kS}}));
}

// ---------------------------------------------------------------------------
// Wait-queue FIFO ordering under mass release.

TEST(WaitQueueEdgeTest, MassReleaseGrantsReadersUpToFirstWriter) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX), AcquireResult::kGranted);
  // FIFO queue behind the writer: S, S, X, S.
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kS), AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kS), AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(4, 0, LockMode::kX), AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(5, 0, LockMode::kS), AcquireResult::kQueued);
  EXPECT_EQ(table.WaitingCount(), 4);

  // Releasing the writer drains the two leading readers, then stops at the
  // queued writer — txn 5's compatible read must NOT overtake it.
  EXPECT_EQ(table.ReleaseAll(1), (std::vector<TxnId>{2, 3}));
  EXPECT_EQ(table.HeldMode(2, 0), LockMode::kS);
  EXPECT_EQ(table.HeldMode(3, 0), LockMode::kS);
  EXPECT_EQ(table.HeldMode(5, 0), LockMode::kNL);
  EXPECT_EQ(table.WaitingCount(), 2);

  // Both readers must leave before the writer gets in.
  EXPECT_TRUE(table.ReleaseAll(2).empty());
  EXPECT_EQ(table.ReleaseAll(3), (std::vector<TxnId>{4}));
  EXPECT_EQ(table.HeldMode(4, 0), LockMode::kX);
  EXPECT_EQ(table.ReleaseAll(4), (std::vector<TxnId>{5}));
  EXPECT_TRUE(table.ReleaseAll(5).empty());
  EXPECT_TRUE(table.Empty());
}

TEST(WaitQueueEdgeTest, NewReaderMayNotOvertakeQueuedWriter) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kS), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX), AcquireResult::kQueued);
  // Compatible with the S holder, but queued behind the writer: granting
  // it would starve txn 2.
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kS), AcquireResult::kQueued);
  EXPECT_EQ(table.ReleaseAll(1), (std::vector<TxnId>{2}));
  EXPECT_EQ(table.ReleaseAll(2), (std::vector<TxnId>{3}));
}

TEST(WaitQueueEdgeTest, AbortOfQueuedWaiterUnblocksThoseBehindIt) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kS), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX), AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kS), AcquireResult::kQueued);
  // Aborting the queued writer lets the reader behind it join the holder.
  EXPECT_EQ(table.Abort(2), (std::vector<TxnId>{3}));
  EXPECT_EQ(table.HeldMode(3, 0), LockMode::kS);
  EXPECT_EQ(table.WaitingCount(), 0);
}

TEST(WaitQueueEdgeTest, MassReleaseAcrossGranulesGrantsEachQueueHead) {
  WaitQueueLockTable table(4);
  // txn 1 holds every granule; one writer queues on each.
  for (int64_t g = 0; g < 4; ++g) {
    EXPECT_EQ(table.Acquire(1, g, LockMode::kX), AcquireResult::kGranted);
  }
  for (int64_t g = 0; g < 4; ++g) {
    EXPECT_EQ(table.Acquire(10 + g, g, LockMode::kX), AcquireResult::kQueued);
  }
  const std::vector<TxnId> granted = table.ReleaseAll(1);
  EXPECT_EQ(granted.size(), 4u);
  for (int64_t g = 0; g < 4; ++g) {
    EXPECT_EQ(table.HeldMode(10 + g, g), LockMode::kX);
  }
}

// ---------------------------------------------------------------------------
// Abort edge cases: transactions that hold nothing, queued-but-never-
// granted requests, and double aborts. The contention policies call Abort
// in states the original engine never reached (e.g. aborting a waiter
// chosen as a deadlock victim before it ever held a lock), so these paths
// must be airtight.

TEST(WaitQueueAbortEdgeTest, AbortOfTxnHoldingNothingIsNoOp) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kS), AcquireResult::kGranted);
  // txn 2 holds nothing and waits on nothing.
  EXPECT_TRUE(table.Abort(2).empty());
  EXPECT_EQ(table.HeldMode(1, 0), LockMode::kS);
  EXPECT_EQ(table.WaitingCount(), 0);
  EXPECT_EQ(table.HeldCount(2), 0);
  table.CheckConsistency();
}

TEST(WaitQueueAbortEdgeTest, AbortOfQueuedButNeverGrantedTxn) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX), AcquireResult::kQueued);
  EXPECT_TRUE(table.IsQueued(2));
  EXPECT_EQ(table.HeldCount(2), 0);  // queued, holds nothing yet
  // Aborting the pure waiter leaves the holder untouched and grants
  // nobody (the queue behind it is empty).
  EXPECT_TRUE(table.Abort(2).empty());
  EXPECT_FALSE(table.IsQueued(2));
  EXPECT_EQ(table.WaitingCount(), 0);
  EXPECT_EQ(table.HeldMode(1, 0), LockMode::kX);
  table.CheckConsistency();
}

TEST(WaitQueueAbortEdgeTest, DoubleAbortIsIdempotent) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(1, 1, LockMode::kS), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kS), AcquireResult::kQueued);
  EXPECT_EQ(table.Abort(1), (std::vector<TxnId>{2}));
  EXPECT_EQ(table.HeldCount(1), 0);
  // Second abort of the same txn: nothing left to release, no grants, no
  // corruption of txn 2's freshly granted lock.
  EXPECT_TRUE(table.Abort(1).empty());
  EXPECT_EQ(table.HeldMode(2, 0), LockMode::kS);
  EXPECT_EQ(table.WaitingCount(), 0);
  table.CheckConsistency();
}

TEST(WaitQueueAbortEdgeTest, AbortWhileQueuedAndHoldingReleasesBoth) {
  // The classic deadlock-victim shape: holds one granule, queued on
  // another. Abort must drop the queued request AND release the held
  // lock, unblocking waiters on both granules.
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 1, LockMode::kX), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(1, 1, LockMode::kX), AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kX), AcquireResult::kQueued);
  EXPECT_EQ(table.Abort(1), (std::vector<TxnId>{3}));
  EXPECT_FALSE(table.IsQueued(1));
  EXPECT_EQ(table.HeldCount(1), 0);
  EXPECT_EQ(table.HeldMode(3, 0), LockMode::kX);
  EXPECT_EQ(table.WaitingCount(), 0);
  table.CheckConsistency();
}

// ---------------------------------------------------------------------------
// Policy-facing accessors: the contention policies pick victims from
// exactly these views, so their edge semantics are contractual.

/// The transactions `ForEachWaiterAhead` visits, in visiting order.
std::vector<TxnId> WaitersAhead(const WaitQueueLockTable& table, TxnId txn,
                                int64_t granule) {
  std::vector<TxnId> ahead;
  table.ForEachWaiterAhead(txn, granule,
                           [&ahead](TxnId waiter) { ahead.push_back(waiter); });
  return ahead;
}

TEST(PolicyAccessorTest, WaitersAheadReportsFifoPrefix) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX), AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kX), AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(4, 0, LockMode::kX), AcquireResult::kQueued);
  EXPECT_TRUE(WaitersAhead(table, 2, 0).empty());
  EXPECT_EQ(WaitersAhead(table, 3, 0), (std::vector<TxnId>{2}));
  EXPECT_EQ(WaitersAhead(table, 4, 0), (std::vector<TxnId>{2, 3}));
  // Not queued there (or at all): empty, not a crash.
  EXPECT_TRUE(WaitersAhead(table, 1, 0).empty());
  EXPECT_TRUE(WaitersAhead(table, 4, 1).empty());
  EXPECT_TRUE(WaitersAhead(table, 99, 0).empty());
}

TEST(PolicyAccessorTest, HasOtherWaitersOnHeldGranules) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX), AcquireResult::kGranted);
  EXPECT_FALSE(table.HasOtherWaitersOnHeldGranules(1));
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kS), AcquireResult::kQueued);
  EXPECT_TRUE(table.HasOtherWaitersOnHeldGranules(1));
  // The waiter itself holds nothing, so nobody waits on it.
  EXPECT_FALSE(table.HasOtherWaitersOnHeldGranules(2));
  EXPECT_FALSE(table.Abort(1).empty());
  EXPECT_FALSE(table.HasOtherWaitersOnHeldGranules(1));
}

TEST(PolicyAccessorTest, HeldCountTracksGrantsAndReleases) {
  WaitQueueLockTable table(8);
  EXPECT_EQ(table.HeldCount(1), 0);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kS), AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(1, 1, LockMode::kX), AcquireResult::kGranted);
  EXPECT_EQ(table.HeldCount(1), 2);
  // A covering re-acquire does not double count.
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kS), AcquireResult::kGranted);
  EXPECT_EQ(table.HeldCount(1), 2);
  table.ReleaseAll(1);
  EXPECT_EQ(table.HeldCount(1), 0);
}

// ---------------------------------------------------------------------------
// Granularity boundaries: ltot == 1 and ltot == dbsize; empty lock sets.

TEST(BoundaryTest, SingleLockTableSerializesEverything) {
  LockTable table(1);  // ltot == 1: one lock covers the whole database
  EXPECT_FALSE(table.TryAcquireAll(1, {{0, LockMode::kX}}));
  auto blocker = table.TryAcquireAll(2, {{0, LockMode::kS}});
  ASSERT_TRUE(blocker.has_value());
  EXPECT_EQ(*blocker, TxnId{1});
  table.ReleaseAll(1);
  EXPECT_FALSE(table.TryAcquireAll(2, {{0, LockMode::kS}}));
  EXPECT_FALSE(table.TryAcquireAll(3, {{0, LockMode::kS}}));  // S + S share
  EXPECT_EQ(table.LockedGranules(), 1);
  EXPECT_EQ(table.ActiveTransactions(), 2);
}

TEST(BoundaryTest, EmptyRequestSetAcquiresNothingButSucceeds) {
  // A transaction of size 0 granules (possible at coarse granularities
  // after dedup, and for degenerate workloads) must not block or leave
  // residue.
  LockTable table(8);
  EXPECT_FALSE(table.TryAcquireAll(1, {}));
  EXPECT_EQ(table.LockedGranules(), 0);
  table.ReleaseAll(1);  // releasing the empty holder is a no-op
  EXPECT_TRUE(table.Empty() || table.ActiveTransactions() >= 0);
}

TEST(BoundaryTest, ReleaseOfUnknownTransactionIsNoOp) {
  LockTable flat(8);
  flat.ReleaseAll(1234);
  EXPECT_TRUE(flat.Empty());

  WaitQueueLockTable queued(8);
  EXPECT_TRUE(queued.ReleaseAll(1234).empty());
  EXPECT_TRUE(queued.Abort(1234).empty());
  EXPECT_TRUE(queued.Empty());

  HierarchicalLockManager mgr({.num_granules = 8, .num_files = 2});
  mgr.ReleaseAll(1234);
  EXPECT_TRUE(mgr.Empty());
}

TEST(BoundaryTest, DuplicateGranulesKeepStrongestMode) {
  LockTable table(8);
  EXPECT_FALSE(table.TryAcquireAll(
      1, {{3, LockMode::kS}, {3, LockMode::kX}, {3, LockMode::kS}}));
  EXPECT_EQ(table.HeldMode(1, 3), LockMode::kX);
  EXPECT_EQ(table.LockedGranules(), 1);
  table.ReleaseAll(1);
  EXPECT_TRUE(table.Empty());
}

TEST(BoundaryTest, EngineRunsAtBothGranularityExtremes) {
  // The paper's sweep endpoints: ltot == 1 (whole-database lock) and
  // ltot == dbsize (entity-level locks). Both must simulate cleanly.
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.dbsize = 200;
  cfg.maxtransize = 20;
  cfg.tmax = 200.0;

  for (int64_t ltot : {int64_t{1}, cfg.dbsize}) {
    cfg.ltot = ltot;
    const auto metrics = core::GranularitySimulator::RunOnce(
        cfg, workload::WorkloadSpec::Base(cfg), 42);
    ASSERT_TRUE(metrics.ok()) << "ltot=" << ltot;
    EXPECT_GT(metrics->totcom, 0) << "ltot=" << ltot;
  }
}

}  // namespace
}  // namespace granulock
