// Tests for the invariant-audit layer (src/sim/invariants.h): the DCHECK
// macros, the failure-capture plumbing, and — most importantly — that every
// CheckConsistency() audit both passes on healthy state and actually fires
// when the state is corrupted. Corruption goes through `AuditTestPeer`
// structs that each audited class befriends, so the tests can reach private
// members without weakening the production API.

#include "sim/invariants.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/granularity_simulator.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "db/transfer_simulator.h"
#include "lockmgr/hierarchical.h"
#include "lockmgr/lock_mode.h"
#include "lockmgr/lock_table.h"
#include "lockmgr/wait_queue_table.h"
#include "model/config.h"
#include "sim/machine.h"
#include "sim/priority_server.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace granulock::sim {

// Friend of Simulator, LockLane, PriorityServer and Machine: exposes private
// state so the corruption tests below can break invariants on purpose.
struct AuditTestPeer {
  /// Files a calendar entry at `time` for `id`, as `Schedule` would.
  static void InsertEntry(Simulator& s, SimTime time, EventId id) {
    s.InsertEntry(Simulator::CalEntry{time, s.next_seq_++, id});
  }
  static auto& Now(Simulator& s) { return s.now_; }
  static auto& MaxPending(Simulator& s) { return s.max_pending_; }
  static auto& DueTime(Simulator& s, EventId id) {
    return s.slot_due_time_[Simulator::SlotOf(id)];
  }
  static auto& Accepted(PriorityServer& s) { return s.accepted_; }
  static auto& Suspended(PriorityServer& s) { return s.suspended_; }
  static auto& LockBusyTime(PriorityServer& s) { return s.lane_->busy_time_; }
  static auto& Queue(PriorityServer& s) { return s.queue_; }
  static auto& Accepted(Machine& m) { return m.io_lane_.accepted_; }
  static auto& IoUnion(Machine& m) { return m.io_union_; }
};

}  // namespace granulock::sim

namespace granulock::lockmgr {

struct AuditTestPeer {
  static auto& Granules(LockTable& t) { return t.granules_; }
  static auto& HeldByTxn(LockTable& t) { return t.held_by_txn_; }
  static auto& Holders(HierarchicalLockManager& m) { return m.holders_; }
  static auto& HeldByTxn(HierarchicalLockManager& m) {
    return m.held_by_txn_;
  }
  static uint64_t KeyOf(const ObjectId& object) {
    return HierarchicalLockManager::KeyOf(object);
  }
  static auto& Granules(WaitQueueLockTable& t) { return t.granules_; }
  /// The slot of `txn`, which is given one when it has none.
  static auto& Slot(WaitQueueLockTable& t, TxnId txn) {
    uint32_t slot = t.FindSlot(txn);
    if (slot == WaitQueueLockTable::kNoSlot) slot = t.AddSlot(txn);
    return t.slots_[slot];
  }
  static auto& WaitingCount(WaitQueueLockTable& t) {
    return t.waiting_count_;
  }
};

}  // namespace granulock::lockmgr

namespace granulock::core {

struct AuditTestPeer {
  template <typename Engine, typename Txn>
  static auto& BlockedCount(ConservativeProtocol<Engine, Txn>& protocol) {
    return protocol.blocked_count_;
  }
  static auto& BlockedCount(GranularitySimulator& s) {
    return BlockedCount(s.protocol_);
  }
  static void Check(const GranularitySimulator& s) { s.CheckConsistency(); }
  static sim::Machine& MachineOf(GranularitySimulator& s) {
    return s.protocol_.machine();
  }
};

}  // namespace granulock::core

namespace granulock::db {

struct AuditTestPeer {
  static auto& BlockedCount(ExplicitSimulator& s) {
    return core::AuditTestPeer::BlockedCount(s.protocol_);
  }
  static void Check(const ExplicitSimulator& s) { s.CheckConsistency(); }
  static auto& InBackoff(IncrementalSimulator& s) { return s.in_backoff_; }
  static auto& Table(IncrementalSimulator& s) { return *s.table_; }
  static void Check(const IncrementalSimulator& s) { s.CheckConsistency(); }
  static auto& BlockedCount(TransferSimulator& s) {
    return core::AuditTestPeer::BlockedCount(s.protocol_);
  }
  static void Check(const TransferSimulator& s) { s.CheckConsistency(); }
  static sim::Machine& MachineOf(ExplicitSimulator& s) {
    return s.protocol_.machine();
  }
  static sim::Machine& MachineOf(IncrementalSimulator& s) { return s.machine_; }
  static sim::Machine& MachineOf(TransferSimulator& s) {
    return s.protocol_.machine();
  }
};

}  // namespace granulock::db

namespace granulock {
namespace {

using lockmgr::LockMode;
using lockmgr::LockRequest;
using lockmgr::ObjectId;
using sim::invariants::ScopedFailureCapture;

// ---------------------------------------------------------------------------
// Macro and capture plumbing.

TEST(FailureCaptureTest, RecordsFailuresInsteadOfAborting) {
  ScopedFailureCapture capture;
  EXPECT_EQ(capture.count(), 0);
  sim::invariants::Fail("fake_file.cc", 12, "synthetic violation");
  EXPECT_EQ(capture.count(), 1);
  EXPECT_NE(capture.last_message().find("synthetic violation"),
            std::string::npos);
  capture.Reset();
  EXPECT_EQ(capture.count(), 0);
  EXPECT_TRUE(capture.last_message().empty());
}

TEST(AuditCheckTest, PassingConditionIsSilent) {
  ScopedFailureCapture capture;
  GRANULOCK_AUDIT_CHECK(1 + 1 == 2) << "never evaluated";
  GRANULOCK_AUDIT_CHECK_EQ(3, 3);
  GRANULOCK_AUDIT_CHECK_LE(2, 3);
  EXPECT_EQ(capture.count(), 0);
}

TEST(AuditCheckTest, FailingConditionReportsConditionText) {
  ScopedFailureCapture capture;
  const int lhs = 4;
  GRANULOCK_AUDIT_CHECK_EQ(lhs, 5) << "lhs should have been five";
  ASSERT_EQ(capture.count(), 1);
  EXPECT_NE(capture.last_message().find("lhs"), std::string::npos);
  EXPECT_NE(capture.last_message().find("lhs should have been five"),
            std::string::npos);
}

TEST(DcheckTest, CompiledInExactlyForAuditBuilds) {
  ScopedFailureCapture capture;
  GRANULOCK_DCHECK_EQ(1, 2) << "fires only when audits are compiled in";
  EXPECT_EQ(capture.count(), sim::invariants::kAuditBuild ? 1 : 0);
}

TEST(DcheckTest, OperandsNotEvaluatedWhenCompiledOut) {
  ScopedFailureCapture capture;
  int calls = 0;
  auto probe = [&calls]() {
    ++calls;
    return true;
  };
  GRANULOCK_DCHECK(probe());
  EXPECT_EQ(calls, sim::invariants::kAuditBuild ? 1 : 0);
  EXPECT_EQ(capture.count(), 0);
}

TEST(DeepAuditTest, FlagRoundTrips) {
  EXPECT_FALSE(sim::invariants::DeepAuditEnabled());
  sim::invariants::SetDeepAudit(true);
  EXPECT_TRUE(sim::invariants::DeepAuditEnabled());
  sim::invariants::SetDeepAudit(false);
  EXPECT_FALSE(sim::invariants::DeepAuditEnabled());
}

// ---------------------------------------------------------------------------
// Simulator (event-engine bookkeeping).

TEST(SimulatorAuditTest, CleanEngineStatePasses) {
  sim::Simulator s;
  const sim::EventId a = s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  s.Suspend(a);

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
  s.Resume(a, 3.0);

  s.RunUntilEmpty();
  s.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(SimulatorAuditTest, FiresOnEntryOfDeadSlot) {
  sim::Simulator s;
  const sim::EventId fired = s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  ASSERT_TRUE(s.Step());
  // A calendar entry left behind by an event that already fired: its
  // slot is on the free list.
  sim::AuditTestPeer::InsertEntry(s, 3.0, fired);

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
  EXPECT_NE(capture.last_message().find("is not live"), std::string::npos)
      << capture.last_message();
}

TEST(SimulatorAuditTest, FiresOnPendingEventInThePast) {
  sim::Simulator s;
  s.ScheduleAt(1.0, [] {});
  sim::AuditTestPeer::Now(s) = 5.0;  // clock jumped past the pending event

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
  EXPECT_NE(capture.last_message().find("Invariant violated"),
            std::string::npos);
}

TEST(SimulatorAuditTest, FiresOnHighWaterMarkBelowPendingCount) {
  sim::Simulator s;
  s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  sim::AuditTestPeer::MaxPending(s) = 1;

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(SimulatorAuditTest, SuspendedEventsPass) {
  sim::Simulator s;
  const sim::EventId surfaced = s.ScheduleAt(1.0, [] {});
  const sim::EventId rekeyed = s.ScheduleAt(2.0, [] {});
  s.ScheduleAt(4.0, [] {});
  const sim::EventId waiting = s.ScheduleAt(6.0, [] {});
  s.Suspend(surfaced);
  s.Suspend(rekeyed);
  s.Suspend(waiting);
  s.Resume(rekeyed, 5.0);  // its entry at 2.0 awaits a re-key

  ScopedFailureCapture capture;
  s.CheckConsistency();
  // surfaced loses its entry, rekeyed moves to 5.0, and the pop stops at
  // 4.0, before waiting's entry.
  s.RunUntil(2.5);
  s.CheckConsistency();
  EXPECT_EQ(s.ExecutedEvents(), 0u);
  EXPECT_EQ(s.PendingEvents(), 4u);
  s.Resume(surfaced, 3.0);
  s.Resume(waiting, 4.5);  // its entry at 6.0 moves to 4.5
  s.CheckConsistency();
  s.RunUntilEmpty();
  s.CheckConsistency();
  EXPECT_EQ(s.ExecutedEvents(), 4u);
  EXPECT_EQ(capture.count(), 0);
}

TEST(SimulatorAuditTest, FiresOnSuspendedSlotDueBeforeItsEntry) {
  sim::Simulator s;
  const sim::EventId id = s.ScheduleAt(2.0, [] {});
  s.Suspend(id);
  s.Resume(id, 4.0);  // re-keyed: entry 2.0, due 4.0
  s.Suspend(id);

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
  // A due key before the entry: the entry would surface too late.
  sim::AuditTestPeer::DueTime(s, id) = 1.0;
  s.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// PriorityServer (FCFS queue conservation).

TEST(PriorityServerAuditTest, CleanServerPassesAcrossStatsReset) {
  sim::Simulator s;
  sim::PriorityServer server(&s, "cpu0");
  int completions = 0;
  server.Submit(sim::ServiceClass::kTransaction, 1.0,
                [&completions] { ++completions; });
  server.Submit(sim::ServiceClass::kLock, 0.5,
                [&completions] { ++completions; });

  ScopedFailureCapture capture;
  server.CheckConsistency();
  s.RunUntilEmpty();
  EXPECT_EQ(completions, 2);
  server.CheckConsistency();
  // The conservation counters survive ResetStats — the law must still hold.
  server.ResetStats();
  server.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(PriorityServerAuditTest, FiresOnLostJob) {
  sim::Simulator s;
  sim::PriorityServer server(&s, "cpu0");
  server.Submit(sim::ServiceClass::kTransaction, 1.0, [] {});
  // Pretend a second job was accepted that is nowhere to be found.
  ++sim::AuditTestPeer::Accepted(server);

  ScopedFailureCapture capture;
  server.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(PriorityServerAuditTest, FiresOnNegativeBusyTime) {
  sim::Simulator s;
  sim::PriorityServer server(&s, "io0");
  sim::AuditTestPeer::LockBusyTime(server) = -1.0;

  ScopedFailureCapture capture;
  server.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(PriorityServerAuditTest, FiresOnNegativeQueuedDemand) {
  sim::Simulator s;
  sim::PriorityServer server(&s, "cpu0");
  server.Submit(sim::ServiceClass::kTransaction, 1.0, [] {});
  server.Submit(sim::ServiceClass::kTransaction, 1.0, [] {});
  auto& queue = sim::AuditTestPeer::Queue(server);
  ASSERT_FALSE(queue.empty());
  queue.front().remaining = -0.25;

  ScopedFailureCapture capture;
  server.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// Machine (servers, lock lanes and pool busy unions together).

TEST(MachineAuditTest, FiresOnPoolUnionDrift) {
  sim::Machine machine;
  machine.Build(3);
  machine.io(1).Submit(sim::ServiceClass::kTransaction, 2.0, [] {});
  machine.PayLockCost(1.0, 0.5, [] {});
  ScopedFailureCapture capture;
  machine.sim().RunUntil(0.5);  // the I/O lane preempts every disk
  machine.CheckConsistency();
  machine.sim().RunUntilEmpty();
  machine.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);

  // The disk union counts a busy member that no server accounts for.
  sim::AuditTestPeer::IoUnion(machine).Transition(machine.Now(), 1, 0);
  machine.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(MachineAuditTest, FiresOnUnsuspendedWorkInABusyLane) {
  sim::Machine machine;
  machine.Build(3);
  machine.io(1).Submit(sim::ServiceClass::kTransaction, 2.0, [] {});
  machine.PayLockCost(1.0, 0.5, [] {});
  ScopedFailureCapture capture;
  machine.sim().RunUntil(0.5);  // the I/O lane suspends disk 1's job
  machine.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);

  // Disk 1 serves its transaction job while its lane is busy.
  sim::AuditTestPeer::Suspended(machine.io(1)) = false;
  machine.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// LockTable (flat, conservative).

TEST(LockTableAuditTest, CleanTablePasses) {
  lockmgr::LockTable table(10);
  ASSERT_FALSE(table.TryAcquireAll(
      1, {{0, LockMode::kX}, {3, LockMode::kS}}));
  ASSERT_FALSE(table.TryAcquireAll(2, {{3, LockMode::kS}}));

  ScopedFailureCapture capture;
  table.CheckConsistency();
  table.ReleaseAll(1);
  table.CheckConsistency();
  table.ReleaseAll(2);
  table.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(LockTableAuditTest, FiresOnDanglingPerTxnIndexEntry) {
  lockmgr::LockTable table(10);
  ASSERT_FALSE(table.TryAcquireAll(1, {{0, LockMode::kX}}));
  // The index claims txn 1 also holds granule 7, but no holder entry exists.
  lockmgr::AuditTestPeer::HeldByTxn(table)[1].push_back(7);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(LockTableAuditTest, FiresOnUnindexedHolder) {
  lockmgr::LockTable table(10);
  ASSERT_FALSE(table.TryAcquireAll(1, {{0, LockMode::kS}}));
  // A holder entry appears out of nowhere: granule 2 held by txn 9, which
  // has no per-txn index entry.
  lockmgr::AuditTestPeer::Granules(table)[2].holders.emplace_back(
      9, LockMode::kS);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(LockTableAuditTest, FiresOnSharedExclusiveViolation) {
  lockmgr::LockTable table(10);
  ASSERT_FALSE(table.TryAcquireAll(1, {{4, LockMode::kX}}));
  ASSERT_FALSE(table.TryAcquireAll(2, {{5, LockMode::kS}}));
  // Sneak txn 2 in next to the exclusive holder of granule 4 (keeping the
  // per-txn index consistent, so only the S/X exclusion check can fire).
  lockmgr::AuditTestPeer::Granules(table)[4].holders.emplace_back(
      2, LockMode::kS);
  lockmgr::AuditTestPeer::HeldByTxn(table)[2].push_back(4);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// HierarchicalLockManager (multiple-granularity discipline).

TEST(HierarchicalAuditTest, CleanManagerPasses) {
  lockmgr::HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  ASSERT_FALSE(mgr.TryAcquireAll(
      1, {{ObjectId::Granule(3), LockMode::kX}}));
  ASSERT_FALSE(mgr.TryAcquireAll(
      2, {{ObjectId::Granule(80), LockMode::kS}}));

  ScopedFailureCapture capture;
  mgr.CheckConsistency();
  mgr.ReleaseAll(1);
  mgr.CheckConsistency();
  mgr.ReleaseAll(2);
  mgr.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(HierarchicalAuditTest, FiresOnMissingIntentionLock) {
  lockmgr::HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  ASSERT_FALSE(mgr.TryAcquireAll(
      1, {{ObjectId::Granule(3), LockMode::kX}}));
  // Weaken the root lock from IX to IS: txn 1 now holds an X granule
  // without the required intention on the root.
  auto& root_holders = lockmgr::AuditTestPeer::Holders(
      mgr)[lockmgr::AuditTestPeer::KeyOf(ObjectId::Root())];
  ASSERT_EQ(root_holders.size(), 1u);
  root_holders[0].second = LockMode::kIS;

  ScopedFailureCapture capture;
  mgr.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
  EXPECT_NE(capture.last_message().find("Invariant violated"),
            std::string::npos);
}

TEST(HierarchicalAuditTest, FiresOnNullLockHolderEntry) {
  lockmgr::HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  ASSERT_FALSE(mgr.TryAcquireAll(
      1, {{ObjectId::File(2), LockMode::kS}}));
  auto& holders = lockmgr::AuditTestPeer::Holders(
      mgr)[lockmgr::AuditTestPeer::KeyOf(ObjectId::File(2))];
  ASSERT_EQ(holders.size(), 1u);
  holders[0].second = LockMode::kNL;  // a held lock in mode "no lock"

  ScopedFailureCapture capture;
  mgr.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(HierarchicalAuditTest, FiresOnDanglingIndexEntry) {
  lockmgr::HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  ASSERT_FALSE(mgr.TryAcquireAll(
      1, {{ObjectId::Granule(10), LockMode::kS}}));
  lockmgr::AuditTestPeer::HeldByTxn(mgr)[1].push_back(
      lockmgr::AuditTestPeer::KeyOf(ObjectId::Granule(55)));

  ScopedFailureCapture capture;
  mgr.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// WaitQueueLockTable (FCFS conservation + no missed grants).

TEST(WaitQueueAuditTest, CleanTablePassesThroughQueueingAndRelease) {
  lockmgr::WaitQueueLockTable table(10);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX),
            lockmgr::WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kS),
            lockmgr::WaitQueueLockTable::AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kS),
            lockmgr::WaitQueueLockTable::AcquireResult::kQueued);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  const std::vector<lockmgr::TxnId> granted = table.ReleaseAll(1);
  EXPECT_EQ(granted.size(), 2u);
  table.CheckConsistency();
  table.ReleaseAll(2);
  table.ReleaseAll(3);
  table.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(WaitQueueAuditTest, FiresOnWaitingCountDrift) {
  lockmgr::WaitQueueLockTable table(10);
  table.Acquire(1, 0, LockMode::kX);
  table.Acquire(2, 0, LockMode::kX);  // queued
  ++lockmgr::AuditTestPeer::WaitingCount(table);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(WaitQueueAuditTest, FiresOnMissedGrant) {
  lockmgr::WaitQueueLockTable table(10);
  // Construct (via the peer, keeping every *other* invariant intact) a
  // granule with no holders but a queued waiter: the head is compatible,
  // so the drain-on-release discipline must have missed a grant.
  auto& state = lockmgr::AuditTestPeer::Granules(table)[4];
  state.queue.push_back({7, LockMode::kS});
  lockmgr::AuditTestPeer::Slot(table, 7).queued_on = 4;
  ++lockmgr::AuditTestPeer::WaitingCount(table);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
  EXPECT_NE(capture.last_message().find("grant"), std::string::npos);
}

TEST(WaitQueueAuditTest, FiresOnQueueMembershipMismatch) {
  lockmgr::WaitQueueLockTable table(10);
  table.Acquire(1, 0, LockMode::kX);
  table.Acquire(2, 0, LockMode::kX);  // queued on granule 0
  // Txn 2's slot claims it waits on granule 5 instead.
  lockmgr::AuditTestPeer::Slot(table, 2).queued_on = 5;

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(WaitQueueAuditTest, FiresOnWaiterQueuedTwice) {
  lockmgr::WaitQueueLockTable table(10);
  table.Acquire(1, 0, LockMode::kX);
  table.Acquire(2, 0, LockMode::kX);  // queued on granule 0
  // A second queue entry for txn 2, with the count kept in step.
  lockmgr::AuditTestPeer::Granules(table)[0].queue.push_back(
      {2, LockMode::kX});
  ++lockmgr::AuditTestPeer::WaitingCount(table);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(WaitQueueAuditTest, FiresOnHolderMissingFromItsSlot) {
  lockmgr::WaitQueueLockTable table(10);
  table.Acquire(1, 0, LockMode::kX);
  table.Acquire(1, 3, LockMode::kS);
  // Granule 3 still lists txn 1 as a holder, but its slot forgets it.
  lockmgr::AuditTestPeer::Slot(table, 1).held.pop_back();

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(WaitQueueAuditTest, FiresOnIdleSlotThatIsNotFree) {
  lockmgr::WaitQueueLockTable table(10);
  table.Acquire(1, 0, LockMode::kX);
  // Txn 4 gets a slot but holds and waits for nothing: a leaked slot.
  lockmgr::AuditTestPeer::Slot(table, 4);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
  EXPECT_NE(capture.last_message().find("waits for nothing"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Engines: a full simulation under deep audit must pass cleanly, and a
// corrupted conservation counter must fire. The engine audits run at every
// quiescent point during the run (that is the --audit bench flag); here we
// also invoke them directly on the final state through the peer.

class EngineAuditTest : public ::testing::Test {
 protected:
  // Small but contended configuration: a few thousand events, fast.
  static model::SystemConfig SmallConfig() {
    model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
    cfg.tmax = 300.0;
    cfg.ltot = 20;
    return cfg;
  }

  void SetUp() override { sim::invariants::SetDeepAudit(true); }
  void TearDown() override { sim::invariants::SetDeepAudit(false); }
};

TEST_F(EngineAuditTest, GranularityEngineRunsCleanAndDetectsCorruption) {
  const model::SystemConfig cfg = SmallConfig();
  // The paper's protocol, then each lock-manager and admission option.
  using Options = core::GranularitySimulator::Options;
  Options pipelined_head;
  pipelined_head.serialize_lock_manager = false;
  pipelined_head.requeue_blocked_at_tail = false;
  Options capped;
  capped.max_active = 3;
  Options adaptive;
  adaptive.adaptive_admission = true;
  adaptive.adaptation_interval = 50.0;
  Options pipelined_capped = capped;
  pipelined_capped.serialize_lock_manager = false;
  const std::pair<const char*, Options> inputs[] = {
      {"default", Options{}},
      {"pipelined/head_requeue", pipelined_head},
      {"max_active=3", capped},
      {"adaptive_admission", adaptive},
      {"pipelined/max_active=3", pipelined_capped},
  };
  for (const auto& [name, options] : inputs) {
    SCOPED_TRACE(name);
    core::GranularitySimulator engine(cfg, workload::WorkloadSpec::Base(cfg),
                                      /*seed=*/7, options);
    // Deep audits ran at every quiescent point.
    ASSERT_TRUE(engine.Run().ok());

    ScopedFailureCapture capture;
    core::AuditTestPeer::Check(engine);
    EXPECT_EQ(capture.count(), 0);

    core::AuditTestPeer::BlockedCount(engine) += 1;
    core::AuditTestPeer::Check(engine);
    EXPECT_GT(capture.count(), 0);
  }
}

TEST_F(EngineAuditTest, ExplicitEngineRunsCleanAndDetectsCorruption) {
  const model::SystemConfig cfg = SmallConfig();
  db::ExplicitSimulator engine(cfg, workload::WorkloadSpec::Base(cfg),
                               /*seed=*/7, {});
  ASSERT_TRUE(engine.Run().ok());

  ScopedFailureCapture capture;
  db::AuditTestPeer::Check(engine);
  EXPECT_EQ(capture.count(), 0);

  db::AuditTestPeer::BlockedCount(engine) += 1;
  db::AuditTestPeer::Check(engine);
  EXPECT_GT(capture.count(), 0);
}

TEST_F(EngineAuditTest, ExplicitHierarchicalEngineRunsClean) {
  const model::SystemConfig cfg = SmallConfig();
  db::ExplicitSimulator::Options options;
  options.strategy = db::ExplicitSimulator::LockingStrategy::kHierarchical;
  options.coarse_threshold = 100;
  options.num_files = 4;
  db::ExplicitSimulator engine(cfg, workload::WorkloadSpec::Base(cfg),
                               /*seed=*/7, options);
  ASSERT_TRUE(engine.Run().ok());

  ScopedFailureCapture capture;
  db::AuditTestPeer::Check(engine);
  EXPECT_EQ(capture.count(), 0);
}

TEST_F(EngineAuditTest, IncrementalEngineRunsCleanAndDetectsCorruption) {
  model::SystemConfig cfg = SmallConfig();
  cfg.maxtransize = 50;  // deadlock-prone: incremental + random placement
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kRandom;
  db::IncrementalSimulator engine(cfg, spec, /*seed=*/7, {});
  ASSERT_TRUE(engine.Run().ok());  // waits-for acyclicity audited throughout

  ScopedFailureCapture capture;
  db::AuditTestPeer::Check(engine);
  EXPECT_EQ(capture.count(), 0);

  db::AuditTestPeer::InBackoff(engine) += 1;
  db::AuditTestPeer::Check(engine);
  EXPECT_GT(capture.count(), 0);
}

TEST_F(EngineAuditTest, IncrementalEngineDetectsALeakedLock) {
  // A lock left behind by a transaction that is no longer live passes the
  // table's own audit but not the engine's.
  model::SystemConfig cfg = SmallConfig();
  cfg.maxtransize = 1;  // ten one-granule transactions leave granules free
  db::IncrementalSimulator engine(cfg, workload::WorkloadSpec::Base(cfg),
                                  /*seed=*/7, {});
  ASSERT_TRUE(engine.Run().ok());
  lockmgr::WaitQueueLockTable& table = db::AuditTestPeer::Table(engine);
  int64_t granule = 0;
  while (granule < cfg.ltot && !table.Holders(granule).empty()) ++granule;
  ASSERT_LT(granule, cfg.ltot);
  const lockmgr::TxnId dead = ~lockmgr::TxnId{0};
  ASSERT_EQ(table.Acquire(dead, granule, LockMode::kX),
            lockmgr::WaitQueueLockTable::AcquireResult::kGranted);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
  db::AuditTestPeer::Check(engine);
  EXPECT_GT(capture.count(), 0);
}

TEST_F(EngineAuditTest, TransferEngineRunsCleanAndDetectsCorruption) {
  model::SystemConfig cfg = SmallConfig();
  cfg.dbsize = 200;
  cfg.ltot = 50;
  cfg.maxtransize = 20;  // must stay <= dbsize; ignored by this engine
  using ConcurrencyControl = db::TransferSimulator::ConcurrencyControl;
  for (const ConcurrencyControl cc : {ConcurrencyControl::kConservativeLocking,
                                      ConcurrencyControl::kNoLocking}) {
    const bool locking = cc == ConcurrencyControl::kConservativeLocking;
    SCOPED_TRACE(locking ? "conservative locking" : "no locking");
    db::TransferSimulator::Options options;
    options.concurrency_control = cc;
    db::TransferSimulator engine(cfg, /*seed=*/7, options);
    const auto report = engine.Run();
    ASSERT_TRUE(report.ok());
    if (locking) {
      EXPECT_TRUE(report->conserved);
    }

    ScopedFailureCapture capture;
    db::AuditTestPeer::Check(engine);
    EXPECT_EQ(capture.count(), 0);

    // The protocol's blocked count no longer matches the blockers' lists.
    db::AuditTestPeer::BlockedCount(engine) += 1;
    db::AuditTestPeer::Check(engine);
    EXPECT_GT(capture.count(), 0);
  }
}

TEST_F(EngineAuditTest, EngineAuditsIncludeTheMachine) {
  // Each engine's deep audit starts with its machine's: a lane that lost a
  // job fires through it.
  model::SystemConfig cfg = SmallConfig();
  cfg.tmax = 100.0;
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  // Runs `engine` under audit, then corrupts its I/O lane.
  auto expect_fires = [](auto& engine, sim::Machine& machine, auto check) {
    ScopedFailureCapture capture;
    check(engine);
    EXPECT_EQ(capture.count(), 0);
    ++sim::AuditTestPeer::Accepted(machine);
    check(engine);
    EXPECT_GT(capture.count(), 0);
  };
  {
    SCOPED_TRACE("probabilistic");
    core::GranularitySimulator engine(cfg, spec, /*seed=*/7, {});
    ASSERT_TRUE(engine.Run().ok());
    expect_fires(engine, core::AuditTestPeer::MachineOf(engine),
                 [](const auto& e) { core::AuditTestPeer::Check(e); });
  }
  {
    SCOPED_TRACE("explicit");
    db::ExplicitSimulator engine(cfg, spec, /*seed=*/7, {});
    ASSERT_TRUE(engine.Run().ok());
    expect_fires(engine, db::AuditTestPeer::MachineOf(engine),
                 [](const auto& e) { db::AuditTestPeer::Check(e); });
  }
  {
    SCOPED_TRACE("incremental");
    db::IncrementalSimulator engine(cfg, spec, /*seed=*/7, {});
    ASSERT_TRUE(engine.Run().ok());
    expect_fires(engine, db::AuditTestPeer::MachineOf(engine),
                 [](const auto& e) { db::AuditTestPeer::Check(e); });
  }
  {
    SCOPED_TRACE("transfer");
    model::SystemConfig transfer_cfg = cfg;
    transfer_cfg.dbsize = 200;
    transfer_cfg.ltot = 50;
    transfer_cfg.maxtransize = 20;
    db::TransferSimulator engine(transfer_cfg, /*seed=*/7,
                                 db::TransferSimulator::Options{});
    ASSERT_TRUE(engine.Run().ok());
    expect_fires(engine, db::AuditTestPeer::MachineOf(engine),
                 [](const auto& e) { db::AuditTestPeer::Check(e); });
  }
}

}  // namespace
}  // namespace granulock
