#ifndef GRANULOCK_LOCKMGR_WAIT_QUEUE_TABLE_H_
#define GRANULOCK_LOCKMGR_WAIT_QUEUE_TABLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "lockmgr/lock_mode.h"
#include "lockmgr/lock_table.h"
#include "lockmgr/txn_id_map.h"
#include "sim/fcfs_ring.h"

namespace granulock::lockmgr {

/// A lock table for **incremental (claim-as-needed) two-phase locking**:
/// locks are requested one at a time as the transaction progresses, and a
/// conflicting request joins a per-granule FIFO wait queue instead of
/// failing. Deadlock becomes possible; `db::IncrementalSimulator`'s
/// contention policies resolve it, `detect` through `OnWaitsForCycle`.
///
/// Grant discipline: strict FIFO per granule — a request is granted
/// immediately only if it is compatible with all current holders AND the
/// queue is empty (no overtaking of queued writers by compatible readers,
/// which would starve writers). On every release the queue is drained
/// from the front while compatible.
///
/// Layout: per-granule state is a vector indexed by granule, sized at
/// construction. Each transaction that holds or waits has a slot, found
/// from its id through a `TxnIdMap`; a slot is recycled as
/// soon as its transaction holds and waits for nothing, so memory follows
/// the transactions in the table, not the largest id. Vectors, rings and
/// slots keep their capacity, so once the table has seen its largest
/// population, locking, queueing, granting and aborting allocate nothing.
class WaitQueueLockTable {
 public:
  enum class AcquireResult {
    kGranted,  ///< the lock is held on return
    kQueued,   ///< the request waits; the caller learns of the grant from
               ///< the grants Release/Abort report
  };

  /// One holder of a granule.
  struct Holder {
    TxnId txn = 0;
    LockMode mode = LockMode::kNL;
  };

  /// Scratch of `OnWaitsForCycle`: visit marks stamped with the walk's
  /// epoch, indexed by slot, and the walk's stack. Keep one between
  /// walks, so a walk allocates nothing once the marks cover every slot.
  struct CycleWalk {
    std::vector<uint32_t> marks;
    std::vector<uint32_t> stack;
    uint32_t epoch = 0;
  };

  explicit WaitQueueLockTable(int64_t num_granules);

  /// Requests `granule` in `mode` for `txn`. If `txn` already holds the
  /// granule in a covering mode the request is granted trivially. A
  /// transaction may have at most one queued request at a time.
  AcquireResult Acquire(TxnId txn, int64_t granule, LockMode mode);

  /// Releases everything `txn` holds and appends the transactions whose
  /// queued requests became granted to `granted`, in grant order; each of
  /// them now holds its requested lock.
  void ReleaseAll(TxnId txn, std::vector<TxnId>* granted);
  std::vector<TxnId> ReleaseAll(TxnId txn);

  /// Aborts `txn`: removes its queued request (if any) and releases its
  /// held locks. Appends newly granted waiters, as `ReleaseAll`.
  void Abort(TxnId txn, std::vector<TxnId>* granted);
  std::vector<TxnId> Abort(TxnId txn);

  /// The holders of `granule` (in [0, num_granules)) in grant order; an
  /// upgrade keeps its place. Valid until the table next changes.
  std::span<const Holder> Holders(int64_t granule) const {
    return granules_[static_cast<size_t>(granule)].holders;
  }

  /// The mode `txn` holds on `granule` (kNL if none).
  LockMode HeldMode(TxnId txn, int64_t granule) const;

  /// Number of granules `txn` currently holds (any mode).
  int64_t HeldCount(TxnId txn) const;

  /// True iff `txn` has a queued (waiting) request.
  bool IsQueued(TxnId txn) const;

  /// Calls `fn(waiter)` for each transaction queued ahead of `txn` in
  /// `granule`'s FIFO queue, front first; for none when `txn` is not
  /// queued on `granule`. Strict FIFO means these must all drain before
  /// `txn` can be granted, so contention policies treat them as blockers.
  template <typename Fn>
  void ForEachWaiterAhead(TxnId txn, int64_t granule, Fn&& fn) const {
    const uint32_t slot = FindSlot(txn);
    if (slot == kNoSlot || slots_[slot].queued_on != granule) return;
    const auto& queue = granules_[static_cast<size_t>(granule)].queue;
    for (size_t i = 0; i < queue.size() && queue[i].txn != txn; ++i) {
      fn(queue[i].txn);
    }
  }

  /// True iff some *other* transaction is queued on a granule `txn`
  /// holds (i.e. a waits-for edge points at `txn`). `txn`'s own queued
  /// upgrade request on a granule it holds does not count.
  bool HasOtherWaitersOnHeldGranules(TxnId txn) const;

  /// True iff `txn` is on a waits-for cycle: following each waiter to the
  /// granule it queues on and on to that granule's other holders leads
  /// back to `txn`. Visiting order cannot change the answer, which equals
  /// a cycle search from `txn` in the graph `db::BuildWaitsForGraph`
  /// rebuilds. O(waiters + their granules' holders).
  bool OnWaitsForCycle(TxnId txn, CycleWalk* walk) const;

  /// Number of queued (waiting) requests across all granules.
  int64_t WaitingCount() const { return waiting_count_; }

  /// Number of granules currently held by at least one transaction
  /// (granules with only waiters are not counted). O(num_granules).
  int64_t LockedGranules() const;

  /// Every queued request as (waiter, granule) pairs, in no particular
  /// order. Used to rebuild the waits-for graph.
  std::vector<std::pair<TxnId, int64_t>> WaitingRequests() const;

  /// Every transaction holding at least one lock, in no particular order.
  std::vector<TxnId> HoldingTxns() const;

  /// True iff no locks are held and no requests wait.
  bool Empty() const { return index_.size() == 0; }

  int64_t num_granules() const { return num_granules_; }

  /// Audits the table; O(locks + waiters + slots). Queue conservation:
  /// `waiting_count_` equals the queued slots and the summed queue
  /// lengths, and each queued transaction sits exactly once in exactly
  /// the queue its slot names. The holder lists and the slots' held lists
  /// mirror each other entry for entry. Every non-empty queue's head is
  /// blocked (incompatible with a current holder), else a grant was
  /// missed. The index finds every live slot, and a slot that holds and
  /// waits for nothing is free. Violations report through
  /// `invariants::Fail`.
  void CheckConsistency() const;

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  struct Waiter {
    TxnId txn = 0;
    LockMode mode = LockMode::kNL;
  };
  struct GranuleState {
    std::vector<Holder> holders;  // grant order
    sim::FcfsRing<Waiter> queue;
  };
  /// What the table knows of one transaction that holds or waits.
  struct TxnSlot {
    TxnId txn = 0;
    std::vector<int64_t> held;  // grant order
    int64_t queued_on = -1;     // the granule it waits for, or -1
  };
  uint32_t FindSlot(TxnId txn) const { return index_.Find(txn); }
  /// Gives `txn`, which has no slot, one from the free list or a new one.
  uint32_t AddSlot(TxnId txn);
  /// Frees `slot` if its transaction holds and waits for nothing.
  void MaybeFreeSlot(uint32_t slot);

  bool CompatibleWithHolders(const GranuleState& state, TxnId txn,
                             LockMode mode) const;
  void GrantTo(GranuleState& state, int64_t granule, uint32_t slot,
               LockMode mode);
  /// Drains the front of `granule`'s queue while grantable, appending the
  /// granted transactions to `granted`.
  void DrainQueue(int64_t granule, std::vector<TxnId>* granted);
  void ReleaseSlot(uint32_t slot, std::vector<TxnId>* granted);

  int64_t num_granules_;
  std::vector<GranuleState> granules_;
  std::vector<TxnSlot> slots_;
  std::vector<uint32_t> free_slots_;
  TxnIdMap<uint32_t, kNoSlot> index_;
  int64_t waiting_count_ = 0;
};

}  // namespace granulock::lockmgr

#endif  // GRANULOCK_LOCKMGR_WAIT_QUEUE_TABLE_H_
