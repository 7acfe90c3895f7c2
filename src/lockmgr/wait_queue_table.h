#ifndef GRANULOCK_LOCKMGR_WAIT_QUEUE_TABLE_H_
#define GRANULOCK_LOCKMGR_WAIT_QUEUE_TABLE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "lockmgr/lock_mode.h"
#include "lockmgr/lock_table.h"

namespace granulock::lockmgr {

/// A lock table for **incremental (claim-as-needed) two-phase locking**:
/// locks are requested one at a time as the transaction progresses, and a
/// conflicting request joins a per-granule FIFO wait queue instead of
/// failing. Deadlock becomes possible; the caller pairs this table with a
/// `WaitsForGraph` (see `db::IncrementalSimulator`).
///
/// Grant discipline: strict FIFO per granule — a request is granted
/// immediately only if it is compatible with all current holders AND the
/// queue is empty (no overtaking of queued writers by compatible readers,
/// which would starve writers). On every release the queue is drained
/// from the front while compatible.
class WaitQueueLockTable {
 public:
  enum class AcquireResult {
    kGranted,  ///< the lock is held on return
    kQueued,   ///< the request waits; the caller learns of the grant via
               ///< the vectors returned from Release/Abort
  };

  explicit WaitQueueLockTable(int64_t num_granules);

  /// Requests `granule` in `mode` for `txn`. If `txn` already holds the
  /// granule in a covering mode the request is granted trivially. A
  /// transaction may have at most one queued request at a time.
  AcquireResult Acquire(TxnId txn, int64_t granule, LockMode mode);

  /// Releases everything `txn` holds. Returns the transactions whose
  /// queued requests became granted (in grant order); each of them now
  /// holds its requested lock.
  std::vector<TxnId> ReleaseAll(TxnId txn);

  /// Aborts `txn`: removes its queued request (if any) and releases its
  /// held locks. Returns newly granted waiters, as `ReleaseAll`.
  std::vector<TxnId> Abort(TxnId txn);

  /// Transactions currently holding `granule` (any mode).
  std::vector<TxnId> Holders(int64_t granule) const;

  /// The mode `txn` holds on `granule` (kNL if none).
  LockMode HeldMode(TxnId txn, int64_t granule) const;

  /// Number of granules `txn` currently holds (any mode).
  int64_t HeldCount(TxnId txn) const;

  /// True iff `txn` has a queued (waiting) request.
  bool IsQueued(TxnId txn) const {
    return queued_on_.find(txn) != queued_on_.end();
  }

  /// The transactions queued ahead of `txn` in `granule`'s FIFO queue,
  /// front first. Empty when `txn` is not queued on `granule` — strict
  /// FIFO means these must all drain before `txn` can be granted, so
  /// contention policies treat them as blockers.
  std::vector<TxnId> WaitersAhead(TxnId txn, int64_t granule) const;

  /// True iff some *other* transaction is queued on a granule `txn`
  /// holds (i.e. a waits-for edge points at `txn`). `txn`'s own queued
  /// upgrade request on a granule it holds does not count.
  bool HasOtherWaitersOnHeldGranules(TxnId txn) const;

  /// Number of queued (waiting) requests across all granules.
  int64_t WaitingCount() const { return waiting_count_; }

  /// Number of granules currently held by at least one transaction
  /// (granules with only waiters are not counted). Order-insensitive.
  int64_t LockedGranules() const;

  /// Every queued request as (waiter, granule) pairs, in no particular
  /// order. Used to rebuild the waits-for graph for deadlock detection.
  std::vector<std::pair<TxnId, int64_t>> WaitingRequests() const;

  /// Every transaction holding at least one lock, in no particular order.
  std::vector<TxnId> HoldingTxns() const;

  /// True iff no locks are held and no requests wait.
  bool Empty() const { return granules_.empty(); }

  int64_t num_granules() const { return num_granules_; }

  /// FCFS queue conservation audit: `waiting_count_` == `queued_on_`
  /// size == sum of per-granule queue lengths, every queued txn sits
  /// exactly once in exactly the queue `queued_on_` says, holder maps
  /// mirror each other, no state is empty, and every non-empty queue's
  /// head is actually blocked (incompatible with a current holder) —
  /// otherwise a grant was missed. O(locks + waiters); violations report
  /// through `invariants::Fail`.
  void CheckConsistency() const;

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Waiter {
    TxnId txn;
    LockMode mode;
  };
  struct GranuleState {
    std::vector<std::pair<TxnId, LockMode>> holders;
    std::deque<Waiter> queue;
  };

  bool CompatibleWithHolders(const GranuleState& state, TxnId txn,
                             LockMode mode) const;
  void GrantTo(GranuleState& state, int64_t granule, TxnId txn,
               LockMode mode);
  /// Drains the front of `granule`'s queue while grantable, appending the
  /// granted transactions to `granted`. Erases empty states.
  void DrainQueue(int64_t granule, std::vector<TxnId>* granted);

  int64_t num_granules_;
  std::unordered_map<int64_t, GranuleState> granules_;
  std::unordered_map<TxnId, std::vector<int64_t>> held_by_txn_;
  /// The granule each transaction is queued on (at most one).
  std::unordered_map<TxnId, int64_t> queued_on_;
  int64_t waiting_count_ = 0;
};

}  // namespace granulock::lockmgr

#endif  // GRANULOCK_LOCKMGR_WAIT_QUEUE_TABLE_H_
